package window

import (
	"encoding/binary"
	"fmt"

	"datacell/internal/bat"
)

// Canonical wire encoding of per-shard epoch fragments — the payload the
// distributed shard fabric ships from worker processes to the
// coordinator. The encoding is self-describing (the column chunk carries
// its schema) and decoding always allocates fresh vectors, so ownership
// transfers safely across the process boundary: the sender may release
// or reuse its buffers the moment the bytes are written, and the decoded
// fragment owns everything it references.

// MarshalFrag appends the wire encoding of one shard's epoch fragment to
// dst: epoch, shard index, max arrival stamp and the raw tuples, encoded
// as one chunk (the fragment's runs concatenated).
// The fabric ships raw windows and lets the coordinator's sharing stack
// (operator DAG, merge classes) evaluate pipelines once per window across
// members.
func MarshalFrag(dst []byte, f *Frag) []byte {
	dst = binary.AppendVarint(dst, f.Gen)
	dst = binary.AppendVarint(dst, int64(f.Shard))
	dst = binary.AppendVarint(dst, f.MaxArrival)
	return bat.MarshalChunk(dst, f.Data.Concat())
}

// UnmarshalFrag decodes a fragment from src, returning the remainder. The
// fragment owns a freshly allocated chunk, its single run.
func UnmarshalFrag(src []byte) (*Frag, []byte, error) {
	f := &Frag{}
	var err error
	f.Gen, src, err = bat.ReadVarint(src)
	if err != nil {
		return nil, nil, fmt.Errorf("window: frag gen: %w", err)
	}
	shard, src, err := bat.ReadVarint(src)
	if err != nil {
		return nil, nil, fmt.Errorf("window: frag shard: %w", err)
	}
	f.Shard = int(shard)
	f.MaxArrival, src, err = bat.ReadVarint(src)
	if err != nil {
		return nil, nil, fmt.Errorf("window: frag arrival: %w", err)
	}
	data, src, err := bat.UnmarshalChunk(src)
	if err != nil {
		return nil, nil, fmt.Errorf("window: frag data: %w", err)
	}
	f.Data = bat.NewRuns(data.Schema, data)
	return f, src, nil
}
