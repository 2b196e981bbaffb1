package window

import (
	"encoding/binary"
	"fmt"

	"datacell/internal/bat"
)

// Canonical wire encoding of sealed basic windows and per-shard epoch
// fragments — the payload the distributed shard fabric ships from worker
// processes to the coordinator. Both encodings are self-describing (the
// column chunks carry their schemas) and decoding always allocates fresh
// vectors, so ownership transfers refcount-safely across the process
// boundary: the sender may release or reuse its buffers the moment the
// bytes are written, and the decoded window owns everything it references
// (BW.Free starts nil — the receiver decides its sharing discipline).

// chunk presence flags in the BW encoding.
const (
	bwHasData byte = 1 << iota
	bwHasOut
	bwHasPartial
)

// MarshalBW appends the wire encoding of a sealed basic window to dst:
// generation, max arrival stamp, and whichever of the Data/Out/Partial
// column chunks are present. The Final view and the Free hook are
// deliberately not encoded — they are coordinator-side sharing state.
func MarshalBW(dst []byte, bw *BW) []byte {
	dst = binary.AppendVarint(dst, bw.Gen)
	dst = binary.AppendVarint(dst, bw.MaxArrival)
	var flags byte
	if bw.Data != nil {
		flags |= bwHasData
	}
	if bw.Out != nil {
		flags |= bwHasOut
	}
	if bw.Partial != nil {
		flags |= bwHasPartial
	}
	dst = append(dst, flags)
	if bw.Data != nil {
		dst = bat.MarshalChunk(dst, bw.Data.Concat())
	}
	if bw.Out != nil {
		dst = bat.MarshalChunk(dst, bw.Out)
	}
	if bw.Partial != nil {
		dst = bat.MarshalChunk(dst, bw.Partial)
	}
	return dst
}

// UnmarshalBW decodes a basic window from src, returning the remainder.
// The window owns freshly allocated chunks; Free is nil.
func UnmarshalBW(src []byte) (*BW, []byte, error) {
	bw := &BW{}
	var err error
	bw.Gen, src, err = bat.ReadVarint(src)
	if err != nil {
		return nil, nil, fmt.Errorf("window: BW gen: %w", err)
	}
	bw.MaxArrival, src, err = bat.ReadVarint(src)
	if err != nil {
		return nil, nil, fmt.Errorf("window: BW arrival: %w", err)
	}
	if len(src) == 0 {
		return nil, nil, fmt.Errorf("window: BW flags: short buffer")
	}
	flags := src[0]
	src = src[1:]
	if flags&bwHasData != 0 {
		var data *bat.Chunk
		if data, src, err = bat.UnmarshalChunk(src); err != nil {
			return nil, nil, fmt.Errorf("window: BW data: %w", err)
		}
		bw.Data = bat.NewRuns(data.Schema, data)
	}
	if flags&bwHasOut != 0 {
		if bw.Out, src, err = bat.UnmarshalChunk(src); err != nil {
			return nil, nil, fmt.Errorf("window: BW out: %w", err)
		}
	}
	if flags&bwHasPartial != 0 {
		if bw.Partial, src, err = bat.UnmarshalChunk(src); err != nil {
			return nil, nil, fmt.Errorf("window: BW partial: %w", err)
		}
	}
	return bw, src, nil
}

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
