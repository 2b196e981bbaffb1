// Package snapshot defines the fabric worker's durable checkpoint: a
// versioned, self-describing encoding of everything a worker holds
// between epoch seals — per-shard basket contents, per-(shard, spec)
// slicer state with open epochs, the session cursors, and the unacked
// outbound frames. A worker that restores a snapshot and replays the
// coordinator's retained frames past the snapshot's receive cursor
// reconstructs its exact pre-crash state (worker output is a
// deterministic function of the applied frame prefix), which is what
// makes recovery lossless rather than reset-and-reseed (docs/RECOVERY.md).
//
// The shard-level encoding (AppendShardState/ReadShardState) doubles as
// the payload of the fabric's elastic shard handoff: the exporting worker
// marshals exactly what it would have checkpointed for the shard, and the
// installing worker restores it the same way the restart path does.
package snapshot

import (
	"encoding/binary"
	"fmt"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/emitter"
	"datacell/internal/plan"
	"datacell/internal/window"
)

// magic and version head every encoded snapshot. Decoders reject other
// versions outright — a worker refusing a snapshot it cannot read falls
// back to a full replay, which is slow but lossless.
var magic = [4]byte{'D', 'C', 'S', 'N'}

const version = 2

// Snapshot is one worker's complete checkpoint.
type Snapshot struct {
	// Index is the worker slot the snapshot belongs to.
	Index int
	// TxSeq is the worker's transmit sequence at capture; RxSeq the
	// highest coordinator frame applied to the captured state. RxSeq is
	// the snapshot cursor a restarting worker presents in its Hello.
	TxSeq, RxSeq uint64
	// Outbox holds the worker's sent-but-unacknowledged session frames:
	// replay regenerates frames after TxSeq, but these were generated
	// before the cursor and would otherwise be lost with the process.
	Outbox []emitter.Frame
	// Streams is the worker's per-stream state, sorted by name.
	Streams []StreamState
}

// StreamState is one exported stream's worker-side half.
type StreamState struct {
	Name    string
	Schema  bat.Schema
	Shards  int   // total across all workers
	Settled int64 // sealing sequence watermark
	// Times is the settled event time of each schema column (time-window
	// sealing clocks; math.MinInt64 where the column has none).
	Times  []int64
	Specs  []SpecState
	Locals []ShardState // sorted by Global
}

// SpecState is one slicing spec registered on the stream.
type SpecState struct {
	ID  int64
	Win *plan.Window
}

// ShardState is one locally owned shard: its basket image plus each
// spec's cursor and slicer over it.
type ShardState struct {
	Global int
	Basket basket.State
	Specs  []ShardSpecState // sorted by Spec
}

// ShardSpecState is one (shard, spec) pair's consumption state.
type ShardSpecState struct {
	Spec   int64
	Cursor int64 // absolute basket read cursor
	SentWm int64 // last shipped flush watermark
	Slicer window.SlicerState
}

// Encode appends the versioned encoding of s to dst.
func Encode(dst []byte, s *Snapshot) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, version)
	dst = binary.AppendUvarint(dst, uint64(s.Index))
	dst = binary.AppendUvarint(dst, s.TxSeq)
	dst = binary.AppendUvarint(dst, s.RxSeq)
	dst = binary.AppendUvarint(dst, uint64(len(s.Outbox)))
	for _, f := range s.Outbox {
		dst = append(dst, f.Type)
		dst = binary.AppendUvarint(dst, f.Seq)
		dst = binary.AppendUvarint(dst, uint64(len(f.Payload)))
		dst = append(dst, f.Payload...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Streams)))
	for i := range s.Streams {
		dst = appendStream(dst, &s.Streams[i])
	}
	return dst
}

func appendStream(dst []byte, st *StreamState) []byte {
	dst = bat.AppendString(dst, st.Name)
	dst = bat.MarshalSchema(dst, st.Schema)
	dst = binary.AppendUvarint(dst, uint64(st.Shards))
	dst = binary.AppendVarint(dst, st.Settled)
	dst = binary.AppendUvarint(dst, uint64(len(st.Times)))
	for _, ts := range st.Times {
		dst = binary.AppendVarint(dst, ts)
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.Specs)))
	for _, sp := range st.Specs {
		dst = binary.AppendVarint(dst, sp.ID)
		dst = plan.AppendWindow(dst, sp.Win)
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.Locals)))
	for i := range st.Locals {
		dst = AppendShardState(dst, &st.Locals[i])
	}
	return dst
}

// AppendShardState appends one shard's encoding — also the elastic
// handoff payload shipped worker → coordinator → worker.
func AppendShardState(dst []byte, sh *ShardState) []byte {
	dst = binary.AppendUvarint(dst, uint64(sh.Global))
	dst = binary.AppendVarint(dst, sh.Basket.Base)
	dst = binary.AppendVarint(dst, sh.Basket.NextSeq)
	dst = binary.AppendVarint(dst, sh.Basket.TotalIn)
	dst = bat.MarshalChunk(dst, sh.Basket.Rows)
	dst = bat.AppendInt64s(dst, sh.Basket.Arrivals)
	dst = bat.AppendInt64s(dst, sh.Basket.Seqs)
	dst = binary.AppendUvarint(dst, uint64(len(sh.Specs)))
	for _, sp := range sh.Specs {
		dst = binary.AppendVarint(dst, sp.Spec)
		dst = binary.AppendVarint(dst, sp.Cursor)
		dst = binary.AppendVarint(dst, sp.SentWm)
		dst = binary.AppendVarint(dst, sp.Slicer.NextGen)
		dst = binary.AppendVarint(dst, sp.Slicer.MaxGen)
		dst = binary.AppendUvarint(dst, uint64(len(sp.Slicer.Open)))
		for _, e := range sp.Slicer.Open {
			dst = binary.AppendVarint(dst, e.Gen)
			dst = binary.AppendVarint(dst, e.MaxArrival)
			dst = bat.MarshalChunk(dst, e.Data)
		}
	}
	return dst
}

// Decode parses a versioned snapshot. Malformed input returns an error,
// never panics (FuzzSnapshotRoundTrip pins this).
func Decode(src []byte) (*Snapshot, error) {
	if len(src) < len(magic)+1 {
		return nil, fmt.Errorf("snapshot: short header")
	}
	if string(src[:4]) != string(magic[:]) {
		return nil, fmt.Errorf("snapshot: bad magic %q", src[:4])
	}
	if src[4] != version {
		return nil, fmt.Errorf("snapshot: unsupported version %d", src[4])
	}
	src = src[5:]
	s := &Snapshot{}
	vals, src, err := readUvarints(src, 4)
	if err != nil {
		return nil, fmt.Errorf("snapshot: header: %w", err)
	}
	s.Index, s.TxSeq, s.RxSeq = int(vals[0]), vals[1], vals[2]
	nOut := vals[3]
	if nOut > uint64(len(src)) { // every frame costs ≥3 bytes
		return nil, fmt.Errorf("snapshot: claims %d outbox frames in %d bytes", nOut, len(src))
	}
	s.Outbox = make([]emitter.Frame, nOut)
	for i := range s.Outbox {
		if len(src) == 0 {
			return nil, fmt.Errorf("snapshot: outbox frame %d: short buffer", i)
		}
		f := emitter.Frame{Type: src[0]}
		src = src[1:]
		if f.Seq, src, err = bat.ReadUvarint(src); err != nil {
			return nil, fmt.Errorf("snapshot: outbox seq %d: %w", i, err)
		}
		n, rest, err := bat.ReadUvarint(src)
		if err != nil || n > uint64(len(rest)) {
			return nil, fmt.Errorf("snapshot: outbox payload %d", i)
		}
		if n > 0 {
			f.Payload = append([]byte(nil), rest[:n]...)
		}
		s.Outbox[i], src = f, rest[n:]
	}
	nStreams, src, err := bat.ReadUvarint(src)
	if err != nil || nStreams > uint64(len(src))+1 {
		return nil, fmt.Errorf("snapshot: stream count")
	}
	s.Streams = make([]StreamState, nStreams)
	for i := range s.Streams {
		if src, err = readStream(src, &s.Streams[i]); err != nil {
			return nil, fmt.Errorf("snapshot: stream %d: %w", i, err)
		}
	}
	return s, nil
}

func readStream(src []byte, st *StreamState) ([]byte, error) {
	var err error
	if st.Name, src, err = bat.ReadString(src); err != nil {
		return nil, fmt.Errorf("name: %w", err)
	}
	if st.Schema, src, err = bat.UnmarshalSchema(src); err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	shards, src, err := bat.ReadUvarint(src)
	if err != nil {
		return nil, fmt.Errorf("shards: %w", err)
	}
	st.Shards = int(shards)
	if st.Settled, src, err = bat.ReadVarint(src); err != nil {
		return nil, fmt.Errorf("settled: %w", err)
	}
	nTimes, src, err := bat.ReadUvarint(src)
	if err != nil || nTimes > uint64(len(src)) {
		return nil, fmt.Errorf("time count")
	}
	st.Times = make([]int64, nTimes)
	for i := range st.Times {
		if st.Times[i], src, err = bat.ReadVarint(src); err != nil {
			return nil, fmt.Errorf("time %d: %w", i, err)
		}
	}
	nSpecs, src, err := bat.ReadUvarint(src)
	if err != nil || nSpecs > uint64(len(src))+1 {
		return nil, fmt.Errorf("spec count")
	}
	st.Specs = make([]SpecState, nSpecs)
	for i := range st.Specs {
		sp := &st.Specs[i]
		if sp.ID, src, err = bat.ReadVarint(src); err != nil {
			return nil, fmt.Errorf("spec %d id: %w", i, err)
		}
		if sp.Win, src, err = plan.ReadWindow(src); err != nil {
			return nil, fmt.Errorf("spec %d window: %w", i, err)
		}
	}
	nLocals, src, err := bat.ReadUvarint(src)
	if err != nil || nLocals > uint64(len(src))+1 {
		return nil, fmt.Errorf("shard count")
	}
	st.Locals = make([]ShardState, nLocals)
	for i := range st.Locals {
		if src, err = ReadShardState(src, &st.Locals[i]); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return src, nil
}

// ReadShardState decodes one shard's encoding into sh, returning the
// remainder. The decoded state owns freshly allocated vectors.
func ReadShardState(src []byte, sh *ShardState) ([]byte, error) {
	global, src, err := bat.ReadUvarint(src)
	if err != nil {
		return nil, fmt.Errorf("global: %w", err)
	}
	sh.Global = int(global)
	if sh.Basket.Base, src, err = bat.ReadVarint(src); err != nil {
		return nil, fmt.Errorf("base: %w", err)
	}
	if sh.Basket.NextSeq, src, err = bat.ReadVarint(src); err != nil {
		return nil, fmt.Errorf("next-seq: %w", err)
	}
	if sh.Basket.TotalIn, src, err = bat.ReadVarint(src); err != nil {
		return nil, fmt.Errorf("total-in: %w", err)
	}
	if sh.Basket.Rows, src, err = bat.UnmarshalChunk(src); err != nil {
		return nil, fmt.Errorf("rows: %w", err)
	}
	rows := sh.Basket.Rows.Rows()
	var stamps []int64
	if stamps, src, err = bat.ReadInt64s(src, rows); err != nil {
		return nil, fmt.Errorf("arrivals: %w", err)
	}
	sh.Basket.Arrivals = stamps
	if stamps, src, err = bat.ReadInt64s(src, rows); err != nil {
		return nil, fmt.Errorf("seqs: %w", err)
	}
	sh.Basket.Seqs = stamps
	nSpecs, src, err := bat.ReadUvarint(src)
	if err != nil || nSpecs > uint64(len(src))+1 {
		return nil, fmt.Errorf("spec count")
	}
	sh.Specs = make([]ShardSpecState, nSpecs)
	for i := range sh.Specs {
		sp := &sh.Specs[i]
		if sp.Spec, src, err = bat.ReadVarint(src); err != nil {
			return nil, fmt.Errorf("spec %d id: %w", i, err)
		}
		if sp.Cursor, src, err = bat.ReadVarint(src); err != nil {
			return nil, fmt.Errorf("spec %d cursor: %w", i, err)
		}
		if sp.SentWm, src, err = bat.ReadVarint(src); err != nil {
			return nil, fmt.Errorf("spec %d sent-wm: %w", i, err)
		}
		if sp.Slicer.NextGen, src, err = bat.ReadVarint(src); err != nil {
			return nil, fmt.Errorf("spec %d next-gen: %w", i, err)
		}
		if sp.Slicer.MaxGen, src, err = bat.ReadVarint(src); err != nil {
			return nil, fmt.Errorf("spec %d max-gen: %w", i, err)
		}
		nOpen, rest, err := bat.ReadUvarint(src)
		if err != nil || nOpen > uint64(len(rest))+1 {
			return nil, fmt.Errorf("spec %d open count", i)
		}
		src = rest
		sp.Slicer.Open = make([]window.OpenEpoch, nOpen)
		for j := range sp.Slicer.Open {
			e := &sp.Slicer.Open[j]
			if e.Gen, src, err = bat.ReadVarint(src); err != nil {
				return nil, fmt.Errorf("spec %d epoch %d gen: %w", i, j, err)
			}
			if e.MaxArrival, src, err = bat.ReadVarint(src); err != nil {
				return nil, fmt.Errorf("spec %d epoch %d arrival: %w", i, j, err)
			}
			if e.Data, src, err = bat.UnmarshalChunk(src); err != nil {
				return nil, fmt.Errorf("spec %d epoch %d data: %w", i, j, err)
			}
		}
	}
	return src, nil
}

func readUvarints(src []byte, n int) ([]uint64, []byte, error) {
	out := make([]uint64, n)
	var err error
	for i := range out {
		if out[i], src, err = bat.ReadUvarint(src); err != nil {
			return nil, nil, err
		}
	}
	return out, src, nil
}
