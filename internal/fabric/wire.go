// Package fabric implements DataCell's distributed shard fabric: a
// coordinator/worker runtime that partitions a query group's shard set
// across OS processes.
//
// The coordinator owns a normal Engine. Streams exported to the fabric
// keep their catalog entry and sharded-basket sequencing, but appends are
// routed — rows partitioned, stamped with global sequence numbers — to
// worker processes by shard range instead of entering local baskets.
// Each worker runs the existing sharded front end for its range: rows
// land in per-shard baskets, per-(shard, spec) ShardSlicers cut them into
// globally consistent epoch fragments, and watermark frames from the
// coordinator carry the exported container's sealing clocks (the settled
// sequence for tuple windows, the settled prefix's event times for time
// windows) that seal them. Sealed fragments ship
// back as length-prefixed frames (emitter.WriteFrame; payloads via
// window.MarshalFrag) and feed the query group's ordinary ShardMerge —
// min-watermark sealing across processes — so everything above the merge
// (fan-out, operator DAG, merge classes, post-merge trie) works unchanged
// on remote windows, and results are byte-identical to a single-process
// run.
//
// Sessions survive connection loss: every session frame carries a
// per-direction sequence number, receivers acknowledge the highest
// in-order frame processed, and a reconnecting peer replays everything
// after the peer's acknowledged cursor — resuming from the last acked
// epoch with no duplicated or lost windows (see session.go).
//
// Lock order across the boundary (see ARCHITECTURE.md): a stream's
// routing mutex (coordStream.mu) → session mutex; and on the delivery
// side the group's mergeMu → member queues → scheduler, exactly as for
// local firings. No lock is ever held across a blocking network write —
// sessions enqueue and a per-session writer goroutine does the IO.
package fabric

import (
	"encoding/binary"
	"fmt"
	"math"

	"datacell/internal/bat"
	"datacell/internal/plan"
	"datacell/internal/window"
)

// Frame types of the fabric protocol (emitter.Frame.Type). Hello, Welcome,
// Ack and SnapAck are control frames whose Seq field carries a cursor
// (receive cursor for the first three, durable snapshot cursor for
// SnapAck); every other type is a session frame stamped with the sender's
// transmit sequence. Timer-driven traffic (the snapshot ack) MUST stay a
// control frame: a stamped frame outside the deterministic frame→frame
// function would shift the transmit sequence and break replay identity.
const (
	frameHello        byte = iota + 1 // worker → coord: worker index + id + cursors
	frameWelcome                      // coord → worker: handshake reply (payload: reset flag)
	frameAck                          // either direction: receive cursor
	frameSnapAck                      // worker → coord: durable snapshot cursor
	frameStream                       // coord → worker: stream + shard-range assignment
	frameSpec                         // coord → worker: slicing spec for a new query group
	frameSpecDrop                     // coord → worker: group torn down
	frameAppend                       // coord → worker: routed rows for one shard
	frameWatermark                    // coord → worker: the stream's settled sequence and event times
	framePing                         // coord → worker: drain barrier probe
	framePong                         // worker → coord: barrier reply
	frameFrag                         // worker → coord: sealed epoch fragments + shard watermark
	frameBye                          // coord → worker: orderly shutdown
	frameShardExport                  // coord → worker: drain one shard and ship its state
	frameShardState                   // worker → coord: exported shard state (handoff payload)
	frameShardInstall                 // coord → worker: install shipped shard state
	frameBatch                        // either direction: coalesced session sub-frames
)

const protoVersion = 5

// welcomeReset in a Welcome payload tells the worker its cursors are from
// another coordinator life (its Hello claimed frames this coordinator
// never sent): wipe state and snapshot, rejoin fresh.
const welcomeReset byte = 1

// helloMsg introduces (or re-introduces) a worker. Snap is the cursor of
// the worker's last durable snapshot (0 when it never snapshotted): the
// coordinator's replay-log retention floor for this worker.
type helloMsg struct {
	Version int
	Index   int
	Snap    uint64
	ID      string
}

func marshalHello(m helloMsg) []byte {
	b := binary.AppendUvarint(nil, uint64(m.Version))
	b = binary.AppendUvarint(b, uint64(m.Index))
	b = binary.AppendUvarint(b, m.Snap)
	return bat.AppendString(b, m.ID)
}

func unmarshalHello(src []byte) (helloMsg, error) {
	var m helloMsg
	v, src, err := bat.ReadUvarint(src)
	if err != nil {
		return m, fmt.Errorf("fabric: hello version: %w", err)
	}
	m.Version = int(v)
	idx, src, err := bat.ReadUvarint(src)
	if err != nil {
		return m, fmt.Errorf("fabric: hello index: %w", err)
	}
	m.Index = int(idx)
	if m.Snap, src, err = bat.ReadUvarint(src); err != nil {
		return m, fmt.Errorf("fabric: hello snap: %w", err)
	}
	if m.ID, _, err = bat.ReadString(src); err != nil {
		return m, fmt.Errorf("fabric: hello id: %w", err)
	}
	return m, nil
}

// streamMsg assigns a stream's shard range to a worker.
type streamMsg struct {
	Name   string
	Schema bat.Schema
	Shards int // total shard count across all workers
	Lo, Hi int // this worker's half-open shard range
}

func marshalStream(m streamMsg) []byte {
	b := bat.AppendString(nil, m.Name)
	b = bat.MarshalSchema(b, m.Schema)
	b = binary.AppendUvarint(b, uint64(m.Shards))
	b = binary.AppendUvarint(b, uint64(m.Lo))
	return binary.AppendUvarint(b, uint64(m.Hi))
}

func unmarshalStream(src []byte) (streamMsg, error) {
	var m streamMsg
	var err error
	if m.Name, src, err = bat.ReadString(src); err != nil {
		return m, fmt.Errorf("fabric: stream name: %w", err)
	}
	if m.Schema, src, err = bat.UnmarshalSchema(src); err != nil {
		return m, fmt.Errorf("fabric: stream schema: %w", err)
	}
	vals, _, err := readUvarints(src, 3)
	if err != nil {
		return m, fmt.Errorf("fabric: stream range: %w", err)
	}
	m.Shards, m.Lo, m.Hi = int(vals[0]), int(vals[1]), int(vals[2])
	return m, nil
}

// specMsg registers a slicing spec: the window one query group needs the
// stream cut at (the worker uses only the slide granularity, but the full
// window rides along so the broadcast and the snapshot codec agree on
// what a spec is — see plan.AppendWindow).
type specMsg struct {
	ID     int64
	Stream string
	Win    *plan.Window
}

func marshalSpec(m specMsg) []byte {
	b := binary.AppendVarint(nil, m.ID)
	b = bat.AppendString(b, m.Stream)
	return plan.AppendWindow(b, m.Win)
}

func unmarshalSpec(src []byte) (specMsg, error) {
	var m specMsg
	var err error
	if m.ID, src, err = bat.ReadVarint(src); err != nil {
		return m, fmt.Errorf("fabric: spec id: %w", err)
	}
	if m.Stream, src, err = bat.ReadString(src); err != nil {
		return m, fmt.Errorf("fabric: spec stream: %w", err)
	}
	if m.Win, _, err = plan.ReadWindow(src); err != nil {
		return m, fmt.Errorf("fabric: spec window: %w", err)
	}
	return m, nil
}

// shardRefMsg names one (stream, shard) — the export request of the
// elastic handoff.
type shardRefMsg struct {
	Stream string
	Shard  int
}

func marshalShardRef(stream string, shard int) []byte {
	b := bat.AppendString(nil, stream)
	return binary.AppendUvarint(b, uint64(shard))
}

func unmarshalShardRef(src []byte) (shardRefMsg, error) {
	var m shardRefMsg
	var err error
	if m.Stream, src, err = bat.ReadString(src); err != nil {
		return m, fmt.Errorf("fabric: shard ref stream: %w", err)
	}
	sh, _, err := bat.ReadUvarint(src)
	if err != nil {
		return m, fmt.Errorf("fabric: shard ref shard: %w", err)
	}
	m.Shard = int(sh)
	return m, nil
}

// shardBlobMsg carries one shard's encoded state (snapshot.ShardState
// bytes) — shipped worker → coordinator on export and forwarded verbatim
// coordinator → new owner on install, so the coordinator never decodes
// (or re-marshals) the state it relays.
type shardBlobMsg struct {
	Stream string
	Shard  int
	State  []byte
}

func marshalShardBlob(stream string, shard int, state []byte) []byte {
	b := bat.AppendString(nil, stream)
	b = binary.AppendUvarint(b, uint64(shard))
	return append(b, state...)
}

func unmarshalShardBlob(src []byte) (shardBlobMsg, error) {
	var m shardBlobMsg
	var err error
	if m.Stream, src, err = bat.ReadString(src); err != nil {
		return m, fmt.Errorf("fabric: shard blob stream: %w", err)
	}
	sh, src, err := bat.ReadUvarint(src)
	if err != nil {
		return m, fmt.Errorf("fabric: shard blob shard: %w", err)
	}
	m.Shard = int(sh)
	m.State = src
	return m, nil
}

// appendMsg carries one shard's slice of a routed append. On the wire
// the sequence stamps are shard-local: a round-robin part's stamps are a
// dense run carried as a single base (seqDense), and a hash-routed
// part's ascending subset is carried as first value + deltas (seqDeltas)
// — the global stamp never crosses the wire per row.
type appendMsg struct {
	Stream  string
	Shard   int
	Arrival int64
	Seqs    bat.Ints
	Chunk   *bat.Chunk
}

const (
	seqDense  byte = 0 // uvarint count + varint base: seqs are base..base+count-1
	seqDeltas byte = 1 // uvarint count + varint first + varint deltas
)

func marshalAppend(m appendMsg) []byte {
	b := bat.AppendString(nil, m.Stream)
	b = binary.AppendUvarint(b, uint64(m.Shard))
	b = binary.AppendVarint(b, m.Arrival)
	dense := len(m.Seqs) > 0
	for i, s := range m.Seqs {
		if s != m.Seqs[0]+int64(i) {
			dense = false
			break
		}
	}
	if dense {
		b = append(b, seqDense)
		b = binary.AppendUvarint(b, uint64(len(m.Seqs)))
		b = binary.AppendVarint(b, m.Seqs[0])
	} else {
		b = append(b, seqDeltas)
		b = binary.AppendUvarint(b, uint64(len(m.Seqs)))
		prev := int64(0)
		for i, s := range m.Seqs {
			if i == 0 {
				b = binary.AppendVarint(b, s)
			} else {
				b = binary.AppendVarint(b, s-prev)
			}
			prev = s
		}
	}
	return bat.MarshalChunk(b, m.Chunk)
}

func unmarshalAppend(src []byte) (appendMsg, error) {
	var m appendMsg
	var err error
	if m.Stream, src, err = bat.ReadString(src); err != nil {
		return m, fmt.Errorf("fabric: append stream: %w", err)
	}
	sh, src, err := bat.ReadUvarint(src)
	if err != nil {
		return m, fmt.Errorf("fabric: append shard: %w", err)
	}
	m.Shard = int(sh)
	if m.Arrival, src, err = bat.ReadVarint(src); err != nil {
		return m, fmt.Errorf("fabric: append arrival: %w", err)
	}
	if len(src) == 0 {
		return m, fmt.Errorf("fabric: append seq mode: short buffer")
	}
	mode := src[0]
	src = src[1:]
	n, src, err := bat.ReadUvarint(src)
	if err != nil || n > uint64(len(src))+1 {
		return m, fmt.Errorf("fabric: append seq count")
	}
	m.Seqs = make(bat.Ints, n)
	switch mode {
	case seqDense:
		if n > 0 {
			var base int64
			if base, src, err = bat.ReadVarint(src); err != nil {
				return m, fmt.Errorf("fabric: append seq base: %w", err)
			}
			for i := range m.Seqs {
				m.Seqs[i] = base + int64(i)
			}
		}
	case seqDeltas:
		prev := int64(0)
		for i := range m.Seqs {
			var d int64
			if d, src, err = bat.ReadVarint(src); err != nil {
				return m, fmt.Errorf("fabric: append seq %d: %w", i, err)
			}
			if i == 0 {
				prev = d
			} else {
				prev += d
			}
			m.Seqs[i] = prev
		}
	default:
		return m, fmt.Errorf("fabric: append seq mode %d", mode)
	}
	if m.Chunk, _, err = bat.UnmarshalChunk(src); err != nil {
		return m, fmt.Errorf("fabric: append chunk: %w", err)
	}
	if m.Chunk.Rows() != len(m.Seqs) {
		return m, fmt.Errorf("fabric: append of %d rows with %d seqs", m.Chunk.Rows(), len(m.Seqs))
	}
	return m, nil
}

// Batch payloads are concatenated sub-frames — {byte type, uvarint len,
// payload} — applied strictly in order under the receiver's state mutex,
// so a batch is semantically identical to its sub-frames sent back to
// back, at one frame's framing and ack cost.
type subFrame struct {
	Type    byte
	Payload []byte
}

func appendSubFrame(dst []byte, t byte, payload []byte) []byte {
	dst = append(dst, t)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// forEachSubFrame applies fn to each sub-frame in a batch payload,
// stopping on malformed framing (the remaining bytes are undecodable).
func forEachSubFrame(src []byte, fn func(t byte, payload []byte) error) error {
	for len(src) > 0 {
		t := src[0]
		n, rest, err := bat.ReadUvarint(src[1:])
		if err != nil || n > uint64(len(rest)) {
			return fmt.Errorf("fabric: batch sub-frame framing")
		}
		if err := fn(t, rest[:n]); err != nil {
			return err
		}
		src = rest[n:]
	}
	return nil
}

// watermarkMsg advances a stream's sealing clocks after routed appends
// and time advances: the container's settled sequence watermark (tuple
// windows) and the settled event time of each TIMESTAMP column that has
// one (time windows).
type watermarkMsg struct {
	Stream  string
	Settled int64
	Times   []colTime
}

// colTime is one TIMESTAMP column's settled event time.
type colTime struct {
	Col int
	Ts  int64
}

func marshalWatermark(m watermarkMsg) []byte {
	b := bat.AppendString(nil, m.Stream)
	b = binary.AppendVarint(b, m.Settled)
	b = binary.AppendUvarint(b, uint64(len(m.Times)))
	for _, ct := range m.Times {
		b = binary.AppendUvarint(b, uint64(ct.Col))
		b = binary.AppendVarint(b, ct.Ts)
	}
	return b
}

func unmarshalWatermark(src []byte) (watermarkMsg, error) {
	var m watermarkMsg
	var err error
	if m.Stream, src, err = bat.ReadString(src); err != nil {
		return m, fmt.Errorf("fabric: watermark stream: %w", err)
	}
	if m.Settled, src, err = bat.ReadVarint(src); err != nil {
		return m, fmt.Errorf("fabric: watermark settled: %w", err)
	}
	n, src, err := bat.ReadUvarint(src)
	if err != nil || n > uint64(len(src)) {
		return m, fmt.Errorf("fabric: watermark column count")
	}
	m.Times = make([]colTime, n)
	for i := range m.Times {
		col, rest, err := bat.ReadUvarint(src)
		if err != nil || col > math.MaxInt32 {
			return m, fmt.Errorf("fabric: watermark column")
		}
		m.Times[i].Col = int(col)
		if m.Times[i].Ts, src, err = bat.ReadVarint(rest); err != nil {
			return m, fmt.Errorf("fabric: watermark time: %w", err)
		}
	}
	return m, nil
}

// marshalInt64s / unmarshalInt64s encode the small fixed-arity frames
// (spec drop, ping, pong) as varint tuples.
func marshalInt64s(vals ...int64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendVarint(b, v)
	}
	return b
}

func unmarshalInt64s(src []byte, n int) ([]int64, error) {
	out := make([]int64, n)
	var err error
	for i := range out {
		if out[i], src, err = bat.ReadVarint(src); err != nil {
			return nil, fmt.Errorf("fabric: short int frame: %w", err)
		}
	}
	return out, nil
}

// fragMsg ships one (spec, shard)'s freshly sealed epoch fragments and the
// shard's new flush watermark to the coordinator.
type fragMsg struct {
	Spec  int64
	Shard int
	Wm    int64
	Frags []*window.Frag
}

func marshalFragMsg(m fragMsg) []byte {
	b := binary.AppendVarint(nil, m.Spec)
	b = binary.AppendUvarint(b, uint64(m.Shard))
	b = binary.AppendVarint(b, m.Wm)
	b = binary.AppendUvarint(b, uint64(len(m.Frags)))
	for _, f := range m.Frags {
		b = window.MarshalFrag(b, f)
	}
	return b
}

func unmarshalFragMsg(src []byte) (fragMsg, error) {
	var m fragMsg
	var err error
	if m.Spec, src, err = bat.ReadVarint(src); err != nil {
		return m, fmt.Errorf("fabric: frag spec: %w", err)
	}
	sh, src, err := bat.ReadUvarint(src)
	if err != nil {
		return m, fmt.Errorf("fabric: frag shard: %w", err)
	}
	m.Shard = int(sh)
	if m.Wm, src, err = bat.ReadVarint(src); err != nil {
		return m, fmt.Errorf("fabric: frag wm: %w", err)
	}
	n, src, err := bat.ReadUvarint(src)
	if err != nil || n > uint64(len(src))+1 {
		return m, fmt.Errorf("fabric: frag count")
	}
	m.Frags = make([]*window.Frag, n)
	for i := range m.Frags {
		if m.Frags[i], src, err = window.UnmarshalFrag(src); err != nil {
			return m, fmt.Errorf("fabric: frag %d: %w", i, err)
		}
	}
	return m, nil
}

// readUvarints decodes n consecutive uvarints (the byte-level primitives
// themselves live in bat's codec, shared with the window codec).
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
