package fabric

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/emitter"
	"datacell/internal/fabric/snapshot"
	"datacell/internal/plan"
	"datacell/internal/window"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's fabric address.
	Coordinator string
	// Index is the worker's slot in the coordinator's partition layout
	// (0 ≤ Index < coordinator Workers).
	Index int
	// ID is a self-reported label for introspection (default "w<Index>").
	ID string
	// SnapshotDir, when set, enables durable checkpoints: the worker
	// periodically writes its state to SnapshotDir/worker-<Index>.snap and
	// restores from it on startup, so a crashed worker resumes from its
	// last checkpoint plus the coordinator's replay of the delta. Unset,
	// the worker is recoverable only by a full replay from frame one
	// (lossless but linear in history, and the coordinator must retain
	// everything).
	SnapshotDir string
	// SnapshotEvery is the checkpoint interval (default 500ms). Only
	// meaningful with SnapshotDir.
	SnapshotEvery time.Duration
}

// Worker is the fabric's process-side half: it runs the sharded front end
// — per-shard baskets, per-(shard, spec) ShardSlicers, watermark-driven
// flushes — for its assigned shards of every exported stream, and ships
// sealed epoch fragments to the coordinator. A worker keeps dialing (and
// resuming) its coordinator until Close is called or the coordinator says
// Bye.
//
// Everything a worker computes is a deterministic function of the prefix
// of coordinator frames it has applied: handlers run under one mutex, in
// frame order, and every send happens inside a handler. That determinism
// is the recovery contract — a worker restored from a snapshot (or from
// nothing) that replays the same frames regenerates byte-identical state
// and byte-identical outgoing frames, which the coordinator deduplicates
// by sequence. See docs/RECOVERY.md.
type Worker struct {
	opts WorkerOptions
	sess *session
	wg   sync.WaitGroup

	// outBatch stages the handlers' output sub-frames; flushed as one batch
	// frame per applied input frame (see flushOutLocked). Guarded by mu.
	outBatch           []byte
	outBatchN          int
	batchesOut, subOut uint64

	// snapMu serializes whole checkpoints (capture + Save + lastSnap
	// update) against each other and against wipe. Without it the snapLoop
	// tick and Close's final checkpoint can interleave so that an older
	// in-flight capture renames over a newer snapshot whose cursor was
	// already snap-acked — and once the coordinator prunes its replay log
	// to the newer cursor, a restart from the older file presents a cursor
	// below the retention floor and can never resync. Acquired before mu.
	snapMu sync.Mutex

	mu      sync.Mutex
	streams map[string]*workerStream
	specs   map[int64]*workerSpec
	// applied is the highest coordinator frame applied to the state above.
	// It can lag sess.rxSeq by one mid-handle (accept runs first), which
	// is why snapshots capture applied, not the session cursor.
	applied uint64
	// lastSnap is the cursor of the last durable checkpoint — the Snap
	// field of the next Hello. lastSnapAt stamps when it landed (wall µs;
	// 0 before the first), the snapshot-age gauge on /metrics.
	lastSnap   uint64
	lastSnapAt int64
	// frameErrs counts session frames that decoded badly or failed to
	// apply. Such frames are still acknowledged — redelivering them cannot
	// help (the resume protocol retransmits bytes, not fixes), and
	// dropping the connection would redial into the same frame forever —
	// but every one is logged and counted so version skew or corruption
	// is visible instead of silently eating rows.
	frameErrs int64
	closed    bool
	done      chan struct{} // closed on Bye or Close
	doneMu    sync.Once
}

// workerStream is one exported stream's local half: the locally owned
// shards, keyed (and ordered) by global shard index — ownership is
// per-shard, not a contiguous range, because elastic handoff moves single
// shards between workers.
type workerStream struct {
	name   string
	schema bat.Schema
	shards int // total across all workers
	locals map[int]*workerShard
	order  []int // sorted keys of locals: firing order must be deterministic
	// settled and times are the coordinator container's sealing clocks:
	// the settled sequence watermark, and each schema column's settled
	// event time (math.MinInt64 where it has none).
	settled int64
	times   []int64
	// specList is the stream's specs in id order, maintained on spec
	// add/drop so the per-watermark firing pass (once per routed append)
	// neither allocates nor sorts.
	specList []*workerSpec
}

// workerShard is one shard's basket plus the per-spec consumption state
// over it: consumer cursor, slicer, and last shipped watermark. The
// per-spec state lives on the shard (not the spec) so one shard's whole
// state can be checkpointed or shipped to another worker as a unit.
type workerShard struct {
	global int
	bk     *basket.Basket
	cids   map[int64]int // specID → consumer id
	sls    map[int64]*window.ShardSlicer
	sentWm map[int64]int64
}

// workerSpec is one query group's slicing spec over a stream.
type workerSpec struct {
	id  int64
	st  *workerStream
	win *plan.Window
}

// NewWorker starts a worker: it restores its snapshot (if any), dials the
// coordinator in the background and serves its shards until Close (or the
// coordinator's Bye).
func NewWorker(opts WorkerOptions) *Worker {
	if opts.ID == "" {
		opts.ID = fmt.Sprintf("w%d", opts.Index)
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 500 * time.Millisecond
	}
	w := &Worker{
		opts:    opts,
		sess:    newSession(false),
		streams: make(map[string]*workerStream),
		specs:   make(map[int64]*workerSpec),
		done:    make(chan struct{}),
	}
	if opts.SnapshotDir != "" {
		if snap, err := snapshot.Load(opts.SnapshotDir, opts.Index); err != nil {
			// A corrupt snapshot is not fatal: start empty and let the
			// coordinator's full replay rebuild the state.
			fmt.Fprintf(os.Stderr, "fabric worker %s: ignoring snapshot: %v\n", opts.ID, err)
		} else if snap != nil {
			w.restoreSnapshot(snap)
		}
		w.wg.Add(1)
		go w.snapLoop()
	}
	w.wg.Add(1)
	go w.dialLoop()
	return w
}

// Done is closed when the worker retires (coordinator Bye or Close).
func (w *Worker) Done() <-chan struct{} { return w.done }

// Close stops the worker, taking a final checkpoint so a clean restart
// replays almost nothing.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	_ = w.Checkpoint()
	w.retire()
	w.sess.close()
	w.wg.Wait()
}

// noteErr records one undeliverable frame (callers hold w.mu).
func (w *Worker) noteErr(what string, err error) {
	w.frameErrs++
	fmt.Fprintf(os.Stderr, "fabric worker %s: dropped %s frame: %v\n", w.opts.ID, what, err)
}

func (w *Worker) retire() {
	w.doneMu.Do(func() { close(w.done) })
}

func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// dialLoop keeps one connection to the coordinator alive, with backoff,
// resuming the session on every reconnect.
func (w *Worker) dialLoop() {
	defer w.wg.Done()
	backoff := 10 * time.Millisecond
	for !w.isClosed() {
		conn, err := net.DialTimeout("tcp", w.opts.Coordinator, 2*time.Second)
		if err != nil {
			select {
			case <-w.done:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 500*time.Millisecond {
				backoff = 500 * time.Millisecond
			}
			continue
		}
		backoff = 10 * time.Millisecond
		if w.serve(conn) {
			return // Bye or Close
		}
	}
}

// serve performs the handshake and runs the frame loop on one connection.
// It reports whether the worker should retire (rather than redial).
func (w *Worker) serve(conn net.Conn) bool {
	// Hello carries our receive cursor (so the coordinator replays only
	// past it) and our durable snapshot cursor (its retention floor).
	// Written directly: the session is only attached once the Welcome
	// tells us the peer's cursor.
	w.mu.Lock()
	snapCur := w.lastSnap
	w.mu.Unlock()
	hello := emitter.Frame{Type: frameHello, Seq: w.sess.cursor(),
		Payload: marshalHello(helloMsg{Version: protoVersion, Index: w.opts.Index,
			Snap: snapCur, ID: w.opts.ID})}
	if err := emitter.WriteFrame(conn, hello); err != nil {
		_ = conn.Close()
		return w.isClosed()
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Tolerate stray control frames ahead of the handshake reply (a stale
	// ack flushed from the coordinator's previous-connection queue must
	// not cost a redial cycle).
	var f emitter.Frame
	var err error
	for {
		f, err = emitter.ReadFrame(br)
		if err == nil && f.Type == frameAck {
			w.sess.onAck(f.Seq)
			continue
		}
		break
	}
	if err != nil || f.Type != frameWelcome {
		_ = conn.Close()
		return w.isClosed()
	}
	if len(f.Payload) > 0 && f.Payload[0] == welcomeReset {
		// Our cursors claim frames this coordinator never sent: the state
		// (and any snapshot) is from another coordinator life. Wipe and
		// rejoin fresh.
		_ = conn.Close()
		w.wipe()
		return w.isClosed()
	}
	_ = conn.SetReadDeadline(time.Time{})
	w.sess.attach(conn, f.Seq, nil)

	// The coalesced-ack cursor is connection-scoped, as in the
	// coordinator's handleConn: starting at 0 guarantees one ack per
	// cursor position even when a replay delivers only duplicates.
	var lastAck uint64
	for {
		f, err := emitter.ReadFrame(br)
		if err != nil {
			w.sess.detach(conn)
			return w.isClosed()
		}
		switch f.Type {
		case frameAck:
			w.sess.onAck(f.Seq)
			continue
		case frameWelcome:
			continue // duplicate handshake reply from a racy reattach
		}
		// Frames arrive in sequence order on the one link: a duplicate is
		// a replay of an applied frame, and a gap means the stream is
		// broken — drop the conn and let the resume handshake replay from
		// the cursor.
		if fresh, gap := w.sess.accept(f.Seq); gap {
			w.sess.detach(conn)
			return w.isClosed()
		} else if fresh && w.handle(f) {
			w.retire()
			w.sess.detach(conn)
			return true
		}
		// Acks are pipelined: sent when the read buffer drains, or every
		// ackEvery frames within a burst — never one per frame.
		if cur := w.sess.cursor(); cur > lastAck && (br.Buffered() == 0 || cur-lastAck >= ackEvery) {
			lastAck = cur
			w.sess.sendCtl(emitter.Frame{Type: frameAck, Seq: cur})
		}
	}
}

// ackEvery caps how many frames a burst may run before an ack goes out
// even with more input buffered; between bursts the reader acks as soon
// as its buffer drains. Pipelining acks this way keeps the peer's outbox
// bounded without paying an ack frame per session frame.
const ackEvery = 64

// wipe discards all state, cursors and the snapshot file — the Welcome
// reset flag's order to rejoin as a blank worker.
func (w *Worker) wipe() {
	// Under snapMu so a concurrent Checkpoint either finishes before the
	// Remove (and its file is deleted with the rest of the old life) or
	// starts after the reset (and skips — nothing applied).
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	w.mu.Lock()
	w.streams = make(map[string]*workerStream)
	w.specs = make(map[int64]*workerSpec)
	w.applied = 0
	w.lastSnap = 0
	w.outBatch, w.outBatchN = nil, 0
	w.mu.Unlock()
	w.sess.restore(0, 0, nil)
	if w.opts.SnapshotDir != "" {
		snapshot.Remove(w.opts.SnapshotDir, w.opts.Index)
	}
}

// handle applies one session frame — a batch frame unpacks into its
// sub-frames, applied in order — and flushes whatever output the handlers
// staged as one batch frame. It reports whether the coordinator said Bye.
func (w *Worker) handle(f emitter.Frame) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.applied = f.Seq
	bye := false
	if f.Type == frameBatch {
		if err := forEachSubFrame(f.Payload, func(t byte, payload []byte) error {
			if w.handleSub(t, payload) {
				bye = true
			}
			return nil
		}); err != nil {
			w.noteErr("batch", err)
		}
	} else {
		bye = w.handleSub(f.Type, f.Payload)
	}
	w.flushOutLocked()
	return bye
}

// stageLocked queues one output sub-frame for the end-of-handle flush.
func (w *Worker) stageLocked(t byte, payload []byte) {
	w.outBatch = appendSubFrame(w.outBatch, t, payload)
	w.outBatchN++
}

// flushOutLocked ships the staged output sub-frames as one stamped batch
// frame. Exactly one flush per applied input frame: the output stays a
// pure function of the applied prefix (no worker-side flush timer to race
// a replay), and the coordinator pays one frame's framing and ack cost
// for a whole firing pass.
func (w *Worker) flushOutLocked() {
	if len(w.outBatch) == 0 {
		return
	}
	w.sess.send(frameBatch, w.outBatch)
	w.batchesOut++
	w.subOut += uint64(w.outBatchN)
	w.outBatch, w.outBatchN = nil, 0
}

// handleSub applies one (sub-)frame's payload under w.mu. It reports
// whether the frame was a Bye.
func (w *Worker) handleSub(ftype byte, payload []byte) bool {
	f := emitter.Frame{Type: ftype, Payload: payload}
	switch f.Type {
	case frameStream:
		m, err := unmarshalStream(f.Payload)
		if err != nil {
			w.noteErr("stream", err)
			return false
		}
		st := &workerStream{
			name: m.Name, schema: m.Schema, shards: m.Shards,
			times:  noTimes(m.Schema.Width()),
			locals: make(map[int]*workerShard),
		}
		for sh := m.Lo; sh < m.Hi; sh++ {
			st.locals[sh] = &workerShard{
				global: sh,
				bk:     basket.New(fmt.Sprintf("%s/%d@%s", m.Name, sh, w.opts.ID), m.Schema),
				cids:   make(map[int64]int),
				sls:    make(map[int64]*window.ShardSlicer),
				sentWm: make(map[int64]int64),
			}
			st.order = append(st.order, sh)
		}
		w.streams[m.Name] = st

	case frameSpec:
		m, err := unmarshalSpec(f.Payload)
		if err != nil {
			w.noteErr("spec", err)
			return false
		}
		if w.specs[m.ID] != nil {
			return false // already registered (defensive; specs broadcast once)
		}
		st := w.streams[m.Stream]
		if st == nil {
			w.noteErr("spec", fmt.Errorf("unknown stream %q", m.Stream))
			return false
		}
		sp := &workerSpec{id: m.ID, st: st, win: m.Win}
		for _, g := range st.order {
			ws := st.locals[g]
			ws.cids[sp.id] = ws.bk.Register()
			sl := window.NewShardSlicer(sp.win, st.schema)
			ws.sls[sp.id] = sl
			ws.sentWm[sp.id] = sl.Watermark()
		}
		w.specs[sp.id] = sp
		pos := len(st.specList)
		for pos > 0 && st.specList[pos-1].id > sp.id {
			pos--
		}
		st.specList = append(st.specList, nil)
		copy(st.specList[pos+1:], st.specList[pos:])
		st.specList[pos] = sp

	case frameSpecDrop:
		vals, err := unmarshalInt64s(f.Payload, 1)
		if err != nil {
			w.noteErr("spec-drop", err)
			return false
		}
		if sp := w.specs[vals[0]]; sp != nil {
			for _, g := range sp.st.order {
				ws := sp.st.locals[g]
				if cid, ok := ws.cids[sp.id]; ok {
					ws.bk.Unregister(cid)
					delete(ws.cids, sp.id)
				}
				delete(ws.sls, sp.id)
				delete(ws.sentWm, sp.id)
			}
			delete(w.specs, sp.id)
			for i, x := range sp.st.specList {
				if x == sp {
					sp.st.specList = append(sp.st.specList[:i], sp.st.specList[i+1:]...)
					break
				}
			}
		}

	case frameAppend:
		m, err := unmarshalAppend(f.Payload)
		if err != nil {
			w.noteErr("append", err)
			return false
		}
		st := w.streams[m.Stream]
		if st == nil {
			w.noteErr("append", fmt.Errorf("stream %q unknown here", m.Stream))
			return false
		}
		ws := st.locals[m.Shard]
		if ws == nil {
			w.noteErr("append", fmt.Errorf("stream %q shard %d not assigned here", m.Stream, m.Shard))
			return false
		}
		if err := ws.bk.AppendSeqs(m.Chunk, m.Arrival, m.Seqs); err != nil {
			w.noteErr("append", err)
			return false
		}

	case frameWatermark:
		m, err := unmarshalWatermark(f.Payload)
		if err != nil {
			w.noteErr("watermark", err)
			return false
		}
		st := w.streams[m.Stream]
		if st == nil {
			w.noteErr("watermark", fmt.Errorf("unknown stream %q", m.Stream))
			return false
		}
		st.settled = max(st.settled, m.Settled)
		for _, ct := range m.Times {
			if ct.Col < len(st.times) {
				st.times[ct.Col] = max(st.times[ct.Col], ct.Ts)
			}
		}
		// One firing pass: every spec of this stream drains its cursors,
		// slices, and flushes what the advanced watermarks seal.
		for _, sp := range st.specList {
			w.fireSpec(sp)
		}

	case framePing:
		if vals, err := unmarshalInt64s(f.Payload, 1); err == nil {
			// Staged after the fragments the firing above produced, so the
			// coordinator's barrier sees them applied first.
			w.stageLocked(framePong, marshalInt64s(vals[0]))
		}

	case frameShardExport:
		m, err := unmarshalShardRef(f.Payload)
		if err != nil {
			w.noteErr("shard-export", err)
			return false
		}
		st := w.streams[m.Stream]
		if st == nil || st.locals[m.Shard] == nil {
			w.noteErr("shard-export", fmt.Errorf("stream %q shard %d not owned here", m.Stream, m.Shard))
			return false
		}
		sh := w.exportShardLocked(st, st.locals[m.Shard])
		delete(st.locals, m.Shard)
		for i, g := range st.order {
			if g == m.Shard {
				st.order = append(st.order[:i], st.order[i+1:]...)
				break
			}
		}
		w.sess.send(frameShardState,
			marshalShardBlob(m.Stream, m.Shard, snapshot.AppendShardState(nil, &sh)))

	case frameShardInstall:
		m, err := unmarshalShardBlob(f.Payload)
		if err != nil {
			w.noteErr("shard-install", err)
			return false
		}
		st := w.streams[m.Stream]
		if st == nil {
			w.noteErr("shard-install", fmt.Errorf("unknown stream %q", m.Stream))
			return false
		}
		var sh snapshot.ShardState
		if _, err := snapshot.ReadShardState(m.State, &sh); err != nil {
			w.noteErr("shard-install", err)
			return false
		}
		if st.locals[sh.Global] != nil {
			return false // duplicate install (defensive)
		}
		w.installShardLocked(st, &sh)

	case frameBye:
		return true
	}
	return false
}

// noTimes is the event-time clock of a stream with no settled row yet:
// one math.MinInt64 per schema column.
func noTimes(width int) []int64 {
	ts := make([]int64, width)
	for i := range ts {
		ts[i] = math.MinInt64
	}
	return ts
}

// fireSpec is one firing of a spec across its local shards: drain each
// shard's cursor, slice, flush every epoch the current watermark seals,
// and ship fragments plus the advanced shard watermark. Shards with no
// new rows still ship their watermark advance — the coordinator's merger
// needs every shard's flush watermark to seal an epoch.
func (w *Worker) fireSpec(sp *workerSpec) {
	st := sp.st
	for _, g := range st.order {
		ws := st.locals[g]
		sl := ws.sls[sp.id]
		cid, ok := ws.cids[sp.id]
		if !ok || sl == nil {
			continue
		}
		ws.bk.ConsumeLeased(cid, sl.Push)
		var frags []*window.Frag
		if sp.win.Tuples {
			frags = sl.Flush(st.settled / sp.win.Slide)
		} else if ts := st.times[sp.win.TimeIdx]; ts != math.MinInt64 {
			frags = sl.Flush(sl.TimeGen(ts))
		}
		wm := sl.Watermark()
		if len(frags) == 0 && wm <= ws.sentWm[sp.id] {
			continue
		}
		ws.sentWm[sp.id] = wm
		for _, fr := range frags {
			fr.Shard = ws.global
		}
		w.stageLocked(frameFrag, marshalFragMsg(fragMsg{
			Spec: sp.id, Shard: ws.global, Wm: wm, Frags: frags,
		}))
	}
}

// exportShardLocked captures one shard's transferable state: the basket
// image plus every spec's cursor, shipped watermark and slicer. Chunks
// are views; encode before releasing anything that could rewrite them
// in place (callers encode synchronously or hold w.mu through marshal).
func (w *Worker) exportShardLocked(st *workerStream, ws *workerShard) snapshot.ShardState {
	sh := snapshot.ShardState{Global: ws.global, Basket: ws.bk.ExportState()}
	for _, sp := range st.specList {
		cid, ok := ws.cids[sp.id]
		if !ok {
			continue
		}
		cur, _ := ws.bk.Cursor(cid)
		sh.Specs = append(sh.Specs, snapshot.ShardSpecState{
			Spec:   sp.id,
			Cursor: cur,
			SentWm: ws.sentWm[sp.id],
			Slicer: ws.sls[sp.id].ExportState(),
		})
	}
	return sh
}

// installShardLocked rebuilds a shard from decoded state and inserts it
// into the stream. Specs present in the state but since dropped are
// skipped; specs added since the state was exported get fresh slicers
// starting at the basket's end (no routed rows for the shard can have
// flowed in between — the coordinator queues them during the move).
func (w *Worker) installShardLocked(st *workerStream, sh *snapshot.ShardState) {
	ws := &workerShard{
		global: sh.Global,
		bk: basket.NewFromState(
			fmt.Sprintf("%s/%d@%s", st.name, sh.Global, w.opts.ID), st.schema, sh.Basket),
		cids:   make(map[int64]int),
		sls:    make(map[int64]*window.ShardSlicer),
		sentWm: make(map[int64]int64),
	}
	seen := make(map[int64]bool, len(sh.Specs))
	for _, sp := range sh.Specs {
		spec := w.specs[sp.Spec]
		if spec == nil || spec.st != st {
			continue // spec dropped while the state was in flight
		}
		ws.cids[sp.Spec] = ws.bk.RegisterAt(sp.Cursor)
		ws.sls[sp.Spec] = window.NewShardSlicerFromState(spec.win, st.schema, sp.Slicer)
		ws.sentWm[sp.Spec] = sp.SentWm
		seen[sp.Spec] = true
	}
	for _, spec := range st.specList {
		if seen[spec.id] {
			continue
		}
		ws.cids[spec.id] = ws.bk.Register()
		sl := window.NewShardSlicer(spec.win, st.schema)
		ws.sls[spec.id] = sl
		ws.sentWm[spec.id] = sl.Watermark()
	}
	st.locals[sh.Global] = ws
	pos := len(st.order)
	for pos > 0 && st.order[pos-1] > sh.Global {
		pos--
	}
	st.order = append(st.order, 0)
	copy(st.order[pos+1:], st.order[pos:])
	st.order[pos] = sh.Global
}

// captureLocked assembles the worker's full checkpoint. Basket and slicer
// chunks in the result are views — stable against concurrent in-place
// appends — so the (possibly large) encode can run off the handler path.
func (w *Worker) captureLocked() *snapshot.Snapshot {
	snap := &snapshot.Snapshot{Index: w.opts.Index, RxSeq: w.applied}
	snap.TxSeq, snap.Outbox = w.sess.exportState()
	names := make([]string, 0, len(w.streams))
	for n := range w.streams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := w.streams[n]
		ss := snapshot.StreamState{
			Name: st.name, Schema: st.schema, Shards: st.shards,
			Settled: st.settled, Times: append([]int64(nil), st.times...),
		}
		for _, sp := range st.specList {
			ss.Specs = append(ss.Specs, snapshot.SpecState{ID: sp.id, Win: sp.win})
		}
		for _, g := range st.order {
			ss.Locals = append(ss.Locals, w.exportShardLocked(st, st.locals[g]))
		}
		snap.Streams = append(snap.Streams, ss)
	}
	return snap
}

// restoreSnapshot rebuilds the worker from a decoded checkpoint (called
// before any goroutine starts).
func (w *Worker) restoreSnapshot(snap *snapshot.Snapshot) {
	w.mu.Lock()
	for i := range snap.Streams {
		ss := &snap.Streams[i]
		st := &workerStream{
			name: ss.Name, schema: ss.Schema, shards: ss.Shards, settled: ss.Settled,
			times:  noTimes(ss.Schema.Width()),
			locals: make(map[int]*workerShard),
		}
		copy(st.times, ss.Times)
		w.streams[st.name] = st
		for _, sp := range ss.Specs {
			spec := &workerSpec{id: sp.ID, st: st, win: sp.Win}
			w.specs[spec.id] = spec
			st.specList = append(st.specList, spec) // snapshot order is id order
		}
		for j := range ss.Locals {
			w.installShardLocked(st, &ss.Locals[j])
		}
	}
	w.applied = snap.RxSeq
	w.lastSnap = snap.RxSeq
	// The restored snapshot is durable as of this load.
	w.lastSnapAt = time.Now().UnixMicro()
	w.mu.Unlock()
	w.sess.restore(snap.TxSeq, snap.RxSeq, snap.Outbox)
}

// Checkpoint writes one durable snapshot now and tells the coordinator
// the new retention floor. It is the periodic snapLoop body, exported so
// tests (and an orderly Close) can force a checkpoint at a chosen point.
// No-op without a snapshot directory.
func (w *Worker) Checkpoint() error {
	if w.opts.SnapshotDir == "" {
		return nil
	}
	// One checkpoint at a time, held through the Save: concurrent invokers
	// (snapLoop tick vs Close) must not let an older capture land on disk
	// after a newer one — see snapMu.
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	w.mu.Lock()
	if w.applied <= w.lastSnap {
		// Nothing applied since the last durable checkpoint: saving would
		// rewrite an identical-cursor snapshot (and at startup, an empty
		// one). Skipping keeps the on-disk cursor strictly increasing.
		w.mu.Unlock()
		return nil
	}
	snap := w.captureLocked()
	w.mu.Unlock()
	// Encode and persist off the handler path: the views inside snap stay
	// valid while frames keep applying.
	if err := snapshot.Save(w.opts.SnapshotDir, w.opts.Index, snapshot.Encode(nil, snap)); err != nil {
		w.mu.Lock()
		w.noteErr("snapshot", err)
		w.mu.Unlock()
		return err
	}
	w.mu.Lock()
	w.lastSnap = snap.RxSeq
	w.lastSnapAt = time.Now().UnixMicro()
	w.mu.Unlock()
	// The snap-ack is a control frame: only after the rename is durable
	// may the coordinator prune, and an unstamped frame keeps the
	// transmit sequence a pure function of the applied input.
	w.sess.sendCtl(emitter.Frame{Type: frameSnapAck, Seq: snap.RxSeq})
	return nil
}

// snapLoop checkpoints periodically until the worker retires.
func (w *Worker) snapLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.opts.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
			_ = w.Checkpoint()
		}
	}
}

// Describe renders the worker state (cmd/dcworker's status line).
func (w *Worker) Describe() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return fmt.Sprintf("fabric worker %s index=%d coordinator=%s connected=%v streams=%d specs=%d applied=%d snap_cursor=%d frame_errs=%d",
		w.opts.ID, w.opts.Index, w.opts.Coordinator, w.sess.connected(),
		len(w.streams), len(w.specs), w.applied, w.lastSnap, w.frameErrs)
}
