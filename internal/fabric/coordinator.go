package fabric

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"datacell"
	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/emitter"
	"datacell/internal/plan"
	"datacell/internal/window"
)

// Options configures a Coordinator.
type Options struct {
	// Listen is the TCP address workers dial (default "127.0.0.1:0").
	Listen string
	// Workers is the fixed worker count; each exported stream's shard set
	// is initially partitioned into contiguous ranges across them by
	// worker index (Reassign moves individual shards afterwards).
	Workers int
	// FlushBytes caps the append bytes a worker lane stages before it
	// flushes a batch frame (default 64 KiB).
	FlushBytes int
	// FlushDelay bounds how long a dirty lane waits for more traffic
	// before flushing (default 2ms) — the worst-case added latency between
	// an append and the watermark that lets workers seal it.
	FlushDelay time.Duration
}

// Coordinator is the fabric's engine-side half: it owns the exported
// streams' routing (partition + sequence-stamp appends, forward each
// shard's rows to its owning worker, broadcast sealing watermarks),
// receives the workers' sealed epoch fragments, and feeds them into the
// engine's query groups. It implements datacell.Fabric and attaches
// itself to the engine at construction.
//
// Worker loss is invisible: every worker session retains its outbound
// frames as a replay log bounded below by the worker's durable snapshot
// cursor, so a restarted worker — resuming from its snapshot, or from
// nothing — replays the delta and regenerates its state exactly
// (docs/RECOVERY.md). There is no reset path; recovery is always
// restore-and-replay.
type Coordinator struct {
	eng   *datacell.Engine
	ln    net.Listener
	wg    sync.WaitGroup
	peers []*peer
	lanes []*lane
	opts  Options

	// wireBytes / wirePlainBytes accumulate the encoded append payload
	// bytes actually staged versus what the plain (v1) chunk layout would
	// have cost — the wire-encoding savings gauge. Guarded by wireMu.
	wireMu         sync.Mutex
	wireBytes      uint64
	wirePlainBytes uint64

	mu      sync.Mutex
	streams map[string]*coordStream
	specs   map[int64]*coordSpec
	specSeq int64
	pings   map[int64]map[int]bool // nonce → worker indices still owing a pong
	pingSeq int64
	pingC   *sync.Cond
	closed  bool
	doneC   chan struct{} // closed by Close; unblocks waiters (Reassign)
}

// peer is the coordinator's view of one worker slot. The session (and its
// replay log) persists across the worker's connections and processes.
type peer struct {
	idx  int
	sess *session

	mu sync.Mutex
	id string // last Hello's self-reported id
}

// Lane flush causes (counters on /metrics).
const (
	flushCauseSize = iota
	flushCauseDelay
	flushCauseBarrier
)

// lane is one worker's staging buffer on the ingest path: routed append
// payloads coalesce here as sub-frames and ship as a single batch frame
// when the buffer crosses FlushBytes, when the FlushDelay timer fires, or
// when a control event needs a barrier. The watermark for every stream
// the lane is dirty on rides at the tail of each batch — one watermark
// per flush window instead of one broadcast per append.
type lane struct {
	c *Coordinator
	p *peer

	mu    sync.Mutex
	buf   []byte // concatenated append sub-frames
	n     int
	dirty map[*coordStream]struct{}
	timer *time.Timer
	armed bool

	// Counters (guarded by mu).
	batches, subFrames, bytesOut        uint64
	flushSize, flushDelay, flushBarrier uint64
}

// enqueue stages one append sub-frame and reports whether the lane
// crossed its size threshold — the caller flushes after releasing the
// routing mutex, because flush acquires locks ordered above it.
func (l *lane) enqueue(cs *coordStream, payload []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = appendSubFrame(l.buf, frameAppend, payload)
	l.n++
	l.dirty[cs] = struct{}{}
	l.armLocked()
	return len(l.buf) >= l.c.opts.FlushBytes
}

// markDirty notes that the stream's sealing clocks advanced (an append
// settled, or time advanced): the next flush (armed here if need be)
// carries a watermark sub-frame even if no appends staged for this lane —
// every worker's shards must observe the advance or the group's
// min-watermark merge stalls.
func (l *lane) markDirty(cs *coordStream) {
	l.mu.Lock()
	l.dirty[cs] = struct{}{}
	l.armLocked()
	l.mu.Unlock()
}

func (l *lane) armLocked() {
	if l.armed {
		return
	}
	l.armed = true
	if l.timer == nil {
		l.timer = time.AfterFunc(l.c.opts.FlushDelay, func() { l.flush(flushCauseDelay) })
	} else {
		l.timer.Reset(l.c.opts.FlushDelay)
	}
}

// flush ships the staged sub-frames plus one watermark sub-frame per
// dirty stream as a single batch frame. The watermarks are read while the
// lane is locked: the container settles a range only after route has
// enqueued its rows (to this or another lane), so a watermark built here
// can never cover a row this lane would only flush later — rows always
// precede, within this batch or an earlier one, the watermark that seals
// them.
func (l *lane) flush(cause int) {
	l.mu.Lock()
	l.armed = false
	if l.n == 0 && len(l.dirty) == 0 {
		l.mu.Unlock()
		return
	}
	subs := l.n
	for cs := range l.dirty {
		l.buf = appendSubFrame(l.buf, frameWatermark, l.c.watermarkPayload(cs))
		delete(l.dirty, cs)
		subs++
	}
	buf := l.buf
	l.buf, l.n = nil, 0
	l.batches++
	l.subFrames += uint64(subs)
	l.bytesOut += uint64(len(buf))
	switch cause {
	case flushCauseSize:
		l.flushSize++
	case flushCauseDelay:
		l.flushDelay++
	default:
		l.flushBarrier++
	}
	l.p.sess.send(frameBatch, buf)
	l.mu.Unlock()
}

// flushLanes barriers every lane: control events (spec changes, drains,
// moves, shutdown) must order after all staged appends on every session.
func (c *Coordinator) flushLanes() {
	for _, l := range c.lanes {
		l.flush(flushCauseBarrier)
	}
}

// coordStream is one exported stream's routing state. Its mutex serializes
// appends, spec changes and shard moves, so every worker observes them at
// one consistent append boundary. The sealing clocks are the exported
// container's own (Settled, SettledTime), which lane flushes — off the
// routing path, on timers — read while holding only their lane's lock.
// Lock order: cs.mu → lane.mu → container mutex; cs.specMu → sp.mu.
type coordStream struct {
	name   string
	schema bat.Schema
	shards int
	bk     *basket.Sharded

	mu     sync.Mutex
	owner  []int // per-shard owning worker index
	moving map[int]*shardMove

	specMu sync.RWMutex
	specs  map[int64]*coordSpec
}

// shardMove is one in-flight Reassign: appends routed to the shard are
// queued here between the export request and the state's arrival, then
// flushed to the new owner right after the install frame.
type shardMove struct {
	to     int
	queued [][]byte // marshaled frameAppend payloads, in routing order
	done   chan struct{}
}

// coordSpec is one query group's slicing spec.
type coordSpec struct {
	id  int64
	key string
	cs  *coordStream
	win *plan.Window

	mu sync.Mutex
	// offer feeds worker fragments into the consuming group side's
	// merger; nil until Attach.
	offer   func(shard int, frags []*window.Frag, wm int64)
	applied []int64 // per-shard applied flush watermark (introspection)
}

const minInt64 = -1 << 63

// NewCoordinator starts a fabric coordinator over an engine and attaches
// itself as the engine's fabric.
func NewCoordinator(eng *datacell.Engine, opts Options) (*Coordinator, error) {
	if opts.Workers <= 0 {
		return nil, fmt.Errorf("fabric: coordinator needs at least one worker slot")
	}
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = 64 << 10
	}
	if opts.FlushDelay <= 0 {
		opts.FlushDelay = 2 * time.Millisecond
	}
	addr := opts.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		eng:     eng,
		ln:      ln,
		opts:    opts,
		streams: make(map[string]*coordStream),
		specs:   make(map[int64]*coordSpec),
		pings:   make(map[int64]map[int]bool),
		doneC:   make(chan struct{}),
	}
	c.pingC = sync.NewCond(&c.mu)
	for i := 0; i < opts.Workers; i++ {
		p := &peer{idx: i, sess: newSession(true)}
		c.peers = append(c.peers, p)
		c.lanes = append(c.lanes, &lane{c: c, p: p, dirty: make(map[*coordStream]struct{})})
	}
	eng.AttachFabric(c)
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr reports the address workers should dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Workers reports the worker slot count.
func (c *Coordinator) Workers() int { return len(c.peers) }

// ExportStream hands a stream's shard set to the fabric: shards are
// assigned to the workers, the stream is tagged (the tag becomes part of
// every group key over it), and subsequent appends route to the workers
// instead of local baskets. Export before any query registers on the
// stream and before data flows.
func (c *Coordinator) ExportStream(name string) error {
	st, ok := c.eng.Stream(name)
	if !ok {
		return fmt.Errorf("fabric: unknown stream %q", name)
	}
	if st.Basket.Consumers() > 0 {
		return fmt.Errorf("fabric: stream %q already has local consumers; export before registering queries", name)
	}
	if st.Basket.Stats().TotalIn > 0 {
		return fmt.Errorf("fabric: stream %q already holds local rows; export before appending", name)
	}
	shards := st.Basket.NumShards()
	w := len(c.peers)
	cs := &coordStream{
		name:   name,
		schema: st.Schema(),
		shards: shards,
		bk:     st.Basket,
		owner:  make([]int, shards),
		moving: make(map[int]*shardMove),
		specs:  make(map[int64]*coordSpec),
	}
	ranges := make([][2]int, w)
	tags := make([]string, w)
	for i := 0; i < w; i++ {
		lo, hi := i*shards/w, (i+1)*shards/w
		ranges[i] = [2]int{lo, hi}
		for sh := lo; sh < hi; sh++ {
			cs.owner[sh] = i
		}
		tags[i] = fmt.Sprintf("w%d:%d-%d", i, lo, hi)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("fabric: coordinator closed")
	}
	if _, dup := c.streams[name]; dup {
		c.mu.Unlock()
		return fmt.Errorf("fabric: stream %q already exported", name)
	}
	c.streams[name] = cs
	c.mu.Unlock()

	st.MarkRemote("fabric[" + strings.Join(tags, ",") + "]")
	cs.mu.Lock()
	for i, p := range c.peers {
		p.sess.send(frameStream, marshalStream(streamMsg{
			Name: name, Schema: cs.schema, Shards: shards,
			Lo: ranges[i][0], Hi: ranges[i][1],
		}))
	}
	cs.mu.Unlock()
	st.Basket.SetRemote(func(parts []basket.RemotePart, _ int64, _ int, arrival int64) {
		c.route(cs, parts, arrival)
	})
	// The container settles a range only after route has staged it, and
	// notifies its subscribers after every settle and time advance: every
	// lane then ships the advanced clocks at its next flush. Workers whose
	// shards saw no rows still must observe them, or the group's
	// min-watermark merge would wait on them forever.
	st.Basket.OnAppend(func() {
		for _, l := range c.lanes {
			l.markDirty(cs)
		}
	})
	return nil
}

// route stages one sequenced append onto the owning workers' lanes. It
// runs under the stream's routing mutex so concurrent appends reach every
// lane in one consistent order; the watermark itself is NOT broadcast
// here — lanes carry the container's clocks at flush, amortizing what
// would be a per-append broadcast to every worker.
func (c *Coordinator) route(cs *coordStream, parts []basket.RemotePart, arrival int64) {
	var sizeFlush []*lane
	var wireB, plainB uint64
	cs.mu.Lock()
	for _, p := range parts {
		payload := marshalAppend(appendMsg{
			Stream: cs.name, Shard: p.Shard, Arrival: arrival,
			Seqs: p.Seqs, Chunk: p.Chunk,
		})
		wireB += uint64(len(payload))
		plainB += uint64(bat.ChunkPlainSize(p.Chunk) + 8*len(p.Seqs))
		if mv := cs.moving[p.Shard]; mv != nil {
			// Shard in transit: hold the append until the new owner has
			// installed the shipped state, preserving per-shard order.
			mv.queued = append(mv.queued, payload)
			continue
		}
		l := c.lanes[cs.owner[p.Shard]]
		if l.enqueue(cs, payload) {
			sizeFlush = append(sizeFlush, l)
		}
	}
	cs.mu.Unlock()

	c.wireMu.Lock()
	c.wireBytes += wireB
	c.wirePlainBytes += plainB
	c.wireMu.Unlock()
	for _, l := range sizeFlush {
		l.flush(flushCauseSize)
	}
}

// watermarkPayload builds the stream's current sealing clocks from the
// exported container: the settled sequence watermark plus the settled
// event time of each TIMESTAMP column that has one. Safe without the
// routing mutex — lane flushes call it from timers.
func (c *Coordinator) watermarkPayload(cs *coordStream) []byte {
	wm := watermarkMsg{Stream: cs.name, Settled: cs.bk.Settled()}
	for col, k := range cs.schema.Kinds {
		if k != bat.Time {
			continue
		}
		if ts := cs.bk.SettledTime(col); ts != minInt64 {
			wm.Times = append(wm.Times, colTime{Col: col, Ts: ts})
		}
	}
	return marshalWatermark(wm)
}

// Reassign moves one shard of an exported stream to another worker: the
// owner drains and exports the shard's state, appends routed meanwhile
// queue at the coordinator, and the new owner installs state, queued
// appends and the current watermark in order. Blocks until the handoff
// completes (the state frame arrives and the install is queued to the new
// owner) — callers wanting the install *applied* follow with Drain.
//
// Like Drain, Reassign waits out worker loss rather than failing: a dead
// owner holds its export frame in the retained session and answers it
// after recovery replay, so the move is delayed, never lost — a timeout
// here could only misreport a handoff that later completes (ownership
// would still flip when the state arrived, with routed appends queued
// against it in the meantime). The only abort is coordinator Close.
func (c *Coordinator) Reassign(stream string, shard, worker int) error {
	if worker < 0 || worker >= len(c.peers) {
		return fmt.Errorf("fabric: no worker slot %d", worker)
	}
	c.mu.Lock()
	cs := c.streams[stream]
	c.mu.Unlock()
	if cs == nil {
		return fmt.Errorf("fabric: stream %q not exported", stream)
	}
	if shard < 0 || shard >= cs.shards {
		return fmt.Errorf("fabric: stream %q has no shard %d", stream, shard)
	}
	cs.mu.Lock()
	if cs.owner[shard] == worker {
		cs.mu.Unlock()
		return nil
	}
	if cs.moving[shard] != nil {
		cs.mu.Unlock()
		return fmt.Errorf("fabric: stream %q shard %d already moving", stream, shard)
	}
	// Barrier: the owner must receive every append staged for the shard
	// before the export request, or the drain would miss rows.
	c.flushLanes()
	mv := &shardMove{to: worker, done: make(chan struct{})}
	cs.moving[shard] = mv
	c.peers[cs.owner[shard]].sess.send(frameShardExport, marshalShardRef(stream, shard))
	cs.mu.Unlock()

	select {
	case <-mv.done:
		return nil
	case <-c.doneC:
		// Closed mid-move: nothing can arrive on the dead sessions, so the
		// move is genuinely over, not merely slow.
		select {
		case <-mv.done:
			return nil
		default:
		}
		return fmt.Errorf("fabric: coordinator closed during stream %q shard %d handoff", stream, shard)
	}
}

// finishMove completes a Reassign when the exported shard state arrives:
// flip ownership, then install + queued appends + current watermark to
// the new owner, in session order.
func (c *Coordinator) finishMove(m shardBlobMsg) {
	c.mu.Lock()
	cs := c.streams[m.Stream]
	c.mu.Unlock()
	if cs == nil || m.Shard < 0 || m.Shard >= cs.shards {
		return
	}
	cs.mu.Lock()
	mv := cs.moving[m.Shard]
	if mv == nil {
		cs.mu.Unlock()
		return
	}
	delete(cs.moving, m.Shard)
	cs.owner[m.Shard] = mv.to
	// Barrier: the trailing watermark below may cover rows staged on the
	// new owner's lane for its other shards — they must precede it.
	c.flushLanes()
	sess := c.peers[mv.to].sess
	// The state bytes are forwarded verbatim — the coordinator relays,
	// it does not re-marshal.
	sess.send(frameShardInstall, marshalShardBlob(m.Stream, m.Shard, m.State))
	for _, payload := range mv.queued {
		sess.send(frameAppend, payload)
	}
	sess.send(frameWatermark, c.watermarkPayload(cs))
	cs.mu.Unlock()
	close(mv.done)
}

// AddSpec implements datacell.Fabric: a query group forming over an
// exported stream registers the slide granularity its workers must cut at.
// The scan schema must match the exported stream's — workers slice the raw
// stream layout, so a divergent scan schema would silently decode garbage.
func (c *Coordinator) AddSpec(stream, key string, win *plan.Window, schema bat.Schema) (*datacell.FabricSpec, error) {
	c.mu.Lock()
	cs, ok := c.streams[stream]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("fabric: stream %q not exported", stream)
	}
	if schema.String() != cs.schema.String() {
		c.mu.Unlock()
		return nil, fmt.Errorf("fabric: spec schema (%s) does not match exported stream %q (%s)",
			schema, stream, cs.schema)
	}
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("fabric: coordinator closed")
	}
	c.specSeq++
	sp := &coordSpec{
		id: c.specSeq, key: key, cs: cs, win: win,
		applied: make([]int64, cs.shards),
	}
	for i := range sp.applied {
		sp.applied[i] = minInt64
	}
	c.specs[sp.id] = sp
	c.mu.Unlock()

	return &datacell.FabricSpec{
		Shards: cs.shards,
		Attach: func(offer func(int, []*window.Frag, int64)) { c.attachSpec(sp, offer) },
		Drop:   func() { c.dropSpec(sp) },
	}, nil
}

// attachSpec arms a spec: the group is wired to receive fragments and the
// spec is broadcast, ordered against the stream's appends so every worker
// starts slicing at the same append boundary. Every worker gets every
// spec — shards move between workers (Reassign), so there is no such
// thing as a worker a stream's specs cannot concern.
func (c *Coordinator) attachSpec(sp *coordSpec, offer func(int, []*window.Frag, int64)) {
	sp.mu.Lock()
	sp.offer = offer
	sp.mu.Unlock()
	cs := sp.cs
	cs.mu.Lock()
	// Barrier: every worker must start slicing at the same append
	// boundary — staged rows must precede the spec on every session, or
	// workers would register their consumers around different prefixes.
	c.flushLanes()
	cs.specMu.Lock()
	cs.specs[sp.id] = sp
	cs.specMu.Unlock()
	payload := specPayload(sp)
	for _, p := range c.peers {
		p.sess.send(frameSpec, payload)
	}
	cs.mu.Unlock()
}

// dropSpec retires a spec on teardown of its query group.
func (c *Coordinator) dropSpec(sp *coordSpec) {
	cs := sp.cs
	cs.mu.Lock()
	c.flushLanes()
	cs.specMu.Lock()
	delete(cs.specs, sp.id)
	cs.specMu.Unlock()
	payload := marshalInt64s(sp.id)
	for _, p := range c.peers {
		p.sess.send(frameSpecDrop, payload)
	}
	cs.mu.Unlock()
	c.mu.Lock()
	delete(c.specs, sp.id)
	c.mu.Unlock()
}

// Drain is the fabric-wide synchronization barrier: it pings every worker,
// waits until each has replied — sessions are FIFO, so by then every
// fragment for previously routed appends has been received and applied —
// and then drains the engine's scheduler for the member tails. Blocks
// until every worker (re)connects and catches up. Pings live in the
// retained outbox like any session frame, so a worker that dies holding
// one answers it after recovery replay.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.pingSeq++
	nonce := c.pingSeq
	owing := make(map[int]bool, len(c.peers))
	for _, p := range c.peers {
		owing[p.idx] = true
	}
	c.pings[nonce] = owing
	c.mu.Unlock()
	// Barrier: every staged append (and its sealing watermark) must
	// precede the ping on each session, so a pong certifies the worker has
	// applied — and fired on — everything routed before the drain.
	c.flushLanes()
	payload := marshalInt64s(nonce)
	for _, p := range c.peers {
		p.sess.send(framePing, payload)
	}
	c.mu.Lock()
	for len(c.pings[nonce]) > 0 && !c.closed {
		c.pingC.Wait()
	}
	delete(c.pings, nonce)
	c.mu.Unlock()
	c.eng.Drain()
}

// Close shuts the fabric down: Bye is broadcast (workers exit their dial
// loops), queued frames get a bounded flush, and the listener and all
// sessions close.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.doneC)
	c.pingC.Broadcast()
	c.flushLanes()
	for _, l := range c.lanes {
		l.mu.Lock()
		if l.timer != nil {
			l.timer.Stop()
		}
		l.mu.Unlock()
	}
	for _, p := range c.peers {
		p.sess.send(frameBye, nil)
	}
	for _, p := range c.peers {
		p.sess.flushWait(2 * time.Second)
		p.sess.close()
	}
	_ = c.ln.Close()
	c.wg.Wait()
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go c.handleConn(conn)
	}
}

// handleConn runs one worker connection: Hello handshake, session
// reattach + replay, then the frame loop applying fragments, shard-state
// deliveries and barrier replies.
func (c *Coordinator) handleConn(conn net.Conn) {
	defer c.wg.Done()
	br := bufio.NewReaderSize(conn, 64<<10)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := emitter.ReadFrame(br)
	if err != nil || f.Type != frameHello {
		_ = conn.Close()
		return
	}
	hello, err := unmarshalHello(f.Payload)
	if err != nil || hello.Version != protoVersion ||
		hello.Index < 0 || hello.Index >= len(c.peers) {
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	p := c.peers[hello.Index]
	p.mu.Lock()
	p.id = hello.ID
	p.mu.Unlock()
	if f.Seq > p.sess.sentSeq() {
		// The worker claims frames this coordinator never sent: its
		// cursors (snapshot included) are from another coordinator life.
		// Tell it to wipe and rejoin fresh — attaching would desynchronize
		// both streams.
		_ = emitter.WriteFrame(conn, emitter.Frame{
			Type: frameWelcome, Seq: p.sess.cursor(), Payload: []byte{welcomeReset}})
		_ = conn.Close()
		return
	}
	if hello.Snap > 0 {
		// The Hello's durable cursor doubles as a snap-ack (the ack frame
		// for the last checkpoint may have died with the old connection).
		p.sess.advanceSnap(hello.Snap)
	}
	// Welcome carries the coordinator's receive cursor so the worker can
	// prune and replay; it is queued ahead of the replayed session frames.
	welcome := emitter.Frame{Type: frameWelcome, Seq: p.sess.cursor()}
	p.sess.attach(conn, f.Seq, &welcome)

	// lastAck is the cursor of the last ack written on THIS connection —
	// connection-scoped like the acks themselves (a reconnect resyncs via
	// the handshake, so starting over at 0 is correct). Acks are
	// pipelined: one per drained read buffer (or every ackEvery frames
	// within a burst), never one per frame — during a replay one ack at
	// the cursor covers every duplicate at or below it.
	var lastAck uint64
	for {
		f, err := emitter.ReadFrame(br)
		if err != nil {
			p.sess.detach(conn)
			return
		}
		switch f.Type {
		case frameAck:
			p.sess.onAck(f.Seq)
			continue
		case frameSnapAck:
			p.sess.advanceSnap(f.Seq)
			continue
		}
		if fresh, gap := p.sess.accept(f.Seq); gap {
			p.sess.detach(conn)
			return
		} else if fresh {
			c.applyPeerFrame(p, f.Type, f.Payload)
		}
		if cur := p.sess.cursor(); cur > lastAck && (br.Buffered() == 0 || cur-lastAck >= ackEvery) {
			lastAck = cur
			p.sess.sendCtl(emitter.Frame{Type: frameAck, Seq: cur})
		}
	}
}

// applyPeerFrame dispatches one worker frame's payload; batch frames
// unpack into their sub-frames, applied in order.
func (c *Coordinator) applyPeerFrame(p *peer, ftype byte, payload []byte) {
	switch ftype {
	case frameBatch:
		_ = forEachSubFrame(payload, func(st byte, sub []byte) error {
			c.applyPeerFrame(p, st, sub)
			return nil
		})
	case frameFrag:
		if m, err := unmarshalFragMsg(payload); err == nil {
			c.applyFrag(m)
		}
	case frameShardState:
		if m, err := unmarshalShardBlob(payload); err == nil {
			c.finishMove(m)
		}
	case framePong:
		if vals, err := unmarshalInt64s(payload, 1); err == nil {
			c.mu.Lock()
			if owing, ok := c.pings[vals[0]]; ok {
				delete(owing, p.idx)
			}
			c.mu.Unlock()
			c.pingC.Broadcast()
		}
	}
}

// specPayload marshals one spec's broadcast frame.
func specPayload(sp *coordSpec) []byte {
	return marshalSpec(specMsg{ID: sp.id, Stream: sp.cs.name, Win: sp.win})
}

// applyFrag feeds one worker delivery into its query group's merger.
func (c *Coordinator) applyFrag(m fragMsg) {
	c.mu.Lock()
	sp := c.specs[m.Spec]
	c.mu.Unlock()
	if sp == nil || m.Shard < 0 || m.Shard >= sp.cs.shards {
		return // dropped spec or confused peer: ignore
	}
	sp.mu.Lock()
	offer := sp.offer
	if m.Wm > sp.applied[m.Shard] {
		sp.applied[m.Shard] = m.Wm
	}
	sp.mu.Unlock()
	if offer == nil {
		return
	}
	offer(m.Shard, m.Frags, m.Wm)
}

// ownerRuns renders a per-shard owner assignment as maximal contiguous
// runs ("w0:0-2 w1:2-4"; after reassignments a worker may appear more
// than once).
func ownerRuns(owner []int) string {
	var runs []string
	for lo := 0; lo < len(owner); {
		hi := lo + 1
		for hi < len(owner) && owner[hi] == owner[lo] {
			hi++
		}
		runs = append(runs, fmt.Sprintf("w%d:%d-%d", owner[lo], lo, hi))
		lo = hi
	}
	return strings.Join(runs, " ")
}

// Describe implements datacell.Fabric: the \fabric introspection pane.
// The retained/snap_cursor pair is the replay-log retention gauge: how
// many frames the coordinator holds for the worker, and the durable
// cursor below which it has garbage-collected.
func (c *Coordinator) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fabric coordinator addr=%s workers=%d\n", c.Addr(), len(c.peers))
	for _, p := range c.peers {
		p.mu.Lock()
		id := p.id
		p.mu.Unlock()
		if id == "" {
			id = "-"
		}
		p.sess.mu.Lock()
		fmt.Fprintf(&b, "  worker %d id=%-12s connected=%-5v frames_out=%-8d frames_in=%-8d retained=%-6d snap_cursor=%-8d reconnects=%d\n",
			p.idx, id, p.sess.conn != nil, p.sess.framesOut, p.sess.framesIn,
			len(p.sess.outbox), p.sess.snapAcked, p.sess.reconnects)
		p.sess.mu.Unlock()
	}
	c.mu.Lock()
	names := make([]string, 0, len(c.streams))
	for n := range c.streams {
		names = append(names, n)
	}
	sort.Strings(names)
	specs := make([]*coordSpec, 0, len(c.specs))
	for _, sp := range c.specs {
		specs = append(specs, sp)
	}
	c.mu.Unlock()
	sort.Slice(specs, func(i, j int) bool { return specs[i].id < specs[j].id })
	for _, n := range names {
		c.mu.Lock()
		cs := c.streams[n]
		c.mu.Unlock()
		cs.mu.Lock()
		ranges := ownerRuns(cs.owner)
		moving := len(cs.moving)
		cs.mu.Unlock()
		settled := cs.bk.Settled()
		fmt.Fprintf(&b, "  stream %s shards=%d ranges=[%s] routed_settled=%d", n, cs.shards, ranges, settled)
		if moving > 0 {
			fmt.Fprintf(&b, " moving=%d", moving)
		}
		b.WriteByte('\n')
	}
	for _, sp := range specs {
		sp.mu.Lock()
		applied := make([]string, len(sp.applied))
		for i, wm := range sp.applied {
			if wm == minInt64 {
				applied[i] = "-"
			} else {
				applied[i] = fmt.Sprint(wm)
			}
		}
		sp.mu.Unlock()
		fmt.Fprintf(&b, "  spec %d stream=%s key=%s applied_wm=[%s]\n",
			sp.id, sp.cs.name, sp.key, strings.Join(applied, " "))
	}
	return strings.TrimRight(b.String(), "\n")
}
