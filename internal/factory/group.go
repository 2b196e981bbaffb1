package factory

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/plan"
	"datacell/internal/window"
)

// SharedGroup is the engine-facing contract of a shared execution group —
// the single-stream Group and the two-stream JoinGroup. Both drain,
// sequence and slice their stream(s) once for all member queries, fan
// sealed basic windows out as refcounted immutable views, and evaluate
// common member sub-tails once per window through a shared operator DAG.
type SharedGroup interface {
	// Key is the group key (plan.GroupKey / plan.JoinGroupKey).
	Key() string
	// Kind is "scan" for single-stream groups, "join" for stream pairs.
	Kind() string
	// SchedGroup is the instance-unique scheduler group of the shared
	// shard transitions.
	SchedGroup() string
	// Members reports the current member count.
	Members() int
	// Shards reports the total shared shard transitions (across sides).
	Shards() int
	// WindowsOut counts basic windows fanned out (across sides).
	WindowsOut() int64
	// LiveBufs counts sealed window buffers still referenced by a member.
	LiveBufs() int64
	// DagNodes reports distinct operator nodes in the shared DAG(s).
	DagNodes() int
	// MemoHits / MemoMisses are the DAG memo counters: hits are operator
	// evaluations served from a sibling's memoized output.
	MemoHits() int64
	MemoMisses() int64
	// MergeStats reports the group-owned merge rings: active merge
	// classes (two or more members holding byte-identical full-window
	// merged views — plan.MergeKey for single-stream groups,
	// plan.JoinMergeKey for join groups), merged-view requests served
	// from a sibling's evaluation (hits), and actual merge evaluations
	// (misses).
	MergeStats() (classes int, hits, misses int64)
	// PostStats reports the post-merge trie: distinct post-merge fragment
	// nodes (HAVING filters, final aggregates, sorts, limits) registered
	// across members, and the trie's memo hit/miss counters. Both group
	// kinds share post fragments — join groups root theirs at the merged
	// join view.
	PostStats() (nodes int, hits, misses int64)
	// PairStats reports the group-level join pair caches: distinct caches
	// (one per join fingerprint), live cached pairs, and pair evaluations
	// ever computed. Zero for single-stream groups.
	PairStats() (caches, pairs int, computed int64)
	// Advance closes time-window buckets up to the watermark (µs) on every
	// shard of every side.
	Advance(watermark int64)
}

// frontEnd is the shared per-stream half of an execution group: basket
// cursors on every shard, per-shard slicers, and the merger that seals
// globally consistent basic windows — the machinery that, without
// grouping, every query would duplicate. A Group owns one; a JoinGroup
// owns two (one per join side).
//
// Locking mirrors Factory: each shard's slicer is guarded by its own
// mutex, the merger by mergeMu. The owner's sink runs under mergeMu,
// which is what keeps the fanned-out basic-window sequence in generation
// order; the returned wake-up set is delivered after mergeMu is released
// so scheduler Ready callbacks never contend with a fan-out in progress.
type frontEnd struct {
	basket *basket.Sharded
	win    *plan.Window
	schema bat.Schema
	shards []*groupShard

	merge   *window.ShardMerge
	mergeMu sync.Mutex
	maxTs   atomic.Int64 // shared event-time watermark (time windows)
	// sealed is the merger frontier last handed to sink (guarded by
	// mergeMu).
	sealed int64

	// sink consumes sealed basic windows and the merger's new sealed
	// frontier under mergeMu and returns the queries whose tail
	// transitions need a wake-up. It also runs when the frontier moved
	// without sealing a window: a join's sequencer may then release the
	// other side's waiting windows.
	sink func(ready []*window.BW, sealed int64) map[string]bool
}

// groupShard is a front end's cursor into one shard of the stream basket —
// the shared counterpart of the factory's shardIn.
type groupShard struct {
	idx int
	bk  *basket.Basket
	cid int
	mu  sync.Mutex
	sl  *window.ShardSlicer
	wm  atomic.Int64 // mirrors sl.Watermark() for lock-free shardReady
}

// newFrontEnd registers consumers on every shard of the stream basket and
// builds the shared slicing pipeline. Members run divergent tails
// (re-evaluation needs raw windows, incremental pipelines and the shared
// DAG read raw basic windows), so the merger always keeps the raw tuples.
func newFrontEnd(bk *basket.Sharded, win *plan.Window, schema bat.Schema) *frontEnd {
	fe := &frontEnd{basket: bk, win: win, schema: schema, sealed: window.NoEpoch}
	fe.maxTs.Store(math.MinInt64)
	for i := 0; i < bk.NumShards(); i++ {
		b := bk.Shard(i)
		gs := &groupShard{idx: i, bk: b, cid: b.Register(),
			sl: window.NewShardSlicer(win, schema)}
		gs.wm.Store(gs.sl.Watermark())
		fe.shards = append(fe.shards, gs)
	}
	fe.merge = window.NewShardMerge(window.MergeConfig{
		Shards:   bk.NumShards(),
		Data:     schema,
		KeepData: true,
	})
	return fe
}

// newRemoteFrontEnd builds the fabric-fed variant: no basket cursors or
// local slicers — per-shard epoch fragments arrive pre-sliced from worker
// processes and only the min-watermark merger runs here.
func newRemoteFrontEnd(shards int, win *plan.Window, schema bat.Schema) *frontEnd {
	fe := &frontEnd{win: win, schema: schema, sealed: window.NoEpoch}
	fe.maxTs.Store(math.MinInt64)
	fe.merge = window.NewShardMerge(window.MergeConfig{
		Shards:   shards,
		Data:     schema,
		KeepData: true,
	})
	return fe
}

// close releases the basket cursors. The owner must have removed the
// shard transitions first (RemoveWait) so no firing is in flight.
func (fe *frontEnd) close() {
	for _, gs := range fe.shards {
		gs.mu.Lock()
		gs.bk.Unregister(gs.cid)
		gs.mu.Unlock()
	}
}

// shardReady reports whether shard sh has pending tuples or sealed epochs
// awaiting flush — the shared per-shard firing condition. It reads only
// atomics and basket counters (the scheduler calls it under its own lock).
func (fe *frontEnd) shardReady(sh int) bool {
	gs := fe.shards[sh]
	if gs.bk.Available(gs.cid) > 0 {
		return true
	}
	wmGen, ok := fe.watermarkGen(gs)
	if !ok {
		return false
	}
	return gs.wm.Load() < wmGen
}

func (fe *frontEnd) watermarkGen(gs *groupShard) (int64, bool) {
	if fe.win.Tuples {
		return fe.basket.Settled() / fe.win.Slide, true
	}
	mts := fe.maxTs.Load()
	if mts == math.MinInt64 {
		return 0, false
	}
	return gs.sl.TimeGen(mts), true
}

// fireShard is one firing of shard sh: drain, slice, and merge-complete
// any basic windows this shard sealed last, feeding them to the owner's
// sink. raised reports whether the event-time watermark advanced (sibling
// shards may now hold sealed buckets and need a re-notify); notify is the
// sink's wake-up set.
func (fe *frontEnd) fireShard(sh int) (notify map[string]bool, raised bool) {
	gs := fe.shards[sh]
	gs.mu.Lock()
	defer gs.mu.Unlock()
	// Tuple windows: read the sealing watermark BEFORE the drain (see
	// Factory.fireShardLocked for why the order matters).
	var wmSeq int64
	if fe.win.Tuples {
		wmSeq = fe.basket.Settled()
	}
	frags, _, raised := sliceFlush(gs.bk, gs.cid, gs.sl, fe.win, wmSeq, &fe.maxTs)
	gs.wm.Store(gs.sl.Watermark())
	return fe.deliver(gs, frags), raised
}

// deliver offers a shard's flushed fragments to the merger and sinks any
// completed basic windows. Callers hold gs.mu.
func (fe *frontEnd) deliver(gs *groupShard, frags []*window.Frag) map[string]bool {
	fe.mergeMu.Lock()
	defer fe.mergeMu.Unlock()
	return fe.offer(gs.idx, frags, gs.sl.Watermark())
}

// offer hands one shard's fragments and watermark to the merger and sinks
// the basic windows they completed, or a frontier that moved. Callers
// hold mergeMu.
func (fe *frontEnd) offer(shard int, frags []*window.Frag, wm int64) map[string]bool {
	ready := fe.merge.Offer(shard, frags, wm)
	sealed := fe.merge.Sealed()
	if len(ready) == 0 && sealed == fe.sealed {
		return nil
	}
	fe.sealed = sealed
	return fe.sink(ready, sealed)
}

// advance closes time-window buckets up to the watermark (µs) on every
// shard. Tuple-window front ends are unaffected.
func (fe *frontEnd) advance(watermark int64) map[string]bool {
	if fe.win.Tuples || fe.maxTs.Load() == math.MinInt64 {
		return nil // tuple windows never time out; no rows yet: nothing to shut
	}
	atomicMax(&fe.maxTs, watermark)
	mts := fe.maxTs.Load()
	notify := map[string]bool{}
	for _, gs := range fe.shards {
		gs.mu.Lock()
		frags := gs.sl.Flush(gs.sl.TimeGen(mts))
		gs.wm.Store(gs.sl.Watermark())
		for q := range fe.deliver(gs, frags) {
			notify[q] = true
		}
		gs.mu.Unlock()
	}
	return notify
}

// Group is a shared execution group over one stream: the front half of the
// dataflow — basket cursors, epoch slicing, shard merging — runs once per
// stream and slide granularity, no matter how many continuous queries
// consume it. Queries whose windowed scans agree on a plan.GroupKey join
// as members; each sealed basic window is fanned out to every member as a
// refcounted immutable columnar view, and the members' private tails run
// as independent scheduler transitions. On top of the shared slice, the
// group's operator DAG memoizes common member sub-tails: identical
// filter/project/partial-aggregate prefixes (by plan.Fingerprint) are
// evaluated once per basic window and the member tails diverge only where
// their plans do.
type Group struct {
	cfg     GroupConfig
	fe      *frontEnd
	dag     *dag // per-basic-window pipeline trie (rooted at the raw scan)
	postDag *dag // post-merge trie (rooted at each class's merged view)

	liveBufs    atomic.Int64 // sealed shared buffers not yet released by all members
	windowsOut  atomic.Int64 // basic windows fanned out
	memoHits    atomic.Int64
	memoMisses  atomic.Int64
	mergeHits   atomic.Int64 // merged views served from a sibling's evaluation
	mergeMisses atomic.Int64 // actual merge evaluations
	postHits    atomic.Int64 // post-merge fragments served from the trie memo
	postMisses  atomic.Int64 // actual post-merge fragment evaluations

	cancelAppend func()

	mu      sync.Mutex
	members []*Member
	classes map[string]*mergeClass // merge classes by plan.MergeKey
}

// GroupConfig assembles a shared execution group.
type GroupConfig struct {
	// Key is the plan.GroupKey the members agreed on.
	Key string
	// SchedGroup is the scheduler group name of the shard transitions.
	// It must be unique per group INSTANCE (the engine appends a nonce to
	// the key): a torn-down group's RemoveWait must never sweep up the
	// same-keyed successor's freshly added transitions.
	SchedGroup string
	// Basket is the stream's sharded container.
	Basket *basket.Sharded
	// Window carries the slicing granularity (slide / time bucket +
	// ordering attribute). The SIZE of any particular member is irrelevant
	// here: basic windows are cut at slide granularity and each member
	// keeps its own ring extent.
	Window *plan.Window
	// Schema is the scan output layout (the stream schema).
	Schema bat.Schema
	// Now supplies the clock in microseconds (defaults to the system
	// clock).
	Now func() int64
	// NotifyMember re-enables a member query's tail transition; the engine
	// wires it to the scheduler.
	NotifyMember func(query string)
	// NotifyShards re-enables the group's shard transitions (wired to
	// basket appends and event-time watermark raises).
	NotifyShards func()
	// Remote marks a fabric-fed group: the stream's shard front ends —
	// basket cursors, slicers, per-shard firings — run in worker processes,
	// and sealed epoch fragments arrive over the wire via OfferRemote
	// instead of local FireShard transitions. The group keeps only the
	// merger (min-watermark sealing across processes) and everything above
	// it — fan-out, operator DAG, merge classes, post-merge trie — works
	// unchanged on remote windows.
	Remote *RemoteSource
}

// RemoteSource describes the remote side of a fabric-fed group.
type RemoteSource struct {
	// Shards is the stream's total shard count across all workers — the
	// width of the group's merger.
	Shards int
	// Advance forwards time-watermark raises (Engine.AdvanceTime, the
	// heartbeat) to the worker processes, whose slicers own the open
	// buckets.
	Advance func(watermark int64)
	// Close tears the fabric spec down when the group closes (broadcast to
	// workers so they drop their slicers and cursors).
	Close func()
}

// Member is one continuous query's membership in a group: a queue of
// sealed basic windows awaiting the query's private tail, drained by the
// member's scheduler transition. Members whose incremental pipeline
// registered in the group DAG carry their leaf nodes; their tails resolve
// Partial (aggregate plans) or Out (all others) through the shared memo
// before the merge stage. Members in a merge class additionally resolve
// the merge itself — and, through postLeaf, their post-merge fragment —
// from the group's shared machinery, so their private tail only emits.
type Member struct {
	g     *Group
	query string
	fac   *Factory

	leaf    *dagNode // pipeline leaf (nil: evaluate privately)
	aggLeaf *dagNode // partial-aggregate node (nil: no shared partial)

	// Shared-merge state. classKey is the member's plan.MergeKey ("" when
	// the member merges privately: re-evaluation mode, joins, NoMemo, or
	// NoSharedMerge). postLeaf is the member's post-merge chain in the
	// group's post-merge trie (nil when the plan has no post fragment, or
	// when it did not linearize — hasPost distinguishes the two).
	classKey string
	postLeaf *dagNode
	hasPost  bool

	// nextGen is touched only by fanout, which the front end's mergeMu
	// serializes.
	nextGen int64
	q       memberQueue[memberBW]
}

// memberBW is one queued basic window plus the window's shared memo
// table and — for merge-class members whose window completed a full
// window — the class's merged-view memo cell.
type memberBW struct {
	bw    *window.BW
	dw    *dagWin
	mcell *mergeCell
}

// NewGroup builds a group over a stream basket. It registers consumers on
// every shard but does not yet subscribe to append notifications — the
// engine first joins the creating member and registers the shard
// transitions, then calls SubscribeAppend, so no basic window can seal
// while the group has no members.
func NewGroup(cfg GroupConfig) *Group {
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixMicro() }
	}
	g := &Group{cfg: cfg, dag: newDAG(), postDag: newDAG(),
		classes: make(map[string]*mergeClass)}
	if cfg.Remote != nil {
		g.fe = newRemoteFrontEnd(cfg.Remote.Shards, cfg.Window, cfg.Schema)
	} else {
		g.fe = newFrontEnd(cfg.Basket, cfg.Window, cfg.Schema)
	}
	g.fe.sink = func(ready []*window.BW, _ int64) map[string]bool {
		if len(ready) == 0 {
			return nil
		}
		return g.fanout(ready)
	}
	return g
}

// SubscribeAppend wires the group's shard transitions to the basket's
// append notifications. Call after the first member joined and the shard
// transitions are registered. Remote groups have no shard transitions to
// wake — their windows arrive over the wire — so it is a no-op for them.
func (g *Group) SubscribeAppend() {
	if g.cfg.Remote != nil {
		return
	}
	if g.cfg.NotifyShards != nil {
		g.cancelAppend = g.cfg.Basket.OnAppend(g.cfg.NotifyShards)
	}
}

// Key reports the group key.
func (g *Group) Key() string { return g.cfg.Key }

// Kind reports the group kind ("scan").
func (g *Group) Kind() string { return "scan" }

// SchedGroup reports the instance-unique scheduler group name of the
// shard transitions.
func (g *Group) SchedGroup() string { return g.cfg.SchedGroup }

// NumShards reports the stream's shard count (one group transition each).
func (g *Group) NumShards() int { return len(g.fe.shards) }

// Shards implements SharedGroup: the stream's total shard count — local
// shard transitions, or, for a fabric-fed group, the remote shards whose
// fragments the merger assembles.
func (g *Group) Shards() int {
	if g.cfg.Remote != nil {
		return g.cfg.Remote.Shards
	}
	return g.NumShards()
}

// Members reports the current member count.
func (g *Group) Members() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}

// LiveBufs reports how many sealed basic-window buffers are still
// referenced by at least one member — the refcount gauge tests pin to
// prove buffers are released when the last member finishes with them.
func (g *Group) LiveBufs() int64 { return g.liveBufs.Load() }

// WindowsOut reports how many basic windows the group has fanned out.
func (g *Group) WindowsOut() int64 { return g.windowsOut.Load() }

// DagNodes reports the distinct operator nodes in the shared DAG.
func (g *Group) DagNodes() int { return g.dag.Nodes() }

// MemoHits reports operator evaluations served from the shared memo.
func (g *Group) MemoHits() int64 { return g.memoHits.Load() }

// MemoMisses reports actual operator evaluations (memo fills).
func (g *Group) MemoMisses() int64 { return g.memoMisses.Load() }

// MergeStats reports the active merge classes (group-owned merge rings
// serving two or more members) and the merged-view memo counters: hits
// are full-window merges served from a sibling's evaluation, misses
// actual merge evaluations — for N class members, one miss and N-1 hits
// per sealed full window.
func (g *Group) MergeStats() (classes int, hits, misses int64) {
	g.mu.Lock()
	for _, mc := range g.classes {
		if mc.active {
			classes++
		}
	}
	g.mu.Unlock()
	return classes, g.mergeHits.Load(), g.mergeMisses.Load()
}

// PostStats reports the post-merge trie: distinct post-merge fragment
// nodes registered across members and the trie's memo counters.
func (g *Group) PostStats() (nodes int, hits, misses int64) {
	return g.postDag.Nodes(), g.postHits.Load(), g.postMisses.Load()
}

// PairStats implements SharedGroup; single-stream groups hold no join
// pair caches.
func (g *Group) PairStats() (int, int, int64) { return 0, 0, 0 }

// Join adds a query as a member. The member starts at the next sealed
// basic window; tuples already buffered in the group's open epochs are
// included in it. An incremental member whose per-basic-window pipeline
// linearizes (plan.PipelineSteps) registers it — and its partial-aggregate
// stage — in the shared DAG, unless the factory opted out (NoMemo). A
// DAG-registered member additionally joins the merge class of its
// plan.MergeKey (unless NoSharedMerge) and registers its post-merge
// fragment in the post-merge trie, so once a second member with the same
// key arrives, merge and identical post fragments evaluate once per
// sealed full window for the whole class.
func (g *Group) Join(query string, fac *Factory) *Member {
	m := &Member{g: g, query: query, fac: fac}
	d := fac.cfg.Decomp
	if d != nil && !fac.cfg.NoMemo && fac.cfg.Mode == Incremental && d.Join == nil {
		if steps, ok := d.StepsMemo(0); ok {
			m.leaf, m.aggLeaf = g.dag.register(steps, d.Agg, d.AggFingerprintMemo())
			if !fac.cfg.NoSharedMerge {
				if key, ok := d.MergeKeyMemo(); ok {
					m.classKey = key
					m.hasPost = d.Post != nil
					if d.Post != nil {
						if psteps, ok := d.PostStepsMemo(key); ok {
							m.postLeaf, _ = g.postDag.register(psteps, nil, "")
						}
					}
				}
			}
		}
	}
	g.mu.Lock()
	g.members = append(g.members, m)
	if m.classKey != "" {
		mc := g.classes[m.classKey]
		if mc == nil {
			mc = &mergeClass{
				key:       m.classKey,
				parts:     d.Pipelines[0].Scan.Window.Parts(),
				agg:       d.Agg,
				leaf:      m.leaf,
				aggLeaf:   m.aggLeaf,
				outSchema: d.MergedLeaf.Out,
			}
			g.classes[m.classKey] = mc
		}
		mc.refs++
		if mc.refs >= 2 && !mc.active {
			// The ring starts (or, after a drop back to one member,
			// restarts) filling from the next sealed window.
			mc.active = true
			mc.reopen()
		}
	}
	g.mu.Unlock()
	return m
}

// Leave removes a member, releasing any sealed basic windows still queued
// for it, its DAG and post-merge trie path references, and its merge-
// class membership — the class's ring (and its shared-buffer references)
// is released when the last member with its key leaves. The caller must
// have removed the member's scheduler transition first (RemoveWait) so no
// tail firing is in flight.
func (g *Group) Leave(m *Member) {
	var closeClass *mergeClass
	g.mu.Lock()
	for i, x := range g.members {
		if x == m {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	if m.classKey != "" {
		if mc := g.classes[m.classKey]; mc != nil {
			mc.refs--
			switch {
			case mc.refs <= 0:
				delete(g.classes, m.classKey)
				closeClass = mc
			case mc.refs == 1 && mc.active:
				// Sharing is over: release the ring so a lone survivor
				// stops pinning raw window buffers it would otherwise
				// never need (its private ring still merges every
				// window). A later second member reactivates the class
				// and re-warms the ring.
				mc.active = false
				closeClass = mc
			}
		}
	}
	g.mu.Unlock()
	if closeClass != nil {
		closeClass.close()
	}
	if m.postLeaf != nil {
		g.postDag.unregister(m.postLeaf)
	}
	if m.aggLeaf != nil {
		g.dag.unregister(m.aggLeaf)
	}
	if m.leaf != nil {
		g.dag.unregister(m.leaf)
	}
	for _, it := range m.q.closeDrain() {
		it.bw.ReleaseData()
	}
}

// Close tears the group down after the last member left: cancels the
// append subscription and releases the basket cursors. The caller must
// have removed the group's shard transitions first (RemoveWait).
func (g *Group) Close() {
	if g.cancelAppend != nil {
		g.cancelAppend()
		g.cancelAppend = nil
	}
	g.fe.close()
	if g.cfg.Remote != nil && g.cfg.Remote.Close != nil {
		g.cfg.Remote.Close()
	}
}

// OfferRemote feeds one remote shard's freshly flushed epoch fragments and
// watermark into the group's merger — the fabric-fed counterpart of a
// FireShard delivery. Basic windows sealed by the delivery (every shard's
// watermark passed their epoch) fan out to the members exactly as local
// ones do. Safe for concurrent calls from different worker connections;
// out-of-range shard indices are dropped (a confused or stale peer must
// not panic the engine).
func (g *Group) OfferRemote(shard int, frags []*window.Frag, wm int64) {
	if g.cfg.Remote == nil || shard < 0 || shard >= g.cfg.Remote.Shards {
		return
	}
	g.fe.mergeMu.Lock()
	notify := g.fe.offer(shard, frags, wm)
	g.fe.mergeMu.Unlock()
	for q := range notify {
		g.cfg.NotifyMember(q)
	}
}

// ShardReady reports whether shard sh has pending tuples or sealed epochs
// awaiting flush — the group's per-shard firing condition (the shared
// analogue of Factory.ShardReady).
func (g *Group) ShardReady(sh int) bool { return g.fe.shardReady(sh) }

// FireShard is one firing of the group's shard sh: drain, slice, and
// merge-complete any basic windows this shard sealed last, fanning them
// out to every member's queue. Sealed windows wake the members' tail
// transitions; a raised event-time watermark re-notifies the sibling
// shards (they may now hold sealed buckets).
func (g *Group) FireShard(sh int) {
	notify, raised := g.fe.fireShard(sh)
	for q := range notify {
		g.cfg.NotifyMember(q)
	}
	if raised && g.cfg.NotifyShards != nil {
		g.cfg.NotifyShards()
	}
}

// fanout hands each sealed basic window to every member as a refcounted
// shared view, together with the window's DAG memo table, and feeds the
// active merge-class rings — each ring slot holds its own reference on
// the shared buffer, and once a class ring covers a full window the
// window's merged-view memo cell rides the class members' queue items.
// Callers hold the front end's mergeMu, which keeps per-member
// generations in order. It returns the queries whose tail transitions
// need a wake-up.
func (g *Group) fanout(ready []*window.BW) map[string]bool {
	g.mu.Lock()
	members := make([]*Member, len(g.members))
	copy(members, g.members)
	var classes []*mergeClass
	for _, mc := range g.classes {
		if mc.active {
			classes = append(classes, mc)
		}
	}
	g.mu.Unlock()

	needDag := g.dag.Nodes() > 0
	notify := make(map[string]bool, len(members))
	for _, bw := range ready {
		g.windowsOut.Add(1)
		if len(members) == 0 {
			continue
		}
		g.liveBufs.Add(1)
		buf := window.NewSharedBuf(bw.Data, len(members)+len(classes), func() { g.liveBufs.Add(-1) })
		var dw *dagWin
		if needDag {
			dw = newDagWin()
		}
		var cells map[string]*mergeCell
		if len(classes) > 0 {
			cells = make(map[string]*mergeCell, len(classes))
			for _, mc := range classes {
				if cell := mc.push(dw, buf.Data(), buf.Release); cell != nil {
					cells[mc.key] = cell
				}
			}
		}
		for _, m := range members {
			mbw := &window.BW{Gen: m.nextGen, Data: buf.Data(), MaxArrival: bw.MaxArrival, Free: buf.Release}
			item := memberBW{bw: mbw, dw: dw}
			if m.classKey != "" {
				item.mcell = cells[m.classKey]
			}
			if !m.q.enqueue(item) {
				mbw.ReleaseData() // member left between snapshot and enqueue
				continue
			}
			m.nextGen++
			notify[m.query] = true
		}
	}
	return notify
}

// Advance closes time-window buckets up to the watermark (microsecond
// timestamp) on every shard — the group-level counterpart of
// Factory.Advance for the scheduler's time constraints. Tuple-window
// groups are unaffected. Fabric-fed groups forward the watermark to the
// worker processes, whose slicers own the open buckets; the flushed
// fragments come back through OfferRemote.
func (g *Group) Advance(watermark int64) {
	if g.cfg.Remote != nil {
		if g.cfg.Remote.Advance != nil {
			g.cfg.Remote.Advance(watermark)
		}
		return
	}
	for q := range g.fe.advance(watermark) {
		g.cfg.NotifyMember(q)
	}
}

// Query reports the member's query name.
func (m *Member) Query() string { return m.query }

// Ready reports whether sealed basic windows await the member's tail —
// the firing condition of the member's scheduler transition. It reads an
// atomic mirror only (the scheduler calls it under its own lock).
func (m *Member) Ready() bool { return m.q.ready() }

// Fire drains the member's queue and runs its private tail over the
// batch, in generation order. Members registered in the shared DAG
// resolve their partial aggregate (or, without one, their pipeline
// output) through the window's memo first — evaluating each distinct
// operator once across all members — and release their raw-data
// reference immediately. Merge-class members then resolve the
// full-window merged view through the window's merge cell (one merge
// evaluation per sealed window across the class) and their post-merge
// fragment through the post-merge trie, so the factory tail only emits;
// everyone else merges privately in the tail. The scheduler guarantees a
// single in-flight Fire per member. It returns the number of result sets
// emitted.
func (m *Member) Fire() int {
	items := m.q.drain()
	evs := make([]SharedBW, 0, len(items))
	for _, it := range items {
		bw := it.bw
		if it.dw != nil {
			// A member resolves only the node its tail consumes: the
			// partial aggregate when it has one (its ring keeps partials
			// only, so the pipeline leaf never materializes for it), the
			// pipeline leaf otherwise. The raw-data reference is released
			// by the factory tail after tuple accounting (incrementalStep).
			switch {
			case m.aggLeaf != nil:
				bw.Partial = m.g.dag.eval(it.dw, m.aggLeaf, bw.Data, &m.g.memoHits, &m.g.memoMisses)
			case m.leaf != nil:
				bw.Out = m.g.dag.eval(it.dw, m.leaf, bw.Data, &m.g.memoHits, &m.g.memoMisses)
			}
		}
		// The merge cell serves this member only once its own ring is warm
		// (Gen counts windows since the member joined): a late joiner's
		// first full window must cover exactly the windows it received, as
		// it would alone.
		if it.mcell != nil && bw.Gen >= int64(it.mcell.mc.parts-1) {
			merged, pdw, computed := it.mcell.eval(m.g)
			if computed {
				m.g.mergeMisses.Add(1)
			} else {
				m.g.mergeHits.Add(1)
			}
			switch {
			case m.postLeaf != nil:
				bw.Final = m.g.postDag.eval(pdw, m.postLeaf, merged, &m.g.postHits, &m.g.postMisses)
			case m.hasPost:
				// Post fragment exists but did not linearize: the tail runs
				// it privately over the shared merged view.
				bw.Merged = merged
			default:
				bw.Final = merged
			}
		}
		evs = append(evs, SharedBW{Input: 0, BW: bw})
	}
	return m.fac.SharedFire(evs)
}
