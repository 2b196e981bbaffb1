package factory

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/kernel"
	"datacell/internal/plan"
	"datacell/internal/window"
)

// frontEnd is the per-stream half of an execution group: basket cursors
// on every shard, per-shard slicers, and the merger that seals globally
// consistent basic windows. A Group owns one per side. A non-windowed
// stream's front end has cursors only: each drained basket segment is one
// batch, handed to the sink as its own basic window.
//
// Each shard's cursor and slicer belong to its scheduler transition,
// which never fires concurrently with itself; the merger is guarded by
// mergeMu. The owner's sink runs under mergeMu, which is what keeps the
// fanned-out basic-window sequence in generation order; the returned wake-up set is delivered after mergeMu is released
// so scheduler Ready callbacks never contend with a fan-out in progress.
type frontEnd struct {
	basket *basket.Sharded
	win    *plan.Window // nil: non-windowed
	schema bat.Schema
	shards []*groupShard

	merge   *window.ShardMerge
	mergeMu sync.Mutex
	// sealed is the merger frontier last handed to sink (guarded by
	// mergeMu).
	sealed int64

	// sink consumes sealed basic windows and the merger's new sealed
	// frontier under mergeMu and returns the members whose tail
	// transitions need a wake-up. It also runs when the frontier moved
	// without sealing a window: a join's sequencer may then release the
	// other side's waiting windows.
	sink func(ready []*window.BW, sealed int64) []*Factory
}

// groupShard is a front end's cursor into one shard of the stream basket.
type groupShard struct {
	idx int
	bk  *basket.Basket
	cid int
	sl  *window.ShardSlicer // nil for a non-windowed stream
	wm  atomic.Int64        // mirrors sl.Watermark() for lock-free shardReady
}

// newFrontEnd registers consumers on every shard of the stream basket and
// builds the shared slicing pipeline (none for a nil win).
func newFrontEnd(bk *basket.Sharded, win *plan.Window, schema bat.Schema) *frontEnd {
	fe := &frontEnd{basket: bk, win: win, schema: schema, sealed: window.NoEpoch}
	for i := 0; i < bk.NumShards(); i++ {
		b := bk.Shard(i)
		gs := &groupShard{idx: i, bk: b, cid: b.Register()}
		if win != nil {
			gs.sl = window.NewShardSlicer(win, schema)
			gs.wm.Store(gs.sl.Watermark())
		}
		fe.shards = append(fe.shards, gs)
	}
	if win != nil {
		fe.merge = window.NewShardMerge(window.MergeConfig{Shards: bk.NumShards(), Data: schema})
	}
	return fe
}

// newRemoteFrontEnd builds the fabric-fed variant: no basket cursors or
// local slicers — per-shard epoch fragments arrive pre-sliced from worker
// processes and only the min-watermark merger runs here.
func newRemoteFrontEnd(shards int, win *plan.Window, schema bat.Schema) *frontEnd {
	fe := &frontEnd{win: win, schema: schema, sealed: window.NoEpoch}
	fe.merge = window.NewShardMerge(window.MergeConfig{Shards: shards, Data: schema})
	return fe
}

// close releases the basket cursors. The owner must have removed the
// shard transitions first (RemoveWait) so no firing is in flight.
func (fe *frontEnd) close() {
	for _, gs := range fe.shards {
		gs.bk.Unregister(gs.cid)
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
	if gs.sl == nil {
		return false
	}
	wmGen, ok := fe.watermarkGen(gs)
	if !ok {
		return false
	}
	return gs.wm.Load() < wmGen
}

// watermarkGen reads the stream's sealing clock as an epoch: the settled
// sequence over the slide for tuple windows, the bucket of the settled
// event time for time windows. ok is false before a time window's first
// row has settled.
func (fe *frontEnd) watermarkGen(gs *groupShard) (gen int64, ok bool) {
	if fe.win.Tuples {
		return fe.basket.Settled() / fe.win.Slide, true
	}
	ts := fe.basket.SettledTime(fe.win.TimeIdx)
	if ts == math.MinInt64 {
		return 0, false
	}
	return gs.sl.TimeGen(ts), true
}

// fireShard is one firing of shard sh: drain, slice, and merge-complete
// any basic windows this shard sealed last, feeding them to the owner's
// sink. It returns the sink's wake-up list.
func (fe *frontEnd) fireShard(sh int) []*Factory {
	gs := fe.shards[sh]
	if gs.sl == nil {
		return fe.batches(gs)
	}
	// Read the sealing clock BEFORE the drain: the clock covers only
	// the settled prefix, whose rows were all visible in their shards
	// before it moved, so the drain below includes every row of an epoch
	// it seals. Reading after the drain could seal an epoch whose rows
	// arrived between the two steps.
	gen, ok := fe.watermarkGen(gs)
	gs.bk.ConsumeLeased(gs.cid, gs.sl.Push)
	var frags []*window.Frag
	if ok {
		frags = gs.sl.Flush(gen)
	}
	gs.wm.Store(gs.sl.Watermark())
	return fe.deliver(gs, frags)
}

// batches is a non-windowed shard firing: every drained basket segment
// becomes one basic window (the paper's mode 1 evaluates each arriving
// batch), sunk in drain order under mergeMu. ConsumeEach's views pin
// their storage, so the batches stay valid until the members read them.
func (fe *frontEnd) batches(gs *groupShard) []*Factory {
	var ready []*window.BW
	gs.bk.ConsumeEach(gs.cid, func(c *bat.Chunk, arrivals, _ bat.Ints) {
		bw := &window.BW{Data: bat.NewRuns(fe.schema, c)}
		for _, a := range arrivals {
			bw.MaxArrival = max(bw.MaxArrival, a)
		}
		ready = append(ready, bw)
	})
	if len(ready) == 0 {
		return nil
	}
	fe.mergeMu.Lock()
	defer fe.mergeMu.Unlock()
	return fe.sink(ready, window.NoEpoch)
}

// deliver offers a shard's flushed fragments to the merger and sinks any
// completed basic windows.
func (fe *frontEnd) deliver(gs *groupShard, frags []*window.Frag) []*Factory {
	fe.mergeMu.Lock()
	defer fe.mergeMu.Unlock()
	return fe.offer(gs.idx, frags, gs.sl.Watermark())
}

// offer hands one shard's fragments and watermark to the merger and sinks
// the basic windows they completed, or a frontier that moved. Callers
// hold mergeMu.
func (fe *frontEnd) offer(shard int, frags []*window.Frag, wm int64) []*Factory {
	ready := fe.merge.Offer(shard, frags, wm)
	sealed := fe.merge.Sealed()
	if len(ready) == 0 && sealed == fe.sealed {
		return nil
	}
	fe.sealed = sealed
	return fe.sink(ready, sealed)
}

// Group is a shared execution group over one stream, or over the two
// streams of a stream⋈stream join (paper §Complex Queries): the front
// half of the dataflow — basket cursors, epoch slicing, shard merging —
// runs once per stream and slide granularity, no matter how many
// continuous queries consume it. Queries whose windowed scans agree on a
// group key (plan.GroupKeyOf) join as members; each
// sealed basic window is fanned out once, into the group's delivery log,
// as a refcounted immutable columnar view that every member reads from
// its own cursor, and the members' private tails run as independent
// scheduler transitions. On top of the shared slice, each
// side's operator DAG memoizes common member sub-tails: identical
// filter/project/partial-aggregate prefixes (by plan.Fingerprint) are
// evaluated once per basic window and the member tails diverge only where
// their plans do.
//
// A two-sided group fans its windows out in one global interleaving (so
// all members pair left and right windows identically), and queries with
// the same join fingerprint share one pair cache: each (left, right)
// basic-window pair is joined once for the whole group and survives
// slides under the watermark eviction protocol of window.SharedPairCache.
//
// A query that shares nothing — registered ISOLATED, a non-windowed scan,
// or a multi-stream read that does not decompose into a join — is the
// only member of a private group under a nonce-unique key, with one side
// per stream scan of its plan. A non-windowed side hands each basket
// segment over as its own basic window.
type Group struct {
	cfg   GroupConfig
	sides []*groupSide

	liveBufs    atomic.Int64 // fanned-out windows not yet released by every reader
	windowsOut  atomic.Int64 // basic windows fanned out
	memoHits    atomic.Int64
	memoMisses  atomic.Int64
	mergeHits   atomic.Int64 // merged views served from a sibling's evaluation
	mergeMisses atomic.Int64 // actual merge evaluations
	postHits    atomic.Int64 // post-merge fragments served from the trie memo
	postMisses  atomic.Int64 // actual post-merge fragment evaluations

	cancels []func()

	// seqMu orders fan-outs across the sides of a multi-sided group:
	// every member observes the same interleaving, which is what makes
	// the shared pair cache and the members' emission sequences line up.
	// seq fixes that interleaving to one canonical order (by window end,
	// see inputSeq), so it does not depend on which side's shards fired
	// first. It is nil — windows go out in seal order under seqMu — when
	// the sides' windows share no axis (tuple and time windows mixed) or
	// the sides are non-windowed. A one-sided group needs no seq and
	// releases its windows in seal order under its front end's mergeMu.
	// genCtr holds the per-side group-global basic-window generations.
	seqMu  sync.Mutex
	seq    *inputSeq
	genCtr []int64

	mu sync.Mutex
	// log holds the fanned-out windows; appends and member cursors start
	// under mu (see deliveryLog).
	log deliveryLog
	// members only grows at its end or is replaced by a copy, never
	// modified in place, so a fan-out hands it out without copying. viewers
	// counts the members that may keep views of a window's runs past
	// their release (all but partialsOnly ones).
	members []*Factory
	viewers int
	classes map[string]*mergeClass // merge classes by plan.Decomposition.ClassKey
	// classSlots holds the live classes by ordinal (nil: a free slot): a
	// fan-out indexes each window's merge cells by it.
	classSlots []*mergeClass
	caches     map[string]*jcEntry // join pair caches by join fingerprint
	// retiredComputed accumulates Computed() of pair caches whose last
	// member left, so PairStats stays cumulative instead of regressing
	// when a fingerprint retires mid-session.
	retiredComputed int64
}

// groupSide is one input stream of a group: its front end, the operator
// DAG of its member pipelines, and — for a fabric-fed stream — the remote
// source its windows arrive from.
type groupSide struct {
	fe     *frontEnd
	dag    *dag
	remote *RemoteSource
}

// jcEntry refcounts one shared pair cache (one per distinct join
// fingerprint among the members).
type jcEntry struct {
	pc   *window.SharedPairCache
	refs int
}

// GroupConfig assembles a shared execution group.
type GroupConfig struct {
	// Key is the group key the members agreed on.
	Key string
	// SchedGroup is the scheduler group name of the shard transitions.
	// It must be unique per group INSTANCE (the engine appends a nonce to
	// the key): a torn-down group's RemoveWait must never sweep up the
	// same-keyed successor's freshly added transitions.
	SchedGroup string
	// Scans are the group's stream scans, one per side: one for a single-
	// stream group, the left and right scans (in plan order) for a join
	// group, every scan of the plan for a private group. Each scan's
	// window (nil: non-windowed) carries the slicing granularity
	// (slide / time bucket + ordering attribute); the SIZE of any
	// particular member is irrelevant here: basic windows are cut at slide
	// granularity and each member keeps its own ring extent.
	Scans []*plan.ScanStream
	// Remote marks fabric-fed sides, indexed like Scans (nil entries, or
	// a short slice, leave a side local). A remote side's shard front
	// ends — basket cursors, slicers, per-shard firings — run in worker
	// processes, and its sealed epoch fragments arrive via OfferRemote
	// instead of local FireShard transitions; only the min-watermark
	// merger runs here. Everything above it — fan-out, operator DAGs,
	// merge classes, pair caches, post-merge trie — works unchanged on
	// remote windows, and a join may pair a remote stream with a local one.
	Remote []*RemoteSource
	// NotifyMember re-enables a member query's tail transition; the engine
	// wires it to the scheduler.
	NotifyMember func(query string)
	// NotifyShards re-enables the group's shard transitions (wired to
	// the local sides' basket settles and time advances).
	NotifyShards func()
}

// RemoteSource describes the remote side of a fabric-fed group.
type RemoteSource struct {
	// Shards is the stream's total shard count across all workers — the
	// width of the side's merger.
	Shards int
	// Close tears the fabric spec down when the group closes (broadcast to
	// workers so they drop their slicers and cursors).
	Close func()
}

// NewGroup builds a group over its scans' stream baskets. It registers
// consumers on every local shard but does not yet subscribe to append
// notifications — the engine first joins the creating member and
// registers the shard transitions, then calls SubscribeAppend, so no basic
// window can seal while the group has no members.
func NewGroup(cfg GroupConfig) *Group {
	wins := make([]*plan.Window, len(cfg.Scans))
	g := &Group{cfg: cfg, genCtr: make([]int64, len(cfg.Scans)),
		classes: make(map[string]*mergeClass), caches: make(map[string]*jcEntry)}
	for i, sc := range cfg.Scans {
		side := &groupSide{dag: newDAG()}
		if i < len(cfg.Remote) {
			side.remote = cfg.Remote[i]
		}
		if side.remote != nil {
			side.fe = newRemoteFrontEnd(side.remote.Shards, sc.Window, sc.Out)
		} else {
			side.fe = newFrontEnd(sc.Stream.Basket, sc.Window, sc.Out)
		}
		i := i
		side.fe.sink = func(ready []*window.BW, sealed int64) []*Factory {
			return g.fanout(i, ready, sealed)
		}
		g.sides = append(g.sides, side)
		wins[i] = sc.Window
	}
	g.seq = newInputSeq(wins)
	return g
}

// SubscribeAppend wires the group's shard transitions to the local sides'
// basket append notifications. Call after the first member joined and
// the shard transitions are registered. Remote sides have no shard
// transitions to wake — their windows arrive over the wire.
func (g *Group) SubscribeAppend() {
	if g.cfg.NotifyShards == nil {
		return
	}
	for _, s := range g.sides {
		if s.remote == nil {
			g.cancels = append(g.cancels, s.fe.basket.OnAppend(g.cfg.NotifyShards))
		}
	}
}

// Key reports the group key (plan.GroupKeyOf, plus a nonce for a private
// group).
func (g *Group) Key() string { return g.cfg.Key }

// Kind reports "scan" for single-stream groups, "join" for stream pairs.
func (g *Group) Kind() string {
	if len(g.sides) == 1 {
		return "scan"
	}
	return "join"
}

// SchedGroup reports the instance-unique scheduler group name of the
// shard transitions.
func (g *Group) SchedGroup() string { return g.cfg.SchedGroup }

// NumShards reports one side's local shard count (one group transition
// per (side, shard)).
func (g *Group) NumShards(side int) int { return len(g.sides[side].fe.shards) }

// Shards reports the total shard count across the sides — local shard
// transitions, or, for a fabric-fed side, the remote shards whose
// fragments its merger assembles.
func (g *Group) Shards() int {
	total := 0
	for _, s := range g.sides {
		if s.remote != nil {
			total += s.remote.Shards
		} else {
			total += len(s.fe.shards)
		}
	}
	return total
}

// Members reports the current member count.
func (g *Group) Members() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}

// LiveBufs reports how many sealed basic-window buffers are still
// referenced by at least one member or merge ring — the refcount gauge
// tests pin to prove buffers are released when the last holder finishes
// with them.
func (g *Group) LiveBufs() int64 { return g.liveBufs.Load() }

// WindowsOut reports how many basic windows the group has fanned out
// (across sides).
func (g *Group) WindowsOut() int64 { return g.windowsOut.Load() }

// DagNodes reports the distinct operator nodes in the side DAGs.
func (g *Group) DagNodes() int {
	n := 0
	for _, s := range g.sides {
		n += s.dag.Nodes()
	}
	return n
}

// MemoHits reports operator evaluations served from a sibling's
// memoized output.
func (g *Group) MemoHits() int64 { return g.memoHits.Load() }

// MemoMisses reports actual operator evaluations (memo fills).
func (g *Group) MemoMisses() int64 { return g.memoMisses.Load() }

// MergeStats reports the active merge classes (group-owned merge rings
// serving two or more members holding byte-identical merged views, by
// plan.Decomposition.ClassKey) and the merged-view memo counters: hits
// are merged views served from a sibling's evaluation, misses actual
// merge evaluations — for N class members, one miss and N-1 hits per
// sealed window once everyone is warm.
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

// PostStats reports the post-merge tries: distinct post-merge fragment
// nodes (HAVING filters, final aggregates, sorts, limits) registered
// across members and the tries' memo counters.
func (g *Group) PostStats() (nodes int, hits, misses int64) {
	g.mu.Lock()
	for _, mc := range g.classes {
		nodes += mc.post.Nodes()
	}
	g.mu.Unlock()
	return nodes, g.postHits.Load(), g.postMisses.Load()
}

// PairStats reports the shared join pair caches: distinct live caches
// (one per join fingerprint), live cached pairs, and pair evaluations
// ever computed (cumulative across retired caches, so the counter never
// regresses mid-session). Zero for single-stream groups.
func (g *Group) PairStats() (caches, pairs int, computed int64) {
	g.mu.Lock()
	entries := make([]*jcEntry, 0, len(g.caches))
	for _, e := range g.caches {
		entries = append(entries, e)
	}
	computed = g.retiredComputed
	g.mu.Unlock()
	for _, e := range entries {
		caches++
		pairs += e.pc.Pairs()
		computed += e.pc.Computed()
	}
	return caches, pairs, computed
}

// Join adds a query's factory as a member. It starts at the next sealed
// basic window of each side; tuples already buffered in the group's open
// epochs are included in it.
//
// A factory with a decomposition registers its linearized per-basic-window
// pipelines (plan.Pipeline.Steps) in the side DAGs, unless it opted out
// (NoMemo) and compiles them for itself; in a one-sided group its
// partial-aggregate stage registers too. Such a member additionally joins
// the merge class of its merge key (unless NoSharedMerge) and registers
// its post-merge fragment in the post-merge trie, so once a second member
// with the same key arrives, merge and identical post fragments evaluate
// once per sealed window for the whole class; a member without a class
// compiles its post-merge chain for itself. A join member also acquires
// the shared pair cache of its join fingerprint, created on first use.
func (g *Group) Join(f *Factory) {
	n := len(g.sides)
	f.g, f.leaf, f.seen = g, make([]*dagNode, n), make([]int64, n)
	d := f.cfg.Decomp
	piped := d != nil && !f.cfg.NoMemo
	for s := range g.sides {
		switch {
		case d == nil:
		case !piped:
			f.steps[s] = kernel.CompileSteps(d.Pipelines[s].Steps)
		case n == 1:
			f.leaf[s], f.aggLeaf = g.sides[s].dag.register(d.Pipelines[s].Steps, d.Agg, d.AggFp)
		default:
			f.leaf[s], _ = g.sides[s].dag.register(d.Pipelines[s].Steps, nil, "")
		}
	}
	f.partialsOnly = n == 1 && d != nil && d.Agg != nil
	if d != nil {
		// A join decomposition requires the two sides' windows to slide in
		// lockstep, so their extents agree today — take the max anyway so
		// the retention horizon stays correct if that invariant loosens.
		for s := range g.sides {
			f.extent = max(f.extent, d.Pipelines[s].Scan.Window.Parts())
		}
	}
	g.mu.Lock()
	if d != nil && d.Join != nil {
		e := g.caches[d.JoinFp]
		if e == nil {
			e = &jcEntry{pc: window.NewSharedPairCache(d.Join)}
			g.caches[d.JoinFp] = e
		}
		e.refs++
		f.pc = e.pc
		f.pc.Retain(f.extent)
	}
	if piped && !f.cfg.NoSharedMerge {
		// The member's pipelines are in the side DAGs, so its merged view
		// is a deterministic function of the class rings. A join class key
		// embeds the join fingerprint, which covers both side pipelines:
		// class siblings necessarily share a pair cache.
		mc := g.classes[d.ClassKey]
		if mc == nil {
			mc = newMergeClass(f)
			g.classes[d.ClassKey] = mc
			g.addClassSlot(mc)
		}
		f.class = mc
		if d.Post != nil {
			// The trie nodes' compiled steps are also the member's private
			// post-merge chain.
			f.postLeaf, _ = mc.post.register(d.PostSteps, nil, "")
			f.post, f.postTop = chain(f.postLeaf)
		}
		mc.refs++
		if mc.refs >= 2 && !mc.active {
			// The rings start (or, after a drop back to one member,
			// restart) filling from the next fanned-out window.
			mc.active = true
			mc.reopen()
		}
	}
	g.log.start(&f.cur)
	g.members = append(g.members, f)
	if !f.partialsOnly {
		g.viewers++
	}
	g.mu.Unlock()
	// No firing is in flight yet: the tail transition is registered after
	// Join returns.
	if d != nil && d.Post != nil && f.class == nil {
		f.post = kernel.CompileSteps(d.PostSteps)
	}
}

// leave removes a member (Factory.Stop), releasing its references to the
// logged windows [cursor, head) it has not read, its DAG and post-merge
// trie path references, its merge-class membership — the class's rings
// (and their references on the logged windows) are released when sharing
// ends — and its pair-cache reference. A surviving cache recomputes its
// retention horizon from the remaining members' extents, so a departing
// wide member no longer pins pairs beyond the widest surviving ring. The
// caller must have removed the member's scheduler transition first
// (RemoveWait) so no tail firing is in flight.
func (g *Group) leave(f *Factory) {
	var closeClass *mergeClass
	g.mu.Lock()
	if i := slices.Index(g.members, f); i >= 0 {
		g.members = slices.Delete(slices.Clone(g.members), i, i+1)
		if !f.partialsOnly {
			g.viewers--
		}
	}
	// Every entry published so far counted the member; later ones do not.
	unread := g.log.head.Load() - f.cur.read.Load()
	if mc := f.class; mc != nil {
		mc.refs--
		switch {
		case mc.refs <= 0:
			delete(g.classes, f.cfg.Decomp.ClassKey)
			g.classSlots[mc.ord] = nil
			closeClass = mc
		case mc.refs == 1 && mc.active:
			// Sharing is over: release the rings so a lone survivor stops
			// pinning raw window buffers it would otherwise never need
			// (its private rings still merge every window). A later second
			// member reactivates the class and re-warms the rings.
			mc.active = false
			closeClass = mc
		}
	}
	if f.pc != nil {
		e := g.caches[f.cfg.Decomp.JoinFp]
		e.refs--
		if e.refs <= 0 {
			g.retiredComputed += e.pc.Computed()
			delete(g.caches, f.cfg.Decomp.JoinFp)
		} else {
			e.pc.Release(f.extent)
		}
	}
	g.mu.Unlock()
	if closeClass != nil {
		closeClass.close()
	}
	if f.postLeaf != nil {
		f.class.post.unregister(f.postLeaf, nil)
	}
	for s, leaf := range f.leaf {
		// Only a one-sided group's member has an aggregate node.
		if leaf != nil || f.aggLeaf != nil {
			g.sides[s].dag.unregister(leaf, f.aggLeaf)
		}
	}
	f.cur.read.Add(unread)
	for ; unread > 0; unread-- {
		f.cur.next().release()
	}
}

// addClassSlot gives a new class the lowest free ordinal. Callers hold
// g.mu.
func (g *Group) addClassSlot(mc *mergeClass) {
	for i, x := range g.classSlots {
		if x == nil {
			mc.ord, g.classSlots[i] = i, mc
			return
		}
	}
	mc.ord = len(g.classSlots)
	g.classSlots = append(g.classSlots, mc)
}

// Close tears the group down after the last member left: cancels the
// append subscriptions, releases the local sides' basket cursors, and
// retires the remote sides' fabric specs. The caller must have removed
// the group's shard transitions first (RemoveWait).
func (g *Group) Close() {
	for _, cancel := range g.cancels {
		cancel()
	}
	g.cancels = nil
	for _, s := range g.sides {
		s.fe.close()
		if s.remote != nil && s.remote.Close != nil {
			s.remote.Close()
		}
	}
}

// OfferRemote feeds one remote shard's freshly flushed epoch fragments and
// watermark into side's merger — the fabric-fed counterpart of a (side,
// shard) FireShard delivery. Basic windows sealed by the delivery fan out
// to the members exactly as local ones do (a two-sided group's fan-out
// takes seqMu, so remote and local sides interleave consistently). Safe
// for concurrent calls from different worker connections; out-of-range
// sides or shards are dropped (a confused or stale peer must not panic
// the engine).
func (g *Group) OfferRemote(side, shard int, frags []*window.Frag, wm int64) {
	if side < 0 || side >= len(g.sides) {
		return
	}
	s := g.sides[side]
	if s.remote == nil || shard < 0 || shard >= s.remote.Shards {
		return
	}
	s.fe.mergeMu.Lock()
	notify := s.fe.offer(shard, frags, wm)
	s.fe.mergeMu.Unlock()
	for _, f := range notify {
		g.cfg.NotifyMember(f.cfg.Name)
	}
}

// ShardReady reports whether shard sh of side has pending tuples or
// sealed epochs awaiting flush — the group's per-(side, shard) firing
// condition.
func (g *Group) ShardReady(side, sh int) bool { return g.sides[side].fe.shardReady(sh) }

// FireShard is one firing of side's shard sh: drain, slice, and
// merge-complete any basic windows this shard sealed last, fanning them
// out through the delivery log. Sealed windows wake the members' tail
// transitions.
func (g *Group) FireShard(side, sh int) {
	for _, f := range g.sides[side].fe.fireShard(sh) {
		g.cfg.NotifyMember(f.cfg.Name)
	}
}

// fanout publishes one side's sealed basic windows to the group's
// delivery log, one entry per window, and returns the members whose tail
// transitions need a wake-up. Callers hold the side's mergeMu.
//
// A one-sided group releases the windows in seal order, and each member
// numbers them from its join. A two-sided group first passes them, with
// the side's merger frontier, through its sequencer under seqMu, so every
// member reads the same canonical left/right interleaving — a side that
// seals ahead of the other waits — and generations are group-global per
// side: the shared pair cache keys pairs by them, so all members must
// agree.
func (g *Group) fanout(side int, ready []*window.BW, sealed int64) []*Factory {
	var notify []*Factory
	release := func(side int, bw *window.BW) {
		if m := g.publish(side, bw); m != nil {
			notify = m
		}
	}
	if len(g.sides) == 1 {
		for _, bw := range ready {
			release(side, bw)
		}
		return notify
	}
	g.seqMu.Lock()
	defer g.seqMu.Unlock()
	if g.seq == nil {
		for _, bw := range ready {
			release(side, bw)
		}
		return notify
	}
	g.seq.push(side, ready, sealed, release)
	return notify
}

// publish appends one released window of side to the delivery log and
// feeds it to the active merge-class rings. Its reference count is the
// members at that moment plus the class rings it enters (each ring slot
// holds one, released on eviction); once the class rings cover a full
// window, the entry carries the window's merge cell per class. It returns
// the members (nil: the group had no member, and the window is dropped).
//
// Everything happens under g.mu, where a joining member takes its cursor:
// the entry counts exactly the members that will read it.
func (g *Group) publish(side int, bw *window.BW) []*Factory {
	g.windowsOut.Add(1)
	gen := g.genCtr[side]
	g.genCtr[side]++
	g.mu.Lock()
	defer g.mu.Unlock()
	// Recycle a window's basket storage when its last reference goes only
	// if nothing a reader keeps aliases the runs: in a one-sided group
	// whose members all cache partial aggregates alone — fresh chunks —
	// and whose merge classes therefore merge partials too. A fused
	// filter's selections die with the aggregate's call, before the member
	// releases its reference. Any other member may hold views of the runs
	// past its release (a pipeline output in its ring — the run itself
	// when a filter keeps every row —, a re-evaluation window, a join's
	// pair cache), so those windows drop their leases unreleased and the
	// garbage collector frees the storage once no view references it.
	recycle := len(g.sides) == 1 && g.viewers == 0
	if len(g.members) == 0 {
		if recycle {
			bw.Data.Release() // nobody reads the window
		}
		return nil
	}
	classes := 0
	for _, mc := range g.classSlots {
		if mc != nil && mc.active {
			classes++
		}
	}
	e := g.log.append()
	e.g, e.side, e.recycle, e.gen = g, side, recycle, gen
	e.data, e.maxArrival, e.free = bw.Data, bw.MaxArrival, e.release
	e.refs.Store(int32(len(g.members) + classes))
	g.liveBufs.Add(1)
	if d := g.sides[side].dag; classes > 0 || d.Nodes() > 0 {
		e.dw = d.newWin(kernel.RunsView(bw.Data))
	}
	if classes > 0 {
		e.cells = make([]*mergeCell, len(g.classSlots))
		for _, mc := range g.classSlots {
			if mc != nil && mc.active {
				e.cells[mc.ord] = mc.push(side, gen, e.dw, e.free)
			}
		}
	}
	g.log.head.Add(1)
	return g.members
}
