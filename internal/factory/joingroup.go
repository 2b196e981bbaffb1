package factory

import (
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/plan"
	"datacell/internal/window"
)

// JoinGroup is a shared execution group over a stream pair: the extension
// of Group to stream⋈stream joins (paper §Complex Queries). Two front
// ends — one per join side — drain, sequence and slice their streams
// once, no matter how many join queries consume the pair; sealed basic
// windows are fanned out to every member in one global interleaving (so
// all members pair left and right windows identically), each side's
// member pipelines share an operator DAG, and queries with the same join
// fingerprint share one pair cache: each (left, right) basic-window pair
// is joined once for the whole group and survives slides under the
// watermark eviction protocol of window.SharedPairCache.
type JoinGroup struct {
	cfg     JoinGroupConfig
	fes     [2]*frontEnd
	dags    [2]*dag
	postDag *dag // post-merge trie, rooted at each class's merged join view

	liveBufs    atomic.Int64
	windowsOut  atomic.Int64
	memoHits    atomic.Int64
	memoMisses  atomic.Int64
	mergeHits   atomic.Int64 // merged join views served from a sibling's evaluation
	mergeMisses atomic.Int64 // actual merged-view evaluations
	postHits    atomic.Int64 // post-merge fragments served from the trie memo
	postMisses  atomic.Int64 // actual post-merge fragment evaluations

	cancels []func()

	// seqMu orders fan-outs across the two sides: every member observes
	// the same left/right interleaving, which is what makes the shared
	// pair cache and the members' emission sequences line up. seq fixes
	// that interleaving to the canonical order a private join factory
	// uses (by window end, see inputSeq), so it does not depend on which
	// side's shards fired first. Grouped joins decompose, so their two
	// windows are of one kind and seq is never nil.
	seqMu  sync.Mutex
	seq    *inputSeq
	genCtr [2]int64 // per-side group-global basic-window generations

	mu      sync.Mutex
	members []*JoinMember
	caches  map[string]*jcEntry
	classes map[string]*jmergeClass // join merge classes by plan.JoinMergeKey
	// retiredComputed accumulates Computed() of pair caches whose last
	// member left, so the group's PairsComputed stays cumulative instead
	// of regressing when a fingerprint retires mid-session.
	retiredComputed int64
}

// Both group kinds satisfy the engine-facing contract.
var (
	_ SharedGroup = (*Group)(nil)
	_ SharedGroup = (*JoinGroup)(nil)
)

// jcEntry refcounts one shared pair cache (one per distinct join
// fingerprint among the members).
type jcEntry struct {
	pc   *window.SharedPairCache
	refs int
}

// JoinGroupConfig assembles a join group.
type JoinGroupConfig struct {
	// Key is the plan.JoinGroupKey the members agreed on.
	Key string
	// SchedGroup is the instance-unique scheduler group of the shard
	// transitions (both sides share it).
	SchedGroup string
	// Left and Right are the two windowed stream scans, in plan order.
	Left, Right *plan.ScanStream
	// Now supplies the clock in microseconds.
	Now func() int64
	// NotifyMember re-enables a member query's tail transition.
	NotifyMember func(query string)
	// NotifyShards re-enables the group's shard transitions.
	NotifyShards func()
	// Remote marks fabric-fed sides, indexed like the scans (0 = Left).
	// A remote side's shard front ends — basket cursors, slicers, per-shard
	// firings — run in worker processes, and its sealed epoch fragments
	// arrive via OfferRemote; only the min-watermark merger runs here. The
	// two sides are independent: a join may pair a remote stream with a
	// local one, and the group's pairing, DAGs, merge classes and pair
	// caches work unchanged on remote windows.
	Remote [2]*RemoteSource
}

// JoinMember is one join query's membership: a queue of (side, basic
// window) events in the group's global pairing order, drained by the
// query's tail transition. Incremental members and re-evaluation members
// run through the same machinery — the decomposition certifies that a
// re-evaluation join's full-window recompute equals the merge of cached
// basic-window pairs, so both modes share the fingerprint-keyed pair
// cache.
type JoinMember struct {
	g     *JoinGroup
	query string
	fac   *Factory

	leaf  [2]*dagNode // per-side pipeline leaves (nil: evaluate privately)
	pcKey string
	pc    *window.SharedPairCache
	parts int // the member's window extent, released from pc on Leave

	// Shared-merge state. classKey is the member's plan.JoinMergeKey (""
	// when the member merges privately: non-linearizing pipelines, NoMemo,
	// or NoSharedMerge). postLeaf is the member's post-merge chain in the
	// group's post-merge trie (nil when the plan has no post fragment, or
	// when it did not linearize — hasPost distinguishes the two). seen
	// counts windows fanned to this member per side — touched only under
	// the group's seqMu — so a late joiner is served by merge cells only
	// once its own rings are warm: its first full window must cover
	// exactly the windows it received, as it would alone.
	classKey string
	postLeaf *dagNode
	hasPost  bool
	seen     [2]int64

	q memberQueue[joinEvent]
}

// joinEvent is one fanned-out basic window: its join side, the member's
// refcounted view, the side's shared memo table, and — for warm merge-
// class members — the window's merged-join-view memo cell.
type joinEvent struct {
	side int
	bw   *window.BW
	dw   *dagWin
	cell *jmergeCell
}

// NewJoinGroup builds a join group over the two stream baskets. Like
// NewGroup it registers basket consumers immediately but subscribes to
// append notifications only after the first member joined.
func NewJoinGroup(cfg JoinGroupConfig) *JoinGroup {
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixMicro() }
	}
	scans := [2]*plan.ScanStream{cfg.Left, cfg.Right}
	g := &JoinGroup{cfg: cfg, postDag: newDAG(),
		seq:     newInputSeq([]*plan.Window{cfg.Left.Window, cfg.Right.Window}),
		caches:  make(map[string]*jcEntry),
		classes: make(map[string]*jmergeClass)}
	for side, sc := range scans {
		side := side
		if r := cfg.Remote[side]; r != nil {
			g.fes[side] = newRemoteFrontEnd(r.Shards, sc.Window, sc.Out)
		} else {
			g.fes[side] = newFrontEnd(sc.Stream.Basket, sc.Window, sc.Out)
		}
		g.fes[side].sink = func(ready []*window.BW, sealed int64) map[string]bool {
			return g.fanout(side, ready, sealed)
		}
		g.dags[side] = newDAG()
	}
	return g
}

// SubscribeAppend wires the shard transitions to the local sides' basket
// append notifications. Remote sides have no shard transitions to wake —
// their windows arrive over the wire.
func (g *JoinGroup) SubscribeAppend() {
	if g.cfg.NotifyShards == nil {
		return
	}
	scans := [2]*plan.ScanStream{g.cfg.Left, g.cfg.Right}
	for side, sc := range scans {
		if g.cfg.Remote[side] != nil {
			continue
		}
		g.cancels = append(g.cancels, sc.Stream.Basket.OnAppend(g.cfg.NotifyShards))
	}
}

// Key reports the group key.
func (g *JoinGroup) Key() string { return g.cfg.Key }

// Kind reports the group kind ("join").
func (g *JoinGroup) Kind() string { return "join" }

// SchedGroup reports the instance-unique scheduler group name.
func (g *JoinGroup) SchedGroup() string { return g.cfg.SchedGroup }

// NumShards reports one side's shard count (one transition per (side,
// shard)).
func (g *JoinGroup) NumShards(side int) int { return len(g.fes[side].shards) }

// Shards implements SharedGroup: the total shard count across both sides
// — local shard transitions, or, for a fabric-fed side, the remote shards
// whose fragments its merger assembles.
func (g *JoinGroup) Shards() int {
	total := 0
	for side := range g.fes {
		if r := g.cfg.Remote[side]; r != nil {
			total += r.Shards
		} else {
			total += len(g.fes[side].shards)
		}
	}
	return total
}

// Members reports the current member count.
func (g *JoinGroup) Members() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}

// LiveBufs reports sealed window buffers still referenced by a member.
func (g *JoinGroup) LiveBufs() int64 { return g.liveBufs.Load() }

// WindowsOut reports basic windows fanned out across both sides.
func (g *JoinGroup) WindowsOut() int64 { return g.windowsOut.Load() }

// DagNodes reports distinct operator nodes across both side DAGs.
func (g *JoinGroup) DagNodes() int { return g.dags[0].Nodes() + g.dags[1].Nodes() }

// MemoHits reports operator evaluations served from the shared memos.
func (g *JoinGroup) MemoHits() int64 { return g.memoHits.Load() }

// MemoMisses reports actual operator evaluations (memo fills).
func (g *JoinGroup) MemoMisses() int64 { return g.memoMisses.Load() }

// MergeStats reports the active join merge classes (group-owned ring
// pairs serving two or more members) and the merged-view memo counters:
// hits are merged join views served from a sibling's evaluation, misses
// actual merged-view evaluations — for N class members, one miss and N-1
// hits per fanned-out window once everyone is warm.
func (g *JoinGroup) MergeStats() (classes int, hits, misses int64) {
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
// nodes (HAVING filters, final aggregates, sorts, limits above the join)
// registered across members and the trie's memo counters.
func (g *JoinGroup) PostStats() (nodes int, hits, misses int64) {
	return g.postDag.Nodes(), g.postHits.Load(), g.postMisses.Load()
}

// PairStats reports the shared pair caches: distinct live caches, live
// cached pairs, and pair evaluations ever computed (cumulative across
// retired caches, so the counter never regresses mid-session).
func (g *JoinGroup) PairStats() (caches, pairs int, computed int64) {
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

// Join adds a join query as a member: its side pipelines register in the
// side DAGs (unless NoMemo), and it acquires the shared pair cache of its
// join fingerprint — created on first use — which replaces the factory's
// private cache. The member starts at the next sealed basic window of
// each side.
func (g *JoinGroup) Join(query string, fac *Factory) *JoinMember {
	m := &JoinMember{g: g, query: query, fac: fac}
	d := fac.cfg.Decomp
	piped := !fac.cfg.NoMemo
	if !fac.cfg.NoMemo {
		for side := 0; side < 2; side++ {
			if steps, ok := d.StepsMemo(side); ok {
				m.leaf[side], _ = g.dags[side].register(steps, nil, "")
			} else {
				piped = false
			}
		}
	}
	m.pcKey = d.JoinFingerprintMemo()
	var classKey string
	if piped && !fac.cfg.NoSharedMerge {
		// Both side pipelines linearized into the side DAGs, so the merged
		// join view is a deterministic function of the class rings — the
		// member can resolve it from the class's shared merge cells. The
		// class key embeds the join fingerprint, which covers both side
		// pipelines: class siblings necessarily share this pair cache too.
		classKey, _ = d.JoinMergeKeyMemo()
	}
	if classKey != "" && d.Post != nil {
		m.hasPost = true
		if psteps, ok := d.PostStepsMemo(classKey); ok {
			m.postLeaf, _ = g.postDag.register(psteps, nil, "")
		}
	}
	g.mu.Lock()
	e := g.caches[m.pcKey]
	if e == nil {
		e = &jcEntry{pc: window.NewSharedPairCache(d.Join)}
		g.caches[m.pcKey] = e
	}
	e.refs++
	m.pc = e.pc
	// Decompose requires the two sides' windows to slide in lockstep, so
	// their extents agree today — take the max anyway so the retention
	// horizon stays correct if that invariant ever loosens.
	m.parts = d.Pipelines[0].Scan.Window.Parts()
	if p := d.Pipelines[1].Scan.Window.Parts(); p > m.parts {
		m.parts = p
	}
	m.pc.Retain(m.parts)
	if classKey != "" {
		m.classKey = classKey
		mc := g.classes[classKey]
		if mc == nil {
			mc = &jmergeClass{key: classKey, parts: m.parts, pc: e.pc, leaf: m.leaf}
			g.classes[classKey] = mc
		}
		mc.refs++
		if mc.refs >= 2 && !mc.active {
			// The rings start (or, after a drop back to one member,
			// restart) filling from the next fanned-out window.
			mc.active = true
			mc.reopen()
		}
	}
	g.members = append(g.members, m)
	g.mu.Unlock()
	fac.SetPairCache(m.pc)
	return m
}

// Leave removes a member, releasing queued windows, DAG references and
// its pair-cache reference. A surviving cache recomputes its retention
// horizon from the remaining members' extents, so a departing wide
// member no longer pins pairs beyond the widest surviving ring. The
// caller must have removed the member's tail transition first
// (RemoveWait).
func (g *JoinGroup) Leave(m *JoinMember) {
	var closeClass *jmergeClass
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
				// Sharing is over: release the ring pair so a lone survivor
				// stops pinning raw window buffers (its private ring still
				// merges every window). A later second member reactivates
				// the class and re-warms the rings.
				mc.active = false
				closeClass = mc
			}
		}
	}
	if e := g.caches[m.pcKey]; e != nil {
		e.refs--
		if e.refs <= 0 {
			g.retiredComputed += e.pc.Computed()
			delete(g.caches, m.pcKey)
		} else {
			e.pc.Release(m.parts)
		}
	}
	g.mu.Unlock()
	if closeClass != nil {
		closeClass.close()
	}
	if m.postLeaf != nil {
		g.postDag.unregister(m.postLeaf)
	}
	for side := 0; side < 2; side++ {
		if m.leaf[side] != nil {
			g.dags[side].unregister(m.leaf[side])
		}
	}
	for _, ev := range m.q.closeDrain() {
		ev.bw.ReleaseData()
	}
}

// Close tears the group down after the last member left: cancels the
// append subscriptions, releases the local sides' basket cursors, and
// retires the remote sides' fabric specs. The caller must have removed
// the shard transitions first (RemoveWait).
func (g *JoinGroup) Close() {
	for _, cancel := range g.cancels {
		cancel()
	}
	g.cancels = nil
	for side := range g.fes {
		g.fes[side].close()
		if r := g.cfg.Remote[side]; r != nil && r.Close != nil {
			r.Close()
		}
	}
}

// ShardReady reports whether shard sh of side has work — the per-(side,
// shard) firing condition.
func (g *JoinGroup) ShardReady(side, sh int) bool { return g.fes[side].shardReady(sh) }

// FireShard is one firing of side's shard sh. Sealed windows wake the
// member tails; a raised event-time watermark re-notifies the group's
// shard transitions.
func (g *JoinGroup) FireShard(side, sh int) {
	notify, raised := g.fes[side].fireShard(sh)
	for q := range notify {
		g.cfg.NotifyMember(q)
	}
	if raised && g.cfg.NotifyShards != nil {
		g.cfg.NotifyShards()
	}
}

// fanout hands one side's sealed basic windows, and its merger's sealed
// frontier, to the group's sequencer, and every window the sequencer
// releases to every member. Callers hold that side's mergeMu; seqMu
// additionally serializes the two sides so every member's queue carries
// the same left/right interleaving — the canonical one of inputSeq, so a
// side that seals ahead of the other waits — and basic-window generations
// are group-global per side: the shared pair cache keys pairs by them, so
// all members must agree.
func (g *JoinGroup) fanout(side int, ready []*window.BW, sealed int64) map[string]bool {
	g.mu.Lock()
	members := make([]*JoinMember, len(g.members))
	copy(members, g.members)
	var classes []*jmergeClass
	for _, mc := range g.classes {
		if mc.active {
			classes = append(classes, mc)
		}
	}
	g.mu.Unlock()

	needDag := [2]bool{g.dags[0].Nodes() > 0, g.dags[1].Nodes() > 0}
	notify := make(map[string]bool, len(members))
	g.seqMu.Lock()
	defer g.seqMu.Unlock()
	release := func(side int, bw *window.BW) {
		g.windowsOut.Add(1)
		gen := g.genCtr[side]
		g.genCtr[side]++
		if len(members) == 0 {
			return
		}
		g.liveBufs.Add(1)
		buf := window.NewSharedBuf(bw.Data, len(members)+len(classes), func() { g.liveBufs.Add(-1) })
		var dw *dagWin
		if needDag[side] {
			dw = newDagWin()
		}
		var cells map[string]*jmergeCell
		if len(classes) > 0 {
			cells = make(map[string]*jmergeCell, len(classes))
			for _, mc := range classes {
				if cell := mc.push(side, gen, dw, buf.Data(), buf.Release); cell != nil {
					cells[mc.key] = cell
				}
			}
		}
		for _, m := range members {
			mbw := &window.BW{Gen: gen, Data: buf.Data(), MaxArrival: bw.MaxArrival, Free: buf.Release}
			ev := joinEvent{side: side, bw: mbw, dw: dw}
			if m.classKey != "" {
				// The cell serves this member only once its own rings are
				// warm: a late joiner's first full window must cover exactly
				// the windows it received, as it would alone.
				m.seen[side]++
				if cell := cells[m.classKey]; cell != nil &&
					m.seen[0] >= int64(cell.mc.parts) && m.seen[1] >= int64(cell.mc.parts) {
					ev.cell = cell
				}
			}
			if !m.q.enqueue(ev) {
				mbw.ReleaseData() // member left between snapshot and enqueue
				continue
			}
			notify[m.query] = true
		}
	}
	g.seq.push(side, ready, sealed, release)
	return notify
}

// OfferRemote feeds one remote shard's freshly flushed epoch fragments
// and watermark into side's merger — the fabric-fed counterpart of a
// (side, shard) FireShard delivery. Basic windows sealed by the delivery
// fan out into the group's global pairing order exactly as local ones do
// (fanout takes seqMu, so remote and local sides interleave
// consistently). Safe for concurrent calls from different worker
// connections; out-of-range sides or shards are dropped.
func (g *JoinGroup) OfferRemote(side, shard int, frags []*window.Frag, wm int64) {
	if side < 0 || side > 1 {
		return
	}
	r := g.cfg.Remote[side]
	if r == nil || shard < 0 || shard >= r.Shards {
		return
	}
	fe := g.fes[side]
	fe.mergeMu.Lock()
	notify := fe.offer(shard, frags, wm)
	fe.mergeMu.Unlock()
	for q := range notify {
		g.cfg.NotifyMember(q)
	}
}

// Advance closes time-window buckets up to the watermark on both sides.
// Fabric-fed sides forward the watermark to the worker processes, whose
// slicers own the open buckets; the flushed fragments come back through
// OfferRemote.
func (g *JoinGroup) Advance(watermark int64) {
	for side, fe := range g.fes {
		if r := g.cfg.Remote[side]; r != nil {
			if r.Advance != nil {
				r.Advance(watermark)
			}
			continue
		}
		for q := range fe.advance(watermark) {
			g.cfg.NotifyMember(q)
		}
	}
}

// Query reports the member's query name.
func (m *JoinMember) Query() string { return m.query }

// Ready reports whether fanned-out basic windows await the member's tail.
func (m *JoinMember) Ready() bool { return m.q.ready() }

// Fire drains the member's queue in the group's pairing order: each
// window's side pipeline resolves through the shared DAG memo (one
// evaluation per distinct operator across all members). Merge-class
// members then resolve the merged join view through the window's merge
// cell (one pair-cache maintenance + merge evaluation per fanned-out
// window across the class) and their post-merge fragment through the
// post-merge trie, so the factory tail only emits; everyone else pushes
// into the side ring and merges the live pair set through the shared pair
// cache privately. It returns the number of result sets emitted.
func (m *JoinMember) Fire() int {
	items := m.q.drain()
	evs := make([]SharedBW, 0, len(items))
	for _, ev := range items {
		if ev.dw != nil && m.leaf[ev.side] != nil {
			ev.bw.Out = m.g.dags[ev.side].eval(ev.dw, m.leaf[ev.side], ev.bw.Data,
				&m.g.memoHits, &m.g.memoMisses)
		}
		if ev.cell != nil {
			merged, pdw, computed := ev.cell.eval(m.g)
			if computed {
				m.g.mergeMisses.Add(1)
			} else {
				m.g.mergeHits.Add(1)
			}
			switch {
			case m.postLeaf != nil:
				ev.bw.Final = m.g.postDag.eval(pdw, m.postLeaf, merged, &m.g.postHits, &m.g.postMisses)
			case m.hasPost:
				// Post fragment exists but did not linearize: the tail runs
				// it privately over the shared merged view.
				ev.bw.Merged = merged
			default:
				ev.bw.Final = merged
			}
		}
		evs = append(evs, SharedBW{Input: ev.side, BW: ev.bw})
	}
	return m.fac.SharedFire(evs)
}
