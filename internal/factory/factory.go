// Package factory implements DataCell's factories: the co-routine-like
// executors of continuous query plans (paper §3). "Each factory encloses a
// (partial) query plan and produces a partial result at each call. For
// this, a factory continuously reads data from the input baskets,
// evaluates its query plan and creates a result set, which it then places
// in its output baskets. The factory remains active as long as the
// continuous query remains in the system."
//
// A factory runs in one of the paper's two execution modes, both on the
// kernel operators (internal/kernel), which differ only in what they feed.
// The plan's decomposition alone picks one:
//   - Re-evaluation (mode 1, no decomposition): every firing runs the
//     complete plan (kernel.Run) over the full current window, one view
//     over its basic windows' runs (or over the new batch, for
//     non-windowed queries).
//   - Incremental (mode 2, a decomposition): the decomposition's
//     linearized chains (plan.Decompose derives them once per plan)
//     compute per-basic-window intermediates once, cached in columnar form
//     and merged per slide, and the post-merge chain runs over the merged
//     view. A factory compiles each chain once: as nodes of the group's
//     shared tries, or, outside them, as its own chain. The kernel's step
//     kernels evaluate both, memoized step by step in the tries or in one
//     pooled call (kernel.AggregateSteps, kernel.MaterializeSteps) for a
//     private one. A re-evaluation join whose plan decomposes runs this
//     tail too: the decomposition certifies that its full-window recompute
//     equals the merge of cached basic-window pairs.
//
// Every continuous query runs as a member of an execution group (Group):
// the group's front ends drain every shard of every input basket, cut the
// rows into globally consistent epochs (window.ShardSlicer), merge the
// shards' fragments into basic windows (window.ShardMerge) and fan them
// out once, into the group's delivery log. A Factory is one query's
// membership and tail: it reads the log from its own cursor and, per
// logged window, runs ring maintenance, its own per-basic-window chain
// when it is outside the group's DAG, the merge of the window's cached
// intermediates (mergeView, or the pair cache's for a join), join caching
// and the post-merge chain, then emits. A non-windowed input's front end
// hands over each basket segment as its own batch, which the tail
// evaluates with the full plan (mode 1).
//
// Shared multi-query execution: continuous queries over the same stream
// and slide granularity run as members of one shared execution group
// (over one stream or over the two sides of a stream⋈stream join, each
// with its own front end); every other query is the sole member of a
// private group. A shared group drains, sequences
// and slices the stream once for all members and fans sealed basic
// windows out as refcounted immutable views. On top of the shared
// slice, common member work deduplicates stage by stage: identical
// pipeline prefixes and partial aggregates evaluate once per window
// through a memoizing operator DAG (dag.go), identical full-window
// merges evaluate once per class through group-owned merge rings
// (mergeclass.go), identical post-merge fragments evaluate once through
// a second trie rooted at each merged view, and join groups share one
// basic-window pair cache per join fingerprint. See DESIGN-SHARING.md
// at the repository root for the end-to-end narrative and invariants.
package factory

import (
	"sync"
	"time"

	"datacell/internal/bat"
	"datacell/internal/emitter"
	"datacell/internal/kernel"
	"datacell/internal/plan"
	"datacell/internal/window"
)

// Mode selects the execution strategy.
type Mode uint8

// The two execution modes of the demo (§4, Simple Re-evaluation Scenarios
// and Sliding Window Processing).
const (
	Reeval Mode = iota
	Incremental
)

// String renders the mode name.
func (m Mode) String() string {
	if m == Incremental {
		return "incremental"
	}
	return "reeval"
}

// Config assembles a factory.
type Config struct {
	// Name is the continuous query name.
	Name string
	// Full is the optimized full plan (always required; re-evaluation runs
	// it directly, the decomposed tail keeps it for inspection).
	Full plan.Node
	// Decomp is the incremental decomposition. It alone selects the tail:
	// with one the factory runs the decomposed tail, without one it
	// re-evaluates Full.
	Decomp *plan.Decomposition
	// Mode labels the strategy the query was registered with (Stats.Mode,
	// ContinuousPlanString). A re-evaluation join whose plan decomposes
	// keeps the reeval label and runs the decomposed tail.
	Mode Mode
	// NoMemo opts a shared member out of the group's operator DAG: its
	// per-basic-window pipeline always evaluates privately, as if no
	// sibling shared a prefix. Benchmarks use it to measure what the memo
	// buys; it never changes results. It implies NoSharedMerge (merge
	// classes build on the DAG's cached intermediates).
	NoMemo bool
	// NoSharedMerge opts a shared member out of its group's merge classes
	// and post-merge trie: the member keeps resolving its per-basic-window
	// pipeline through the DAG but merges full windows — and runs its
	// post-merge fragment — privately, as before PR 4. Benchmarks use it
	// to measure what sharing past the merge boundary buys; it never
	// changes results.
	NoSharedMerge bool
	// Emit receives every evaluation's result set.
	Emit emitter.Emitter
	// Now supplies the wall clock in microseconds; defaults to the system
	// clock. Benchmarks inject logical clocks.
	Now func() int64
}

// Stats is a snapshot of a factory's counters, feeding the demo's analysis
// pane.
type Stats struct {
	Name     string
	Mode     string
	Firings  int64 // tail activations
	Evals    int64 // window/batch evaluations (results emitted)
	TuplesIn int64
	RowsOut  int64
	// BusyUsec sums the tail activations' wall time, each read off the
	// engine clock in whole microseconds (a shorter one may add 0).
	BusyUsec    int64
	LastLatency int64 // response time of the newest result (µs)
	MaxLatency  int64
	SumLatency  int64 // across evals, for averaging
	CachedPairs int   // live join-pair cache entries (join plans)
}

// Factory is one continuous query's membership in its execution group and
// the tail it runs over the basic windows the group fans out: a cursor
// into the group's delivery log, read in the group's fan-out order, and
// the rings, chains and counters of the query's evaluation. It is not
// reentrant: the scheduler guarantees a single in-flight Fire.
type Factory struct {
	cfg Config
	// scans are Full's stream scans (plan.Streams), one tail input each, in
	// order; rings holds, per input, the merged basic windows its current
	// window spans (nil for a non-windowed scan).
	scans []*plan.ScanStream
	rings []*window.Ring
	g     *Group // set by Group.Join

	// leaf holds the per-side pipeline leaves in the side DAGs (nil:
	// evaluate privately) and aggLeaf the partial-aggregate node (one-sided
	// groups only). Such a factory resolves Partial (one-sided aggregate
	// plans) or Out (all others) through the shared memo before the merge
	// stage. partialsOnly: the factory keeps nothing of a basic window but
	// its partial aggregate, computed by a kernel — through aggLeaf, or
	// through its own chain, which leaves Out nil for aggregate plans.
	leaf         []*dagNode
	aggLeaf      *dagNode
	partialsOnly bool

	// extent is the window extent in basic windows: the merge class's ring
	// length and, in a two-sided group, what the factory retains in (and
	// releases from, on leave) pc, the shared pair cache of its join
	// fingerprint.
	extent int
	pc     *window.SharedPairCache

	// Shared-merge state. class is the merge class of the plan's ClassKey
	// (nil when the factory merges privately: re-evaluation scans, NoMemo,
	// or NoSharedMerge). postLeaf is the post-merge chain in the class's
	// post-merge trie (nil when the plan has no post fragment) and postTop
	// its first node: while postTop is not shared, no other chain reads
	// any node of this one.
	class    *mergeClass
	postLeaf *dagNode
	postTop  *dagNode

	// cur is the position in the group's delivery log; seen counts the
	// windows read per side, and a one-sided factory's windows are numbered
	// by it. Only Fire (and leave, once no firing is in flight) moves them.
	cur  logCursor
	seen []int64

	// steps holds the per-basic-window chains, one per side, that the
	// factory evaluates itself: compiled only outside the group's DAG
	// (NoMemo); a factory in the DAG resolves its windows there, and its
	// raw (empty-chain) side reads the window as it is. post is the
	// post-merge chain (nil without a post fragment): the path in the merge
	// class's post-merge trie, compiled on its own only without a class.
	// Group.Join sets both; hint pre-sizes the private partial aggregate's
	// grouping with the last one's cardinality.
	steps [][]*kernel.Step
	post  []*kernel.Step
	hint  int
	// parts is the private merge stage's list of the live windows'
	// intermediates, reused across slides and emptied after each.
	parts []*bat.Chunk

	mu    sync.Mutex
	seq   int64
	stats Stats
	// recentLat is a bounded sample of the newest evaluations' response
	// times (µs) — the sample behind per-query latency percentiles in the
	// /metrics exporter and the multi-tenant harness. It is allocated at
	// the first evaluation, so a query that never evaluates holds none,
	// fills up to recentLatSize entries, then wraps at recentPos, the
	// oldest entry.
	recentLat []int64
	recentPos int
}

// recentLatSize bounds the per-factory latency sample. 512 evaluations
// cover several seconds at realistic seal rates — enough for a stable
// p99 without per-eval allocation.
const recentLatSize = 512

// New builds a factory. It reads nothing until it joins a group
// (Group.Join), whose front ends feed its tail.
func New(cfg Config) *Factory {
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixMicro() }
	}
	scans := plan.Streams(cfg.Full)
	f := &Factory{cfg: cfg, scans: scans, rings: make([]*window.Ring, len(scans)), steps: make([][]*kernel.Step, len(scans))}
	f.stats.Name = cfg.Name
	f.stats.Mode = cfg.Mode.String()
	for i, s := range scans {
		if s.Window != nil {
			f.rings[i] = window.NewRing(s.Window.Parts())
		}
	}
	return f
}

// Group reports the execution group the factory joined (nil before
// Group.Join).
func (f *Factory) Group() *Group { return f.g }

// Scans lists the plan's stream scans, the tail's inputs in order: the
// sides of the group it joins.
func (f *Factory) Scans() []*plan.ScanStream { return f.scans }

// Baskets lists the names of the factory's input baskets (for the query
// network view).
func (f *Factory) Baskets() []string {
	out := make([]string, len(f.scans))
	for i, s := range f.scans {
		out[i] = s.Stream.Basket.Name()
	}
	return out
}

// PlanString renders the full (optimized) plan.
func (f *Factory) PlanString() string { return plan.String(f.cfg.Full) }

// ContinuousPlanString renders the continuous form: the incremental
// decomposition for an incremental query, otherwise the full plan
// annotated with the re-evaluation mode.
func (f *Factory) ContinuousPlanString() string {
	if f.cfg.Mode == Incremental {
		return f.cfg.Decomp.ContinuousString()
	}
	return "-- re-evaluate per firing --\n" + plan.String(f.cfg.Full)
}

// Stop tears the tail down in one call: it leaves its group, releasing
// the logged windows [cursor, head) it has not read — they are dropped,
// never evaluated —, releases the windows its rings still hold, and
// closes its emitter. The caller must ensure no firing is in flight (the
// engine uses scheduler.RemoveWait).
func (f *Factory) Stop() {
	if f.g != nil {
		f.g.leave(f)
	}
	for _, r := range f.rings {
		if r != nil {
			for _, bw := range r.Live() {
				bw.ReleaseData()
			}
		}
	}
	f.cfg.Emit.Close()
}

// Stats returns a snapshot of the factory's counters.
func (f *Factory) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	if f.pc != nil {
		s.CachedPairs = f.pc.Pairs()
	}
	return s
}

// RecentLatencies copies the bounded sample of the newest evaluations'
// response times (µs), oldest first. Percentile consumers (the /metrics
// p99 gauge, the multi-tenant harness) sort their own copy.
func (f *Factory) RecentLatencies() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int64, 0, len(f.recentLat))
	out = append(out, f.recentLat[f.recentPos:]...)
	return append(out, f.recentLat[:f.recentPos]...)
}

// Ready reports whether logged basic windows await the tail — the firing
// condition of the query's scheduler transition. It reads atomics only
// (the scheduler calls it under its own lock).
func (f *Factory) Ready() bool { return f.cur.read.Load() < f.g.log.head.Load() }

// Fire reads the delivery log from the factory's cursor to the head it
// finds and runs the tail once per window, in fan-out order. A factory
// registered in the side DAGs resolves its partial aggregate (or, without
// one, its pipeline output) through the window's memo first — evaluating
// each distinct operator once across all members. A warm merge-class
// member then resolves the merged view through the window's merge cell
// (one merge evaluation per sealed window across the class) and its
// post-merge fragment through the post-merge trie, so its tail only
// emits; everyone else merges privately (a join through the shared pair
// cache). The window itself is a value the tail keeps in a ring slot, so
// a member-window allocates nothing. It returns the number of result sets
// emitted.
func (f *Factory) Fire() int {
	head := f.g.log.head.Load()
	read := f.cur.read.Load()
	if read == head {
		return 0
	}
	start, tuples, n := f.cfg.Now(), int64(0), 0
	for ; read < head; read++ {
		e := f.cur.next()
		bw := window.BW{Gen: e.gen, Data: e.data, MaxArrival: e.maxArrival, Free: e.free}
		if len(f.seen) == 1 {
			bw.Gen = f.seen[0]
		}
		f.seen[e.side]++
		if e.data != nil {
			tuples += int64(e.data.Rows())
		}
		if e.dw != nil {
			// A factory resolves only the node its tail consumes: the
			// partial aggregate when it has one (its ring keeps partials
			// only, so the pipeline leaf never materializes for it), the
			// pipeline leaf otherwise. The raw-data reference is released
			// by incrementalStep.
			switch {
			case f.aggLeaf != nil:
				bw.Partial = eval(e.dw, f.aggLeaf, &f.g.memoHits, &f.g.memoMisses)
			case f.leaf[e.side] != nil:
				bw.Out = eval(e.dw, f.leaf[e.side], &f.g.memoHits, &f.g.memoMisses)
			}
		}
		if mc := f.class; mc != nil && e.cells != nil && e.cells[mc.ord] != nil && f.warm(mc.parts) {
			f.resolveFinal(&bw, e.cells[mc.ord])
		}
		n += f.onBasicWindow(e.side, bw)
	}
	f.cur.read.Store(head)
	f.mu.Lock()
	f.stats.Firings++
	f.stats.TuplesIn += tuples
	f.stats.BusyUsec += f.cfg.Now() - start
	f.mu.Unlock()
	return n
}

// warm reports whether the factory has read a full window on every side —
// only then may a merge cell serve it: a late joiner's first full window
// must cover exactly the windows it read, as it would alone.
func (f *Factory) warm(parts int) bool {
	for _, n := range f.seen {
		if n < int64(parts) {
			return false
		}
	}
	return true
}

// resolveFinal sets bw.Final from the window's merge cell: the class's
// merged view, through the post-merge chain.
func (f *Factory) resolveFinal(bw *window.BW, cell *mergeCell) {
	merged, pdw, computed := cell.eval()
	if computed {
		f.g.mergeMisses.Add(1)
	} else {
		f.g.mergeHits.Add(1)
	}
	switch {
	case f.postLeaf == nil:
		bw.Final = merged
	case pdw == nil || !f.postTop.shared.Load():
		// No other chain reads a node of this one (or none did when the
		// cell was evaluated): the factory evaluates it alone, counting one
		// miss per node as the memo would.
		bw.Final = kernel.MaterializeSteps(f.post, merged)
		f.g.postMisses.Add(int64(len(f.post)))
	default:
		bw.Final = eval(pdw, f.postLeaf, &f.g.postHits, &f.g.postMisses)
	}
}

// evalBatch handles non-windowed continuous queries: the paper's mode 1
// applied to each arriving batch (one basket segment, handed over as a
// basic window). The batch feeds its own scan; any other stream scans in
// the plan see empty input and are evaluated on their own batches as
// their data arrives. The batch's data is released after evaluation.
func (f *Factory) evalBatch(scan *plan.ScanStream, bw window.BW) int {
	defer bw.ReleaseData()
	out, err := kernel.Run(f.cfg.Full, map[plan.Node]*kernel.View{scan: kernel.RunsView(bw.Data)})
	if err != nil {
		return 0
	}
	f.emit(out.Materialize(), bw.MaxArrival, genIsSeq)
	return 1
}

// genIsSeq asks emit to use the emission sequence number as TriggerGen —
// the batch generation of non-windowed queries (emitter.Meta documents
// TriggerGen as "the basic window (or batch) sequence number").
const genIsSeq = int64(-1)

// onBasicWindow advances the window state of input idx with a merged,
// completed basic window and evaluates if a slide completed; a non-
// windowed input's window is one batch, evaluated on its own. A factory
// with a decomposition runs the decomposed tail, one without re-evaluates
// the full plan over the rings.
func (f *Factory) onBasicWindow(idx int, bw window.BW) int {
	ring := f.rings[idx]
	if ring == nil {
		return f.evalBatch(f.scans[idx], bw)
	}
	if f.cfg.Decomp != nil {
		return f.incrementalStep(idx, bw)
	}
	ring.Push(bw)
	if !f.ringsFull() {
		return 0
	}
	leaves := make(map[plan.Node]*kernel.View, len(f.rings))
	for i, s := range f.scans {
		leaves[s] = kernel.RunsView(f.rings[i].Runs(s.Out))
	}
	out, err := kernel.Run(f.cfg.Full, leaves)
	if err != nil {
		return 0
	}
	f.emit(out.Materialize(), f.triggerArrival(bw.MaxArrival), bw.Gen)
	return 1
}

func (f *Factory) ringsFull() bool {
	for _, r := range f.rings {
		if r != nil && !r.Full() {
			return false
		}
	}
	return true
}

// triggerArrival picks the arrival stamp representing the data that
// triggered this evaluation: the new basic window's newest tuple
// (maxArrival), falling back to the window's newest tuple when the basic
// window was empty.
func (f *Factory) triggerArrival(maxArrival int64) int64 {
	if maxArrival > 0 {
		return maxArrival
	}
	var m int64
	for _, r := range f.rings {
		if r != nil {
			m = max(m, r.MaxArrival())
		}
	}
	return m
}

// incrementalStep is the paper's mode 2: the merged basic window's
// intermediates are resolved (through the group's DAG, or here by the
// factory's own chain), the window enters the ring, and cached
// intermediates merge when a slide completes.
func (f *Factory) incrementalStep(idx int, bw window.BW) int {
	d := f.cfg.Decomp

	if bw.Out == nil && bw.Partial == nil {
		// The group's DAG did not resolve the window (it resolves Partial,
		// or Out for plans without an aggregate, before the tail runs): the
		// factory's own chain reads the raw runs — an empty chain for a DAG
		// member's raw side. Single-stream aggregate plans only merge the
		// partials, so the chain's output is never materialized.
		v := kernel.RunsView(bw.Data)
		if d.Agg != nil {
			bw.Partial = kernel.AggregateSteps(d.Agg, f.steps[idx], v, f.hint)
			f.hint = bw.Partial.Rows()
		} else {
			bw.Out = kernel.MaterializeView(f.steps[idx], v)
		}
	}
	// The cached intermediates replace the raw tuples, so they (and a
	// group member's share of the buffer) are released now rather than at
	// ring eviction.
	bw.ReleaseData()

	slot := f.rings[idx].Push(bw)
	if bw.Final != nil {
		// Shared merge: the merge class resolved the full-window merged
		// view and the post-merge fragment once for every class member; the
		// ring above only tracks window alignment for the private path.
		f.emit(bw.Final, f.triggerArrival(bw.MaxArrival), bw.Gen)
		return 1
	}
	if f.pc != nil {
		// The cache evicts by the group's generation watermarks, not by
		// this factory's ring: an evicted window may be live in a sibling's.
		other := f.rings[1-idx].Live()
		if idx == 0 {
			f.pc.AddLeft(slot, other)
		} else {
			f.pc.AddRight(slot, other)
		}
	}

	if !f.ringsFull() {
		return 0
	}

	var merged *bat.Chunk
	if f.pc != nil {
		merged = f.pc.Merged(f.rings[0].Live(), f.rings[1].Live())
	} else {
		for _, lbw := range f.rings[idx].Live() {
			if d.Agg != nil {
				f.parts = append(f.parts, lbw.Partial)
			} else {
				f.parts = append(f.parts, lbw.Out)
			}
		}
		merged = mergeView(d, f.parts)
		clear(f.parts)
		f.parts = f.parts[:0]
	}
	if f.post != nil {
		merged = kernel.MaterializeSteps(f.post, merged)
	}
	f.emit(merged, f.triggerArrival(bw.MaxArrival), bw.Gen)
	return 1
}

// mergeView is the one merge of a one-sided full window's cached
// intermediates, evaluated by a factory's private ring and by a merge cell
// alike: the merge of the windows' partial aggregates (outs) or, without
// an aggregate, the concat of their pipeline outputs (nil ones are
// skipped; a window whose rows all sit in one basic window is that
// window's chunk, uncopied). A join's merged view is its pair cache's
// (SharedPairCache.Merged).
func mergeView(d *plan.Decomposition, outs []*bat.Chunk) *bat.Chunk {
	if d.Agg != nil {
		return kernel.Merge(d.Merge, outs, 0)
	}
	rows := 0
	for _, c := range outs {
		if c != nil {
			rows += c.Rows()
		}
	}
	return bat.Concat(d.MergedLeaf.Out, outs, rows)
}

func (f *Factory) emit(c *bat.Chunk, maxArrival, gen int64) {
	now := f.cfg.Now()
	lat := int64(0)
	if maxArrival > 0 && now > maxArrival {
		lat = now - maxArrival
	}
	f.mu.Lock()
	seq := f.seq
	f.seq++
	if gen == genIsSeq {
		gen = seq
	}
	f.stats.Evals++
	f.stats.RowsOut += int64(c.Rows())
	f.stats.LastLatency = lat
	f.stats.SumLatency += lat
	if lat > f.stats.MaxLatency {
		f.stats.MaxLatency = lat
	}
	if len(f.recentLat) < recentLatSize {
		if f.recentLat == nil {
			f.recentLat = make([]int64, 0, recentLatSize)
		}
		f.recentLat = append(f.recentLat, lat)
	} else {
		f.recentLat[f.recentPos] = lat
		f.recentPos = (f.recentPos + 1) % recentLatSize
	}
	f.mu.Unlock()
	f.cfg.Emit.Emit(c, emitter.Meta{
		Query:       f.cfg.Name,
		Seq:         seq,
		FiredAt:     now,
		LatencyUsec: lat,
		TriggerGen:  gen,
	})
}
