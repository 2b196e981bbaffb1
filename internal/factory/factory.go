// Package factory implements DataCell's factories: the co-routine-like
// executors of continuous query plans (paper §3). "Each factory encloses a
// (partial) query plan and produces a partial result at each call. For
// this, a factory continuously reads data from the input baskets,
// evaluates its query plan and creates a result set, which it then places
// in its output baskets. The factory remains active as long as the
// continuous query remains in the system."
//
// A factory runs in one of the paper's two execution modes, both on the
// kernel operators (internal/kernel), which differ only in what they feed:
//   - Re-evaluation (mode 1): every firing runs the complete plan
//     (kernel.Run) over the full current window, one view over its basic
//     windows' runs (or over the new batch, for non-windowed queries).
//   - Incremental (mode 2): the decomposition's linearized chains
//     (plan.Decompose derives them once per plan) compute per-basic-window
//     intermediates once, cached in columnar form and merged per slide,
//     and the post-merge chain runs over the merged view. A member
//     compiles each chain once: as nodes of the group's shared tries, or,
//     outside them, as its own chain. The kernel's step kernels evaluate
//     both, memoized step by step in the tries or in one pooled call
//     (kernel.AggregateSteps, kernel.MaterializeSteps) for a private one.
//
// Every continuous query runs as a member of an execution group (Group):
// the group's front ends drain every shard of every input basket, cut the
// rows into globally consistent epochs (window.ShardSlicer), merge the
// shards' fragments into basic windows (window.ShardMerge) and fan them
// out once, into the group's delivery log, which each member reads from
// its own cursor. A Factory is only the member's tail: per logged window
// it runs ring maintenance, its own per-basic-window chain when the
// member is outside the group's DAG, partial-aggregate merging, join
// caching and the post-merge chain, then emits. A non-windowed input's
// front end hands over each basket segment as its own batch, which the
// tail evaluates with the full plan (mode 1).
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
	"fmt"
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
	// it directly, incremental mode keeps it for inspection).
	Full plan.Node
	// Decomp is the incremental decomposition; required iff Mode is
	// Incremental.
	Decomp *plan.Decomposition
	// Mode selects the execution strategy.
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

// input is one stream scan of the plan and, when windowed, the ring of
// merged basic windows its current window spans.
type input struct {
	scan *plan.ScanStream
	ring *window.Ring // nil for non-windowed scans
}

// Stats is a snapshot of a factory's counters, feeding the demo's analysis
// pane.
type Stats struct {
	Name        string
	Mode        string
	Firings     int64 // tail activations
	Evals       int64 // window/batch evaluations (results emitted)
	TuplesIn    int64
	RowsOut     int64
	BusyUsec    int64 // total time spent inside tail activations
	LastLatency int64 // response time of the newest result (µs)
	MaxLatency  int64
	SumLatency  int64 // across evals, for averaging
	CachedPairs int   // live join-pair cache entries (join plans)
}

// Factory executes one continuous query's tail over the basic windows its
// group fans out. It is not reentrant: the scheduler guarantees a single
// in-flight firing of the member's tail transition.
type Factory struct {
	cfg    Config
	inputs []*input
	jc     *window.SharedPairCache // the group's pair cache (join plans)
	// steps holds the per-basic-window chains, one per side, that the
	// member evaluates itself: compiled only for a member outside the
	// group's DAG (NoMemo); a member in the DAG resolves its windows there,
	// and its raw (empty-chain) side reads the window as it is. post is the
	// post-merge chain (nil without a post fragment): the member's path in
	// its merge class's post-merge trie, compiled on its own only without a
	// class. Group.Join sets both; hint pre-sizes the private partial
	// aggregate's grouping with the last one's cardinality.
	steps [][]*kernel.Step
	post  []*kernel.Step
	hint  int
	// reevalJoin marks a re-evaluation-mode join whose plan decomposes:
	// the full-window recompute is expressed as the merge of cached
	// basic-window pairs through the group's pair cache instead of
	// re-running the whole plan over the concatenated rings. Shared,
	// isolated and fabric-routed registrations of the same join thus order
	// joined rows identically.
	reevalJoin bool
	// parts is the private merge stage's list of the live windows'
	// partial aggregates, reused across slides and emptied after each.
	parts []*bat.Chunk

	// fireStart and fireTuples accumulate the firing in progress
	// (beginFiring … endFiring).
	fireStart, fireTuples int64

	mu    sync.Mutex
	seq   int64
	stats Stats
	// recentLat is a bounded ring of the newest evaluations' response
	// times (µs) — the sample behind per-query latency percentiles in the
	// /metrics exporter and the multi-tenant harness. recentN is the count
	// of valid entries while the ring is still filling.
	recentLat [recentLatSize]int64
	recentN   int
	recentPos int
}

// recentLatSize bounds the per-factory latency sample. 512 evaluations
// cover several seconds at realistic seal rates — enough for a stable
// p99 without per-eval allocation.
const recentLatSize = 512

// New builds a factory. It reads nothing until it joins a group
// (Group.Join), whose front ends feed its tail.
func New(cfg Config) (*Factory, error) {
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixMicro() }
	}
	if cfg.Mode == Incremental && cfg.Decomp == nil {
		return nil, fmt.Errorf("factory %s: incremental mode without decomposition", cfg.Name)
	}
	f := &Factory{cfg: cfg}
	f.stats.Name = cfg.Name
	f.stats.Mode = cfg.Mode.String()

	scans := plan.Streams(cfg.Full)
	f.reevalJoin = cfg.Mode == Reeval &&
		cfg.Decomp != nil && cfg.Decomp.Join != nil
	if cfg.Mode == Incremental || f.reevalJoin {
		// Incremental execution — and the re-evaluation join-group tail,
		// which recomputes full windows through the same pair-cache
		// machinery — reads through the decomposition's scans.
		scans = nil
		for _, p := range cfg.Decomp.Pipelines {
			scans = append(scans, p.Scan)
		}
	}
	if len(scans) == 0 {
		return nil, fmt.Errorf("factory %s: plan reads no stream", cfg.Name)
	}
	f.steps = make([][]*kernel.Step, len(scans))
	for _, s := range scans {
		in := &input{scan: s}
		if s.Window != nil {
			in.ring = window.NewRing(s.Window.Parts())
		}
		f.inputs = append(f.inputs, in)
	}
	return f, nil
}

// Name reports the query name.
func (f *Factory) Name() string { return f.cfg.Name }

// Mode reports the execution mode.
func (f *Factory) Mode() Mode { return f.cfg.Mode }

// Baskets lists the names of the factory's input baskets (for the query
// network view).
func (f *Factory) Baskets() []string {
	out := make([]string, len(f.inputs))
	for i, in := range f.inputs {
		out[i] = in.scan.Stream.Basket.Name()
	}
	return out
}

// PlanString renders the full (optimized) plan.
func (f *Factory) PlanString() string { return plan.String(f.cfg.Full) }

// ContinuousPlanString renders the continuous form: the incremental
// decomposition when available, otherwise the full plan annotated with the
// re-evaluation mode.
func (f *Factory) ContinuousPlanString() string {
	if f.cfg.Mode == Incremental {
		return f.cfg.Decomp.ContinuousString()
	}
	return "-- re-evaluate per firing --\n" + plan.String(f.cfg.Full)
}

// Stop releases any shared basic-window buffers the factory's rings still
// hold and closes its emitter. The caller must ensure no firing is in
// flight (the engine uses scheduler.RemoveWait).
func (f *Factory) Stop() {
	for _, in := range f.inputs {
		if in.ring != nil {
			for _, bw := range in.ring.Live() {
				bw.ReleaseData()
			}
		}
	}
	f.cfg.Emit.Close()
}

// beginFiring starts one scheduler activation of the member's tail,
// which hands it windows through fireWindow and ends it with endFiring.
func (f *Factory) beginFiring() {
	f.fireStart, f.fireTuples = f.cfg.Now(), 0
}

// fireWindow runs the tail over one merged basic window of input idx
// (group side): single-stream groups always deliver input 0, two-sided
// groups interleave their inputs in the group's global order. A window
// whose Partial (or, for plans without an aggregate, Out) was already
// resolved through the group's operator DAG skips the private pipeline.
// It returns the number of result sets emitted.
func (f *Factory) fireWindow(idx int, bw window.BW) int {
	if bw.Data != nil {
		f.fireTuples += int64(bw.Data.Rows())
	} else if bw.Out != nil {
		f.fireTuples += int64(bw.Out.Rows())
	}
	return f.onBasicWindow(idx, bw)
}

// endFiring books the activation's counters.
func (f *Factory) endFiring() {
	f.mu.Lock()
	f.stats.Firings++
	f.stats.TuplesIn += f.fireTuples
	f.stats.BusyUsec += f.cfg.Now() - f.fireStart
	f.mu.Unlock()
}

// Stats returns a snapshot of the factory's counters.
func (f *Factory) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	if f.jc != nil {
		s.CachedPairs = f.jc.Pairs()
	}
	return s
}

// RecentLatencies copies the bounded sample of the newest evaluations'
// response times (µs), oldest first. Percentile consumers (the /metrics
// p99 gauge, the multi-tenant harness) sort their own copy.
func (f *Factory) RecentLatencies() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int64, 0, f.recentN)
	start := f.recentPos - f.recentN
	for i := 0; i < f.recentN; i++ {
		out = append(out, f.recentLat[(start+i+recentLatSize)%recentLatSize])
	}
	return out
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
// windowed input's window is one batch, evaluated on its own. Re-
// evaluation join-group members run the incremental tail: the
// decomposition certified their full-window recompute equals the merge of
// cached basic-window pairs, which the shared pair cache serves.
func (f *Factory) onBasicWindow(idx int, bw window.BW) int {
	in := f.inputs[idx]
	if in.ring == nil {
		return f.evalBatch(in.scan, bw)
	}
	if f.cfg.Mode == Reeval && !f.reevalJoin {
		in.ring.Push(bw)
		if !f.ringsFull() {
			return 0
		}
		leaves := make(map[plan.Node]*kernel.View, len(f.inputs))
		for _, i2 := range f.inputs {
			leaves[i2.scan] = kernel.RunsView(i2.ring.Runs(i2.scan.Out))
		}
		out, err := kernel.Run(f.cfg.Full, leaves)
		if err != nil {
			return 0
		}
		f.emit(out.Materialize(), f.triggerArrival(bw.MaxArrival), bw.Gen)
		return 1
	}
	return f.incrementalStep(idx, bw)
}

func (f *Factory) ringsFull() bool {
	for _, in := range f.inputs {
		if in.ring != nil && !in.ring.Full() {
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
	for _, in := range f.inputs {
		if in.ring != nil {
			if a := in.ring.MaxArrival(); a > m {
				m = a
			}
		}
	}
	return m
}

// incrementalStep is the paper's mode 2: the merged basic window's
// intermediates are resolved (through the group's DAG, or here by the
// member's own chain), the window enters the ring, and cached
// intermediates merge when a slide completes.
func (f *Factory) incrementalStep(idx int, bw window.BW) int {
	d := f.cfg.Decomp
	in := f.inputs[idx]

	if bw.Out == nil && bw.Partial == nil {
		// The group's DAG did not resolve the window (it resolves Partial,
		// or Out for plans without an aggregate, before the tail runs): the
		// member's own chain reads the raw runs — an empty chain for a DAG
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

	slot := in.ring.Push(bw)
	if bw.Final != nil {
		// Shared merge: the member's merge class resolved the full-window
		// merged view and the post-merge fragment once for every class
		// member; the ring above only tracks window alignment for the
		// private path.
		f.emit(bw.Final, f.triggerArrival(bw.MaxArrival), bw.Gen)
		return 1
	}
	if f.jc != nil {
		// The cache evicts by the group's generation watermarks, not by
		// this member's ring: an evicted window may be live in a sibling's.
		other := f.inputs[1-idx]
		if idx == 0 {
			f.jc.AddLeft(slot, other.ring.Live())
		} else {
			f.jc.AddRight(slot, other.ring.Live())
		}
	}

	if !f.ringsFull() {
		return 0
	}

	// Merge stage.
	var merged *bat.Chunk
	switch {
	case f.jc != nil:
		merged = f.jc.Merged(f.inputs[0].ring.Live(), f.inputs[1].ring.Live())
	case d.Agg != nil:
		for _, lbw := range in.ring.Live() {
			f.parts = append(f.parts, lbw.Partial)
		}
		merged = kernel.Merge(d.Merge, f.parts, 0)
		clear(f.parts)
		f.parts = f.parts[:0]
	default:
		merged = in.ring.ConcatOuts(d.MergedLeaf.Out)
	}

	if f.post != nil {
		merged = kernel.MaterializeSteps(f.post, merged)
	}
	f.emit(merged, f.triggerArrival(bw.MaxArrival), bw.Gen)
	return 1
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
	f.recentLat[f.recentPos] = lat
	f.recentPos = (f.recentPos + 1) % recentLatSize
	if f.recentN < recentLatSize {
		f.recentN++
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
