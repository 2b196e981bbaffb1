// Package factory implements DataCell's factories: the co-routine-like
// executors of continuous query plans (paper §3). "Each factory encloses a
// (partial) query plan and produces a partial result at each call. For
// this, a factory continuously reads data from the input baskets,
// evaluates its query plan and creates a result set, which it then places
// in its output baskets. The factory remains active as long as the
// continuous query remains in the system."
//
// A factory runs in one of the paper's two execution modes:
//
//   - Re-evaluation (mode 1): every firing materializes the full current
//     window (or the new batch, for non-windowed queries) and runs the
//     complete plan.
//   - Incremental (mode 2): per-basic-window intermediates are computed
//     once, cached in columnar form, and merged per slide according to the
//     plan decomposition.
//
// Sharded execution: every input stream is a basket.Sharded container, and
// the factory exposes one independently schedulable firing per (input,
// shard) — FireShard. A shard firing drains only its shard, cuts the rows
// into globally consistent epochs (window.ShardSlicer), runs the
// incremental per-basic-window pipeline on its fragments in parallel with
// the other shards, and hands the fragments to a per-input merger
// (window.ShardMerge). When an epoch is sealed across all shards, the
// firing that completed it assembles the merged basic window and runs the
// blocking tail — ring maintenance, partial-aggregate merging, join
// caching, post-merge fragment — exactly as the single-basket engine
// would, so results are identical (up to row order within a window).
//
// Shared multi-query execution: continuous queries over the same stream
// and slide granularity run as members of a shared execution group
// (Group; stream⋈stream joins pair two front ends in a JoinGroup; the
// engine-facing contract is SharedGroup). The group drains, sequences
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
	"math"
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/basket"
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
	// Shared marks a query-group member: the factory's windowed stream
	// input(s) are fed externally with merged basic windows (SharedFire)
	// by the group that drains and slices the stream(s) once for all
	// members. The factory then runs only the private tail — per-basic-
	// window pipeline, ring, merge, emit — and registers no basket
	// consumers of its own. A single windowed scan joins a Group; an
	// incremental stream⋈stream join joins a JoinGroup.
	Shared bool
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
	// NoFuse disables the fused vectorized tail executor for this
	// factory's private evaluation paths: per-basic-window pipelines run
	// the classic one-materialized-chunk-per-operator executor
	// (plan.Exec), no predicates push into the slice step, and grouping
	// hash tables keep their fixed default capacity. A group's shared
	// operator DAG is structural and stays fused either way. Results are
	// byte-identical with or without; benchmarks and the ablation
	// equivalence suite use it to measure (and prove) what fusion buys.
	NoFuse bool
	// Emit receives every evaluation's result set.
	Emit emitter.Emitter
	// Now supplies the wall clock in microseconds; defaults to the system
	// clock. Benchmarks inject logical clocks.
	Now func() int64
	// OnWatermark, when set, is invoked after a shard firing raises an
	// input's event-time watermark. The engine wires it to re-notify the
	// query's shard transitions: sibling shards that fired before the
	// watermark-raising row was drained hold sealed-but-unflushed buckets
	// and would otherwise wait for the next append or heartbeat.
	OnWatermark func()
}

// shardIn is the factory's cursor into one shard of an input basket. Its
// mutex guards the slicer; the scheduler never fires the same shard
// concurrently with itself, but Advance (the engine's time-watermark path)
// may race a firing.
type shardIn struct {
	idx int // shard index within the input
	bk  *basket.Basket
	cid int
	mu  sync.Mutex
	sl  *window.ShardSlicer // nil for non-windowed scans
	// wm mirrors sl.Watermark() so ShardReady — called by scheduler
	// workers holding the global scheduler mutex — never waits on a
	// shard mutex held across a firing or an Advance.
	wm atomic.Int64
}

// input wires one stream scan to its sharded basket.
type input struct {
	scan   *plan.ScanStream
	shb    *basket.Sharded
	shards []*shardIn

	// Windowed state. ring holds merged basic windows; merge assembles
	// them from per-shard fragments at epoch boundaries; maxTs is the
	// shared event-time watermark across shards (math.MinInt64 until the
	// first row).
	ring    *window.Ring
	merge   *window.ShardMerge
	mergeMu sync.Mutex
	maxTs   atomic.Int64
	// sealed is the merger frontier last handed to the factory's join
	// sequencer (guarded by mergeMu).
	sealed int64
}

// Stats is a snapshot of a factory's counters, feeding the demo's analysis
// pane.
type Stats struct {
	Name        string
	Mode        string
	Firings     int64 // scheduler activations (per shard under sharding)
	Evals       int64 // window/batch evaluations (results emitted)
	TuplesIn    int64
	RowsOut     int64
	BusyUsec    int64 // total time spent inside shard firings
	LastLatency int64 // response time of the newest result (µs)
	MaxLatency  int64
	SumLatency  int64 // across evals, for averaging
	CachedPairs int   // live join-pair cache entries (join plans)
}

// Factory executes one continuous query. FireShard is not reentrant per
// shard: the scheduler guarantees a single in-flight firing per (input,
// shard) transition.
type Factory struct {
	cfg    Config
	inputs []*input
	jc     window.PairCache
	// pipes holds one compiled fused pipeline per decomposition pipeline
	// (nil entries fall back to the unfused plan.Exec executor): the
	// kernel-fused per-basic-window chains used by deliver and the
	// incremental fallback. Empty when NoFuse or when the factory has no
	// decomposition.
	pipes []*kernel.Pipeline
	// reevalJoin marks a re-evaluation-mode join whose plan decomposes:
	// the full-window recompute is expressed as the merge of cached
	// basic-window pairs through the pair cache (group-shared for
	// members, private otherwise) instead of re-running the whole plan
	// over the concatenated rings. Shared, isolated and fabric-routed
	// registrations of the same join thus order joined rows identically.
	reevalJoin bool
	// order sequences the sealed basic windows of a multi-input (join)
	// factory into one canonical order before they reach the tail; nil
	// for single-input factories and for group members, whose windows
	// arrive already sequenced by their join group.
	order *inputSeq

	// stepMu serializes the blocking tail — ring pushes, join cache and
	// window evaluation — across shard firings and Advance, keeping
	// merged basic windows in generation order.
	stepMu sync.Mutex

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

// New builds a factory and registers it as a consumer on every shard of
// every input basket. bind maps each stream scan of the plan to its
// sharded basket.
func New(cfg Config, bind map[*plan.ScanStream]*basket.Sharded) (*Factory, error) {
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
		if cfg.Decomp.Join != nil {
			// Private by default; a join group replaces it with its shared
			// fingerprint-keyed cache (SetPairCache) at member join.
			f.jc = window.NewJoinCache(cfg.Decomp.Join)
		}
	}
	if len(scans) == 0 {
		return nil, fmt.Errorf("factory %s: plan reads no stream", cfg.Name)
	}
	if cfg.Decomp != nil && (cfg.Mode == Incremental || f.reevalJoin) && !cfg.NoFuse {
		// Compile the fused per-basic-window chains. Single-stream
		// aggregate plans skip materializing the pipeline output: only the
		// per-window partials merge downstream, so the filtered
		// intermediate chunk is never reconstructed.
		needOut := cfg.Decomp.Agg == nil
		f.pipes = make([]*kernel.Pipeline, len(cfg.Decomp.Pipelines))
		for i := range cfg.Decomp.Pipelines {
			if kp, ok := kernel.Compile(cfg.Decomp, i, cfg.Decomp.Agg, needOut); ok {
				f.pipes[i] = kp
			}
		}
	}
	if cfg.Shared {
		joined := cfg.Decomp != nil && cfg.Decomp.Join != nil
		if len(scans) != 1 && !(joined && len(scans) == 2) {
			return nil, fmt.Errorf("factory %s: shared execution requires one stream input (or an incremental stream join), got %d", cfg.Name, len(scans))
		}
		for _, s := range scans {
			if s.Window == nil {
				return nil, fmt.Errorf("factory %s: shared execution requires windowed stream scans", cfg.Name)
			}
		}
	}
	for idx, s := range scans {
		shb, ok := bind[s]
		if !ok {
			return nil, fmt.Errorf("factory %s: no basket bound for stream %q", cfg.Name, s.Alias)
		}
		in := &input{scan: s, shb: shb, sealed: window.NoEpoch}
		in.maxTs.Store(math.MinInt64)
		if cfg.Shared {
			// The group owns the basket cursors, slicers and merger; the
			// member keeps only its private window ring.
			in.ring = window.NewRing(s.Window.Parts())
			f.inputs = append(f.inputs, in)
			continue
		}
		// Slice-time predicate pushdown: a private incremental factory owns
		// its slicers, so the fused chain's leading filters move into the
		// slice step — non-qualifying rows are dropped before they are
		// buffered into a window, and the chain skips the already-applied
		// prefix. Shared factories (group-owned slicers), re-evaluation
		// plans (raw windows) and fabric-fed front ends never qualify.
		var pre func(*bat.Chunk) *bat.Chunk
		if cfg.Mode == Incremental && idx < len(f.pipes) && f.pipes[idx] != nil {
			if preds := f.pipes[idx].LeadingFilters(); len(preds) > 0 {
				pre = kernel.Prefilter(preds)
				f.pipes[idx].SetSkip(len(preds))
			}
		}
		for i := 0; i < shb.NumShards(); i++ {
			b := shb.Shard(i)
			si := &shardIn{idx: i, bk: b, cid: b.Register()}
			if s.Window != nil {
				si.sl = window.NewShardSlicer(s.Window, s.Out)
				si.wm.Store(si.sl.Watermark())
				if pre != nil {
					si.sl.SetPrefilter(pre)
				}
			}
			in.shards = append(in.shards, si)
		}
		if s.Window != nil {
			in.ring = window.NewRing(s.Window.Parts())
			mc := window.MergeConfig{
				Shards:   shb.NumShards(),
				Data:     s.Out,
				KeepData: cfg.Mode == Reeval,
			}
			if cfg.Mode == Incremental {
				outSch := cfg.Decomp.Pipelines[idx].Root.Schema()
				mc.Out = &outSch
				if cfg.Decomp.Agg != nil {
					pSch := cfg.Decomp.Agg.Out
					mc.Partial = &pSch
				}
			}
			in.merge = window.NewShardMerge(mc)
		}
		f.inputs = append(f.inputs, in)
	}
	if !cfg.Shared {
		wins := make([]*plan.Window, len(f.inputs))
		for i, in := range f.inputs {
			wins[i] = in.scan.Window
		}
		f.order = newInputSeq(wins)
	}
	return f, nil
}

// Name reports the query name.
func (f *Factory) Name() string { return f.cfg.Name }

// Mode reports the execution mode.
func (f *Factory) Mode() Mode { return f.cfg.Mode }

// Inputs reports the number of input streams.
func (f *Factory) Inputs() int { return len(f.inputs) }

// Shards reports the shard count of input idx — the engine registers one
// scheduler transition per (input, shard).
func (f *Factory) Shards(idx int) int { return len(f.inputs[idx].shards) }

// Ready reports whether any shard of any input has work — the factory's
// Petri-net firing condition.
func (f *Factory) Ready() bool {
	for idx, in := range f.inputs {
		for sh := range in.shards {
			if f.ShardReady(idx, sh) {
				return true
			}
		}
	}
	return false
}

// ShardReady reports whether shard sh of input idx has pending tuples or
// sealed epochs awaiting flush — the per-shard firing condition.
func (f *Factory) ShardReady(idx, sh int) bool {
	in := f.inputs[idx]
	si := in.shards[sh]
	if si.bk.Available(si.cid) > 0 {
		return true
	}
	if si.sl == nil {
		return false
	}
	wmGen, ok := f.watermarkGen(in, si)
	if !ok {
		return false
	}
	return si.wm.Load() < wmGen
}

// watermarkGen computes the current epoch-sealing watermark for an input:
// tuple windows seal by the sharded basket's settled sequence, time
// windows by the shared event-time high mark. ok is false while no
// watermark exists yet (time window before the first row).
func (f *Factory) watermarkGen(in *input, si *shardIn) (int64, bool) {
	w := in.scan.Window
	if w.Tuples {
		return in.shb.Settled() / w.Slide, true
	}
	mts := in.maxTs.Load()
	if mts == math.MinInt64 {
		return 0, false
	}
	return si.sl.TimeGen(mts), true
}

// Baskets lists the names of the factory's input baskets (for the query
// network view).
func (f *Factory) Baskets() []string {
	out := make([]string, len(f.inputs))
	for i, in := range f.inputs {
		out[i] = in.shb.Name()
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

// Stop unregisters the factory from its basket shards, releases any
// shared basic-window buffers its rings still hold, and closes its
// emitter. The caller must ensure no firing is in flight (the engine uses
// scheduler.RemoveWait).
func (f *Factory) Stop() {
	for _, in := range f.inputs {
		for _, si := range in.shards {
			si.bk.Unregister(si.cid)
		}
		if in.ring != nil {
			for _, bw := range in.ring.Live() {
				bw.ReleaseData()
			}
		}
	}
	f.cfg.Emit.Close()
}

// SharedBW is one merged basic window handed to a shared member's tail:
// the window plus the factory input (join side) it belongs to. Single-
// stream groups always deliver input 0; join groups interleave inputs 0
// and 1 in the group's global pairing order.
type SharedBW struct {
	Input int
	BW    *window.BW
}

// SharedFire runs the member tail over a batch of merged basic windows
// handed over by the factory's execution group, in delivery order. It is
// the grouped counterpart of FireShard: one scheduler activation of the
// member's tail transition. Windows whose Partial (or, for plans without
// an aggregate, Out) was already resolved through the group's operator
// DAG skip the private pipeline. It returns the number of result sets
// emitted.
func (f *Factory) SharedFire(evs []SharedBW) int {
	if len(evs) == 0 {
		return 0
	}
	start := f.cfg.Now()
	var tuples int64
	for _, ev := range evs {
		if ev.BW.Data != nil {
			tuples += int64(ev.BW.Data.Rows())
		} else if ev.BW.Out != nil {
			tuples += int64(ev.BW.Out.Rows())
		}
	}
	f.mu.Lock()
	f.stats.Firings++
	f.stats.TuplesIn += tuples
	f.mu.Unlock()

	emitted := 0
	f.stepMu.Lock()
	for _, ev := range evs {
		emitted += f.onBasicWindow(ev.Input, ev.BW)
	}
	f.stepMu.Unlock()

	f.mu.Lock()
	f.stats.BusyUsec += f.cfg.Now() - start
	f.mu.Unlock()
	return emitted
}

// SetPairCache replaces the factory's join-pair cache with a group-shared
// one. Call before the member's tail transition is registered (no firing
// may be in flight).
func (f *Factory) SetPairCache(pc window.PairCache) { f.jc = pc }

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

// Step fires every shard of every input once, in order — the synchronous
// whole-factory firing used by tests and the single-threaded paths. When
// a firing raises an input's event-time watermark, the input's shards get
// a second flush pass so earlier-fired shards release their sealed
// buckets (the scheduler path handles this via OnWatermark). It returns
// the number of result sets emitted.
func (f *Factory) Step() int {
	emitted := 0
	for idx, in := range f.inputs {
		raisedAny := false
		for sh := range in.shards {
			e, raised := f.fireShard(idx, sh)
			emitted += e
			raisedAny = raisedAny || raised
		}
		if raisedAny {
			for sh := range in.shards {
				e, _ := f.fireShard(idx, sh)
				emitted += e
			}
		}
	}
	return emitted
}

// FireShard is one Petri-net transition firing for shard sh of input idx:
// drain the shard, cut sealed epochs, evaluate per-fragment pipelines, and
// merge-complete any basic windows this shard sealed last. It returns the
// number of result sets emitted.
func (f *Factory) FireShard(idx, sh int) int {
	emitted, raised := f.fireShard(idx, sh)
	if raised && f.cfg.OnWatermark != nil {
		f.cfg.OnWatermark()
	}
	return emitted
}

// fireShard reports, besides the emitted count, whether the firing raised
// the input's event-time watermark (other shards may now hold sealed
// buckets).
func (f *Factory) fireShard(idx, sh int) (int, bool) {
	in := f.inputs[idx]
	si := in.shards[sh]
	start := f.cfg.Now()
	f.mu.Lock()
	f.stats.Firings++
	f.mu.Unlock()

	si.mu.Lock()
	emitted, raised := f.fireShardLocked(idx, in, si)
	si.mu.Unlock()

	f.mu.Lock()
	f.stats.BusyUsec += f.cfg.Now() - start
	f.mu.Unlock()
	return emitted, raised
}

func (f *Factory) fireShardLocked(idx int, in *input, si *shardIn) (int, bool) {
	// For tuple windows the sealing watermark must be read BEFORE the
	// drain: every row of an epoch sealed by this watermark was appended
	// to its shard before the watermark advanced, so the drain below is
	// guaranteed to include it. Reading after the drain could seal an
	// epoch whose rows arrived between the two steps.
	var wmSeq int64
	tuples := si.sl != nil && in.scan.Window.Tuples
	if tuples {
		wmSeq = in.shb.Settled()
	}

	c, arrivals, seqs := si.bk.PeekSeqs(si.cid, int(si.bk.Available(si.cid)))
	if c != nil {
		rows := c.Rows()
		si.bk.Consume(si.cid, int64(rows))
		f.mu.Lock()
		f.stats.TuplesIn += int64(rows)
		f.mu.Unlock()
	}

	if si.sl == nil {
		// Non-windowed continuous query: the paper's mode 1 applied per
		// arriving batch, independently per shard.
		if c == nil {
			return 0, false
		}
		return f.evalBatch(in.scan, c, arrivals), false
	}

	frags, raised := sliceFlush(si.sl, in.scan.Window, c, arrivals, seqs, wmSeq, &in.maxTs)
	si.wm.Store(si.sl.Watermark())
	return f.deliver(idx, in, si, frags), raised
}

// sliceFlush is the drain step shared by isolated factories and query
// groups: push freshly drained rows into a shard slicer, raise the
// input's shared event-time watermark (time windows), and flush every
// epoch the current watermark seals. For tuple windows the caller must
// have captured wmSeq (the container's settled sequence) BEFORE the
// drain — see fireShardLocked for why the order is load-bearing. raised
// reports whether the event-time watermark advanced (sibling shards may
// now hold sealed buckets and need a re-notify).
func sliceFlush(sl *window.ShardSlicer, w *plan.Window, c *bat.Chunk, arrivals, seqs bat.Ints, wmSeq int64, maxTs *atomic.Int64) ([]*window.Frag, bool) {
	raised := false
	if c != nil {
		sl.Push(c, arrivals, seqs)
		if !w.Tuples {
			ts := bat.AsInts(c.Cols[w.TimeIdx])
			mx := int64(math.MinInt64)
			for _, t := range ts {
				if t > mx {
					mx = t
				}
			}
			raised = atomicMax(maxTs, mx)
		}
	}
	var frags []*window.Frag
	if w.Tuples {
		frags = sl.Flush(wmSeq / w.Slide)
	} else if mts := maxTs.Load(); mts != math.MinInt64 {
		frags = sl.Flush(sl.TimeGen(mts))
	}
	return frags, raised
}

// deliver runs the per-fragment pipeline (the parallel half of incremental
// mode), then offers the fragments and this shard's watermark to the
// input's merger; any basic windows completed by this delivery run the
// blocking tail under stepMu, in generation order — for a join, in the
// inputs' canonical order (inputSeq).
func (f *Factory) deliver(idx int, in *input, si *shardIn, frags []*window.Frag) int {
	if f.cfg.Mode == Incremental {
		d := f.cfg.Decomp
		pipe := d.Pipelines[idx]
		if kp := f.pipe(idx); kp != nil {
			// Fused path: filter → project → partial aggregate run as one
			// pass over the fragment, materializing at most once. For
			// aggregate plans fr.Out stays nil (the merged window's Out is
			// an empty chunk nothing downstream reads — MergeAggregate
			// consumes the concatenated partials).
			for _, fr := range frags {
				fr.Out, fr.Partial = kp.Run(fr.Data)
			}
		} else {
			for _, fr := range frags {
				ex := &plan.Exec{StreamInputs: map[*plan.ScanStream]*bat.Chunk{pipe.Scan: fr.Data}}
				out, err := ex.Run(pipe.Root)
				if err != nil {
					out = bat.NewChunk(pipe.Root.Schema())
				}
				fr.Out = out
				if d.Agg != nil {
					fr.Partial = plan.RunAggregate(d.Agg, out)
				}
			}
		}
	}
	in.mergeMu.Lock()
	defer in.mergeMu.Unlock()
	ready := in.merge.Offer(si.idx, frags, si.sl.Watermark())
	emitted := 0
	if f.order != nil {
		// A join also hands over a frontier that moved without sealing a
		// window: it may release the other inputs' waiting windows.
		sealed := in.merge.Sealed()
		if len(ready) == 0 && sealed == in.sealed {
			return 0
		}
		in.sealed = sealed
		f.stepMu.Lock()
		f.order.push(idx, ready, sealed, func(i int, bw *window.BW) {
			emitted += f.onBasicWindow(i, bw)
		})
		f.stepMu.Unlock()
		return emitted
	}
	if len(ready) > 0 {
		f.stepMu.Lock()
		for _, bw := range ready {
			emitted += f.onBasicWindow(idx, bw)
		}
		f.stepMu.Unlock()
	}
	return emitted
}

// pipe returns the compiled fused pipeline for input idx, or nil when the
// factory runs unfused (NoFuse, no decomposition, or a chain the
// linearizer rejected).
func (f *Factory) pipe(idx int) *kernel.Pipeline {
	if idx >= len(f.pipes) {
		return nil
	}
	return f.pipes[idx]
}

// atomicMax raises a to v and reports whether it advanced.
func atomicMax(a *atomic.Int64, v int64) bool {
	for {
		cur := a.Load()
		if v <= cur {
			return false
		}
		if a.CompareAndSwap(cur, v) {
			return true
		}
	}
}

// Advance closes time-window buckets up to the watermark (microsecond
// timestamp) on every time-windowed input — the scheduler's time
// constraint / heartbeat path for idle streams.
func (f *Factory) Advance(watermark int64) int {
	emitted := 0
	for idx, in := range f.inputs {
		if in.scan.Window == nil || in.scan.Window.Tuples || len(in.shards) == 0 {
			// Tuple windows never time out; shared inputs are advanced by
			// their query group, which owns the slicers.
			continue
		}
		if in.maxTs.Load() == math.MinInt64 {
			continue // no rows yet: nothing to force shut
		}
		atomicMax(&in.maxTs, watermark)
		mts := in.maxTs.Load()
		for _, si := range in.shards {
			si.mu.Lock()
			frags := si.sl.Flush(si.sl.TimeGen(mts))
			si.wm.Store(si.sl.Watermark())
			emitted += f.deliver(idx, in, si, frags)
			si.mu.Unlock()
		}
	}
	return emitted
}

// evalBatch handles non-windowed continuous queries: the paper's mode 1
// applied to each arriving batch. The batch feeds its own scan; any other
// stream scans in the plan see empty input this firing and are evaluated
// in their own firings as their data arrives.
func (f *Factory) evalBatch(scan *plan.ScanStream, c *bat.Chunk, arrivals bat.Ints) int {
	var maxArr int64
	for _, a := range arrivals {
		if a > maxArr {
			maxArr = a
		}
	}
	ex := &plan.Exec{StreamInputs: map[*plan.ScanStream]*bat.Chunk{scan: c}}
	out, err := ex.Run(f.cfg.Full)
	if err != nil {
		return 0
	}
	f.emit(out, maxArr, genIsSeq)
	return 1
}

// genIsSeq asks emit to use the emission sequence number as TriggerGen —
// the batch generation of non-windowed queries (emitter.Meta documents
// TriggerGen as "the basic window (or batch) sequence number").
const genIsSeq = int64(-1)

// onBasicWindow advances the window state of input idx with a merged,
// completed basic window and evaluates if a slide completed. Callers hold
// stepMu. Re-evaluation join-group members run the incremental tail: the
// decomposition certified their full-window recompute equals the merge of
// cached basic-window pairs, which the shared pair cache serves.
func (f *Factory) onBasicWindow(idx int, bw *window.BW) int {
	in := f.inputs[idx]
	if f.cfg.Mode == Reeval && !f.reevalJoin {
		if evicted := in.ring.Push(bw); evicted != nil {
			evicted.ReleaseData()
		}
		if !f.ringsFull() {
			return 0
		}
		ex := &plan.Exec{StreamInputs: map[*plan.ScanStream]*bat.Chunk{}}
		for _, i2 := range f.inputs {
			ex.StreamInputs[i2.scan] = i2.ring.ConcatData(i2.scan.Out)
		}
		out, err := ex.Run(f.cfg.Full)
		if err != nil {
			return 0
		}
		f.emit(out, f.triggerArrival(bw), bw.Gen)
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
// triggered this evaluation: the new basic window's newest tuple, falling
// back to the window's newest tuple when the basic window was empty.
func (f *Factory) triggerArrival(bw *window.BW) int64 {
	if bw.MaxArrival > 0 {
		return bw.MaxArrival
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

// incrementalStep is the paper's mode 2: the per-basic-window intermediates
// were already computed per fragment by the firing shards; here the merged
// basic window enters the ring and cached intermediates merge when a slide
// completes.
func (f *Factory) incrementalStep(idx int, bw *window.BW) int {
	d := f.cfg.Decomp
	in := f.inputs[idx]

	if bw.Out == nil && bw.Partial == nil {
		// Per-basic-window pipeline over the raw tuples: the path for
		// query-group members whose pipeline is not in the shared DAG (the
		// DAG resolves Partial, or Out for plans without an aggregate,
		// before the tail runs), and the fallback for basic windows that
		// bypassed the fragment path. A pipeline
		// error substitutes an empty intermediate — like the fragment path
		// — so the ring stays window-aligned and the shared buffer is
		// still released below.
		if kp := f.pipe(idx); kp != nil {
			// Fused fallback. The fallback only sees raw windows (group
			// fanout, re-evaluation joins), so the chain runs in full —
			// pushdown skips are installed only on factories whose own
			// slicers pre-filter, and those always arrive via the fragment
			// path above.
			bw.Out, bw.Partial = kp.Run(bw.Data)
		} else {
			pipe := d.Pipelines[idx]
			ex := &plan.Exec{StreamInputs: map[*plan.ScanStream]*bat.Chunk{pipe.Scan: bw.Data}}
			out, err := ex.Run(pipe.Root)
			if err != nil {
				out = bat.NewChunk(pipe.Root.Schema())
			}
			bw.Out = out
			if d.Agg != nil {
				bw.Partial = plan.RunAggregate(d.Agg, out)
			}
		}
	}
	if bw.Free != nil {
		// Group member: the cached intermediates replace the raw tuples,
		// so the shared buffer can be released now rather than at ring
		// eviction.
		bw.ReleaseData()
	}

	evicted := in.ring.Push(bw)
	if evicted != nil {
		evicted.ReleaseData()
	}
	if bw.Final != nil || bw.Merged != nil {
		// Shared merge: the member's merge class resolved the full-window
		// merged view (and, for Final, the post-merge fragment) once for
		// every class member; the ring above only tracks window alignment
		// for the private fallback path.
		result := bw.Final
		if result == nil {
			ex := &plan.Exec{MergedInputs: map[*plan.Merged]*bat.Chunk{d.MergedLeaf: bw.Merged}}
			out, err := ex.Run(d.Post)
			if err != nil {
				return 0
			}
			result = out
		}
		f.emit(result, f.triggerArrival(bw), bw.Gen)
		return 1
	}
	if f.jc != nil {
		if evicted != nil {
			if idx == 0 {
				f.jc.EvictLeft(evicted.Gen)
			} else {
				f.jc.EvictRight(evicted.Gen)
			}
		}
		other := f.inputs[1-idx]
		if idx == 0 {
			f.jc.AddLeft(bw, other.ring.Live())
		} else {
			f.jc.AddRight(bw, other.ring.Live())
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
		merged = plan.MergeAggregate(d.Agg, in.ring.ConcatPartials(d.Agg.Out))
	default:
		merged = in.ring.ConcatOuts(d.MergedLeaf.Out)
	}

	result := merged
	if d.Post != nil {
		ex := &plan.Exec{MergedInputs: map[*plan.Merged]*bat.Chunk{d.MergedLeaf: merged}}
		out, err := ex.Run(d.Post)
		if err != nil {
			return 0
		}
		result = out
	}
	f.emit(result, f.triggerArrival(bw), bw.Gen)
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
