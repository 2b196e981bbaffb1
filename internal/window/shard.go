package window

import (
	"sort"

	"datacell/internal/bat"
	"datacell/internal/plan"
)

// Frag is one shard's contribution to a basic window: the shard-local
// slice of epoch Gen, plus whatever per-fragment intermediates the factory
// computed for it (the parallel half of the paper's incremental mode).
type Frag struct {
	// Gen is the epoch: for tuple windows the global basic-window number
	// (sequence / slide); for time windows the absolute slide bucket
	// (⌊ts/slide⌋).
	Gen int64
	// Shard is the global shard index that produced the fragment. ShardMerge
	// stamps it on Offer; merged basic windows concatenate an epoch's
	// fragments in shard order, so window contents are deterministic no
	// matter which shard (or which process, over the fabric) delivered
	// first.
	Shard int
	// Data holds the shard's raw tuples of the epoch.
	Data *bat.Chunk
	// MaxArrival is the newest arrival stamp among the rows.
	MaxArrival int64
	// Out is the per-fragment pipeline output (incremental mode); computed
	// by the firing shard in parallel with other shards.
	Out *bat.Chunk
	// Partial is the per-fragment partial aggregate (incremental mode,
	// aggregate plans).
	Partial *bat.Chunk
}

// ShardSlicer cuts one shard's arriving rows into per-epoch fragments
// using globally assigned boundaries: tuple windows bucket rows by their
// global sequence stamp, time windows by the ordering attribute. Because
// the boundaries are global, the union of all shards' epoch-g fragments is
// exactly the basic window g that the single-basket engine would cut —
// the shard-merge window-semantics invariant.
//
// Epochs may be buffered sparsely (a shard sees only the rows hashed to
// it) and out of order (concurrent producers settle ranges out of order);
// Flush seals every epoch below the caller-provided watermark, after which
// rows for sealed epochs can no longer arrive (tuple windows) or are
// clamped into the shard's newest seen epoch (late time-window tuples).
type ShardSlicer struct {
	w         *plan.Window
	schema    bat.Schema
	slideUsec int64
	nextGen   int64 // all gens < nextGen have been flushed
	maxGen    int64 // newest epoch that has received a row
	open      map[int64]*openFrag
	// pre, when set, filters each row run before it is buffered into its
	// epoch (slice-time predicate pushdown): non-qualifying rows never
	// enter a window view. Epoch assignment, watermarks and MaxArrival are
	// computed over the full pre-filter arrivals, so window boundaries and
	// latency metadata stay byte-identical to an unfiltered slicer; only
	// the buffered rows shrink. Installed by factories whose pipeline
	// starts with eligible filters; never set on fabric-fed or
	// re-evaluation slicers, which need the raw window.
	pre func(*bat.Chunk) *bat.Chunk
}

type openFrag struct {
	data   *bat.Chunk
	maxArr int64
}

// NewShardSlicer builds a shard-local slicer for a stream scan's bound
// window.
func NewShardSlicer(w *plan.Window, schema bat.Schema) *ShardSlicer {
	s := &ShardSlicer{w: w, schema: schema, open: make(map[int64]*openFrag)}
	if !w.Tuples {
		s.slideUsec = w.SlideDur.Microseconds()
		// Time epochs are absolute slide buckets, which may start below
		// zero; tuple epochs start at sequence 0.
		s.nextGen = NoEpoch
		s.maxGen = NoEpoch
	}
	return s
}

// TimeGen maps an event timestamp (µs) to its slide bucket — the sealing
// watermark for a time window whose newest observed timestamp is ts.
func (s *ShardSlicer) TimeGen(ts int64) int64 { return floorDiv(ts, s.slideUsec) }

// genOf maps a row to its epoch.
func (s *ShardSlicer) genOf(seq, ts int64) int64 {
	if s.w.Tuples {
		return seq / s.w.Slide
	}
	return floorDiv(ts, s.slideUsec)
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Push buckets newly drained rows into their epochs. seqs are the rows'
// global sequence stamps (used by tuple windows); time windows read the
// ordering attribute. Out-of-order time tuples clamp into the shard's
// newest seen epoch (never below the flushed watermark), matching the
// single-basket slicer's late-tuple rule.
func (s *ShardSlicer) Push(c *bat.Chunk, arrivals bat.Ints, seqs bat.Ints) {
	rows := c.Rows()
	if rows == 0 {
		return
	}
	var ts []int64
	if !s.w.Tuples {
		ts = bat.AsInts(c.Cols[s.w.TimeIdx])
	}
	// Run-length batching: consecutive rows almost always share an epoch.
	runStart := 0
	runGen := s.rowGen(0, seqs, ts)
	for i := 1; i <= rows; i++ {
		var g int64
		if i < rows {
			g = s.rowGen(i, seqs, ts)
			if g == runGen {
				continue
			}
		}
		s.bucket(runGen, c.Slice(runStart, i), arrivals[runStart:i])
		runStart, runGen = i, g
	}
}

func (s *ShardSlicer) rowGen(i int, seqs, ts []int64) int64 {
	var g int64
	if s.w.Tuples {
		// Sequence stamps are exact: a sealed epoch can never receive a
		// row (settled-watermark guarantee), so no clamping is possible.
		return s.genOf(seqs[i], 0)
	}
	g = s.genOf(0, ts[i])
	// Late time tuples clamp into the newest epoch this shard has seen —
	// the single-basket slicer's rule (it folds out-of-order rows into
	// its current open bucket), which keeps the default 1-shard engine's
	// window assignment bit-identical to the pre-sharding engine. The
	// flushed watermark is a floor: rows below it have nowhere older to
	// go.
	if g < s.maxGen {
		g = s.maxGen
	}
	if g < s.nextGen {
		g = s.nextGen
	}
	if g > s.maxGen {
		s.maxGen = g
	}
	return g
}

// SetPrefilter installs a slice-time pushdown filter (see the pre field).
// Set before the first Push; the slicer applies it to every buffered run.
func (s *ShardSlicer) SetPrefilter(f func(*bat.Chunk) *bat.Chunk) { s.pre = f }

func (s *ShardSlicer) bucket(gen int64, c *bat.Chunk, arrivals []int64) {
	if s.pre != nil {
		c = s.pre(c)
	}
	f := s.open[gen]
	if f == nil {
		f = &openFrag{data: bat.NewChunk(s.schema)}
		s.open[gen] = f
	}
	f.data.AppendChunk(c)
	// MaxArrival spans the epoch's full pre-filter arrivals: the latency
	// a result reports must not change because its trigger row was
	// filtered out early.
	for _, a := range arrivals {
		if a > f.maxArr {
			f.maxArr = a
		}
	}
}

// Flush seals every epoch below wmGen, returning the shard's non-empty
// fragments in epoch order and advancing the slicer's watermark. Epochs
// with no local rows produce no fragment — the merge layer's per-shard
// watermark stands in for them.
func (s *ShardSlicer) Flush(wmGen int64) []*Frag {
	if wmGen <= s.nextGen {
		return nil
	}
	var gens []int64
	for g := range s.open {
		if g < wmGen {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	var out []*Frag
	for _, g := range gens {
		f := s.open[g]
		delete(s.open, g)
		out = append(out, &Frag{Gen: g, Data: f.data, MaxArrival: f.maxArr})
	}
	s.nextGen = wmGen
	return out
}

// Watermark reports the exclusive flush watermark: every epoch below it
// has been sealed by this shard.
func (s *ShardSlicer) Watermark() int64 { return s.nextGen }

// SlicerState is a transferable image of a slicer's position and open
// (unsealed) epochs — what a fabric worker persists per (shard, spec) in
// its snapshot and ships during an elastic shard handoff.
type SlicerState struct {
	NextGen int64
	MaxGen  int64
	Open    []OpenEpoch // sorted by Gen
}

// OpenEpoch is one buffered, not-yet-sealed epoch fragment.
type OpenEpoch struct {
	Gen        int64
	MaxArrival int64
	Data       *bat.Chunk
}

// ExportState captures the slicer's watermarks and open epochs. The
// epoch chunks are views (Slice) over the slicer's buffers: stable
// against a concurrent bucket() growing the originals, so the caller may
// marshal them outside whatever lock serializes Push/Flush.
func (s *ShardSlicer) ExportState() SlicerState {
	st := SlicerState{NextGen: s.nextGen, MaxGen: s.maxGen}
	for g, f := range s.open {
		st.Open = append(st.Open, OpenEpoch{
			Gen:        g,
			MaxArrival: f.maxArr,
			Data:       f.data.Slice(0, f.data.Rows()),
		})
	}
	sort.Slice(st.Open, func(i, j int) bool { return st.Open[i].Gen < st.Open[j].Gen })
	return st
}

// NewShardSlicerFromState rebuilds a slicer from an exported image,
// adopting the state's chunks (pass a decoded, freshly allocated state).
func NewShardSlicerFromState(w *plan.Window, schema bat.Schema, st SlicerState) *ShardSlicer {
	s := NewShardSlicer(w, schema)
	s.nextGen, s.maxGen = st.NextGen, st.MaxGen
	for _, e := range st.Open {
		data := e.Data
		if data == nil {
			data = bat.NewChunk(schema)
		}
		s.open[e.Gen] = &openFrag{data: data, maxArr: e.MaxArrival}
	}
	return s
}

// Pending reports how many rows are buffered in open epochs.
func (s *ShardSlicer) Pending() int {
	n := 0
	for _, f := range s.open {
		n += f.data.Rows()
	}
	return n
}

// MergeConfig describes how ShardMerge assembles per-shard fragments into
// merged basic windows.
type MergeConfig struct {
	// Shards is the number of contributing shards.
	Shards int
	// Data is the stream schema (used for empty basic windows).
	Data bat.Schema
	// KeepData concatenates the fragments' raw tuples into BW.Data
	// (re-evaluation mode needs the raw window; incremental mode only
	// needs the cached intermediates).
	KeepData bool
	// Out, when non-nil, concatenates the fragments' pipeline outputs
	// into BW.Out with this schema (incremental mode).
	Out *bat.Schema
	// Partial, when non-nil, concatenates the fragments' partial
	// aggregates into BW.Partial with this schema (incremental aggregate
	// plans). Partials merge by concatenation because MergeAggregate
	// re-aggregates by group — per-shard partials are just more rows of
	// the same partial layout.
	Partial *bat.Schema
}

// ShardMerge assembles per-shard fragments into complete basic windows at
// epoch boundaries. Each shard reports a monotone flush watermark; an
// epoch is complete once every shard's watermark has passed it, at which
// point no shard can contribute further rows to it. Completed epochs are
// emitted in order with consecutive output generations, so the downstream
// ring/join-cache machinery is oblivious to sharding. The caller
// serializes access (the factory's per-input merge lock).
type ShardMerge struct {
	cfg     MergeConfig
	wms     []int64 // per-shard exclusive flush watermark
	frags   map[int64][]*Frag
	started bool
	next    int64 // next absolute epoch to emit
	outGen  int64 // consecutive output generation counter
}

// NewShardMerge builds a merger.
func NewShardMerge(cfg MergeConfig) *ShardMerge {
	m := &ShardMerge{cfg: cfg, frags: make(map[int64][]*Frag)}
	m.wms = make([]int64, cfg.Shards)
	for i := range m.wms {
		m.wms[i] = NoEpoch
	}
	return m
}

// NoEpoch is the watermark of a time-window shard (and the frontier of
// a merger) that has not sealed anything yet: below every real epoch.
const NoEpoch = int64(-1 << 62)

// Offer delivers a shard's freshly flushed fragments together with its new
// watermark and returns any basic windows that became complete, oldest
// first.
func (m *ShardMerge) Offer(shard int, frags []*Frag, wm int64) []*BW {
	if wm > m.wms[shard] {
		m.wms[shard] = wm
	}
	for _, f := range frags {
		f.Shard = shard
		// Insert in shard order (at most one fragment per shard per epoch),
		// so buildBW concatenates deterministically regardless of delivery
		// order — the invariant that keeps a fabric run byte-identical to a
		// single-process run.
		fs := m.frags[f.Gen]
		pos := len(fs)
		for pos > 0 && fs[pos-1].Shard > shard {
			pos--
		}
		fs = append(fs, nil)
		copy(fs[pos+1:], fs[pos:])
		fs[pos] = f
		m.frags[f.Gen] = fs
	}
	sealed := m.Sealed()
	if !m.started {
		// The merged stream starts at the earliest epoch holding data,
		// like the single-basket slicer starting at its first row's
		// bucket.
		first := NoEpoch
		for g := range m.frags {
			if first == NoEpoch || g < first {
				first = g
			}
		}
		if first == NoEpoch || first >= sealed {
			return nil
		}
		m.next, m.started = first, true
	}
	var out []*BW
	for m.next < sealed {
		out = append(out, m.buildBW(m.next))
		m.next++
	}
	return out
}

// Sealed reports the merged stream's exclusive epoch frontier: every
// epoch below it is complete on every shard. NoEpoch until every shard
// has reported a watermark.
func (m *ShardMerge) Sealed() int64 {
	sealed := m.wms[0]
	for _, w := range m.wms[1:] {
		if w < sealed {
			sealed = w
		}
	}
	return sealed
}

// buildBW concatenates epoch g's fragments (possibly none — a time gap)
// into one merged basic window.
func (m *ShardMerge) buildBW(g int64) *BW {
	frags := m.frags[g]
	delete(m.frags, g)
	bw := &BW{Gen: m.outGen, Epoch: g, Data: bat.NewChunk(m.cfg.Data)}
	m.outGen++
	if m.cfg.Out != nil {
		bw.Out = bat.NewChunk(*m.cfg.Out)
	}
	if m.cfg.Partial != nil {
		bw.Partial = bat.NewChunk(*m.cfg.Partial)
	}
	for _, f := range frags {
		if m.cfg.KeepData {
			bw.Data.AppendChunk(f.Data)
		}
		if f.MaxArrival > bw.MaxArrival {
			bw.MaxArrival = f.MaxArrival
		}
		if m.cfg.Out != nil && f.Out != nil {
			bw.Out.AppendChunk(f.Out)
		}
		if m.cfg.Partial != nil && f.Partial != nil {
			bw.Partial.AppendChunk(f.Partial)
		}
	}
	return bw
}
