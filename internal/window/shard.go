package window

import (
	"math"
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
	// stamps it on Offer; a merged basic window lists an epoch's fragments'
	// runs in shard order, so window contents are deterministic no matter
	// which shard (or which process, over the fabric) delivered first.
	Shard int
	// Data holds the shard's raw tuples of the epoch: the basket-segment
	// runs they arrived in, in arrival order, uncopied.
	Data *bat.Runs
	// MaxArrival is the newest arrival stamp among the rows.
	MaxArrival int64
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
	open      map[int64]*Frag
	// span caches the epoch of the last row assigned and its bounds, so
	// a row inside them is assigned without a division.
	span epochSpan
}

// epochSpan is one epoch's bounds on the slicing axis (sequence stamp or
// timestamp): gen holds every x with lo <= x < hi. The bounds are clipped
// to the int64 range, so they may cover less than the whole epoch; a row
// outside them is assigned by division.
type epochSpan struct {
	gen, lo, hi int64
}

// of returns the epoch of x at the given slide: floorDiv(x, slide), read
// from the cached span when x falls inside it, recomputed (and cached)
// otherwise.
func (sp *epochSpan) of(x, slide int64) int64 {
	if sp.lo <= x && x < sp.hi {
		return sp.gen
	}
	return sp.reset(x, slide)
}

// reset caches and returns the epoch of x, which lies outside the span.
func (sp *epochSpan) reset(x, slide int64) int64 {
	g := floorDiv(x, slide)
	// r = x - g*slide is in [0, slide); the epoch is [x-r, x-r+slide),
	// clipped where it leaves the int64 range.
	r := x - g*slide
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if x >= math.MinInt64+r {
		lo = x - r
	}
	if x <= math.MaxInt64-(slide-r) {
		hi = x + (slide - r)
	}
	*sp = epochSpan{gen: g, lo: lo, hi: hi}
	return g
}

// NewShardSlicer builds a shard-local slicer for a stream scan's bound
// window.
func NewShardSlicer(w *plan.Window, schema bat.Schema) *ShardSlicer {
	// The empty span (lo == hi) matches no row.
	s := &ShardSlicer{w: w, schema: schema, open: make(map[int64]*Frag)}
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
// pre-sharding slicer's late-tuple rule. l, when non-nil, is a lease on
// the storage c lives in (basket.ConsumeLeased): every run cut from c
// retains it, so the storage outlives the call; the stamps are read only
// during it.
func (s *ShardSlicer) Push(c *bat.Chunk, l bat.Lease, arrivals bat.Ints, seqs bat.Ints) {
	rows := c.Rows()
	if rows == 0 {
		return
	}
	var ts []int64
	axis := []int64(seqs)
	if !s.w.Tuples {
		ts = bat.AsInts(c.Cols[s.w.TimeIdx])
		axis = ts
	}
	// Run-length batching: consecutive rows almost always share an epoch.
	runStart := 0
	runGen := s.rowGen(0, seqs, ts)
	for i := 1; i <= rows; i++ {
		var g int64
		if i < rows {
			// The span holds the previous row, whose epoch is runGen; a
			// row inside it lands there too — a clamp that could move it
			// would have moved the previous row the same way.
			if x := axis[i]; s.span.lo <= x && x < s.span.hi {
				continue
			}
			g = s.rowGen(i, seqs, ts)
			if g == runGen {
				continue
			}
		}
		s.bucket(runGen, c.Slice(runStart, i), l, arrivals[runStart:i])
		runStart, runGen = i, g
	}
}

// rowGen assigns row i its epoch: seq / Slide for tuple windows, the
// slide bucket of its timestamp for time windows, through the cached
// epoch span.
func (s *ShardSlicer) rowGen(i int, seqs, ts []int64) int64 {
	if s.w.Tuples {
		// Sequence stamps are exact: a sealed epoch can never receive a
		// row (settled-watermark guarantee), so no clamping is possible.
		// They are non-negative, where floor division is truncation.
		return s.span.of(seqs[i], s.w.Slide)
	}
	g := s.span.of(ts[i], s.slideUsec)
	// Late time tuples clamp into the newest epoch this shard has seen —
	// the pre-sharding slicer's rule (it folds out-of-order rows into
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

// bucket adds one run of rows — a view over a basket segment, leased by
// l — to epoch gen's open fragment. Nothing is copied: the fragment lists
// its runs, and each run retains one lease.
func (s *ShardSlicer) bucket(gen int64, c *bat.Chunk, l bat.Lease, arrivals []int64) {
	var maxArr int64
	for _, a := range arrivals {
		maxArr = max(maxArr, a)
	}
	f := s.open[gen]
	if f == nil {
		f = &Frag{Gen: gen, Data: bat.NewRuns(s.schema)}
		s.open[gen] = f
	}
	c.Schema = s.schema
	f.Data.AppendLeased(c, l)
	f.MaxArrival = max(f.MaxArrival, maxArr)
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
		out = append(out, s.open[g])
		delete(s.open, g)
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

// ExportState captures the slicer's watermarks and open epochs. Each
// epoch's runs are concatenated into one chunk (a single run stays a
// view): stable against a concurrent bucket() adding runs, so the caller
// may marshal them outside whatever lock serializes Push/Flush.
func (s *ShardSlicer) ExportState() SlicerState {
	st := SlicerState{NextGen: s.nextGen, MaxGen: s.maxGen}
	for g, f := range s.open {
		st.Open = append(st.Open, OpenEpoch{
			Gen:        g,
			MaxArrival: f.MaxArrival,
			Data:       f.Data.Concat(),
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
		f := &Frag{Gen: e.Gen, Data: bat.NewRuns(schema), MaxArrival: e.MaxArrival}
		if e.Data != nil {
			f.Data.Append(e.Data)
		}
		s.open[e.Gen] = f
	}
	return s
}

// Pending reports how many rows are buffered in open epochs.
func (s *ShardSlicer) Pending() int {
	n := 0
	for _, f := range s.open {
		n += f.Data.Rows()
	}
	return n
}

// MergeConfig describes how ShardMerge assembles per-shard fragments into
// merged basic windows.
type MergeConfig struct {
	// Shards is the number of contributing shards.
	Shards int
	// Data is the stream schema of the basic windows' raw runs.
	Data bat.Schema
}

// ShardMerge assembles per-shard fragments into complete basic windows at
// epoch boundaries. Each shard reports a monotone flush watermark; an
// epoch is complete once every shard's watermark has passed it, at which
// point no shard can contribute further rows to it. Completed epochs are
// emitted in order with consecutive output generations, so the downstream
// ring/join-cache machinery is oblivious to sharding. The caller
// serializes access (the group front end's merge lock).
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
		// so buildBW lists the runs deterministically regardless of delivery
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
		// like the pre-sharding slicer starting at its first row's
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

// buildBW merges epoch g's fragments (possibly none — a time gap) into
// one basic window. The raw tuples are the fragments' runs in shard order,
// uncopied, and the runs' leases move with them into the basic window; a
// single fragment's run list passes through as it is. The per-fragment
// intermediates are concatenated (bat.Concat: a single fragment's chunk
// passes through as a view, several are copied once).
func (m *ShardMerge) buildBW(g int64) *BW {
	frags := m.frags[g]
	delete(m.frags, g)
	bw := &BW{Gen: m.outGen, Epoch: g}
	m.outGen++
	switch len(frags) {
	case 0:
		bw.Data = bat.NewRuns(m.cfg.Data)
	case 1:
		bw.Data = frags[0].Data
	default:
		n := 0
		for _, f := range frags {
			n += len(f.Data.Chunks)
		}
		bw.Data = &bat.Runs{Schema: m.cfg.Data, Chunks: make([]*bat.Chunk, 0, n)}
		for _, f := range frags {
			bw.Data.Take(f.Data)
		}
	}
	for _, f := range frags {
		bw.MaxArrival = max(bw.MaxArrival, f.MaxArrival)
	}
	return bw
}
