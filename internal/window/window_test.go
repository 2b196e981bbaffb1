package window

import (
	"testing"
	"time"

	"datacell/internal/bat"
	"datacell/internal/plan"
)

func sch() bat.Schema {
	return bat.NewSchema([]string{"ts", "v"}, []bat.Kind{bat.Time, bat.Int})
}

func chunkTS(pairs ...[2]int64) (*bat.Chunk, bat.Ints) {
	c := bat.NewChunk(sch())
	var arr bat.Ints
	for _, p := range pairs {
		_ = c.AppendRow(bat.TimeValue(p[0]), bat.IntValue(p[1]))
		arr = append(arr, p[0]) // arrival = event time for tests
	}
	return c, arr
}

// oneShard drives the live slicing path the way the engine does for an
// unsharded stream: a one-shard ShardSlicer fed dense sequence stamps,
// flushed at the stream's sealing watermark after every push, and merged
// into basic windows (ShardMerge fills time gaps with empty ones).
type oneShard struct {
	w     *plan.Window
	sl    *ShardSlicer
	m     *ShardMerge
	seq   int64 // next sequence stamp
	maxTs int64 // newest event time seen (time windows)
	seen  bool
}

func newOneShard(w *plan.Window) *oneShard {
	return &oneShard{
		w:  w,
		sl: NewShardSlicer(w, sch()),
		m:  NewShardMerge(MergeConfig{Shards: 1, Data: sch()}),
	}
}

// Push feeds newly arrived tuples and returns the basic windows they
// completed.
func (o *oneShard) Push(c *bat.Chunk, arrivals bat.Ints) []*BW {
	seqs := make(bat.Ints, c.Rows())
	for i := range seqs {
		seqs[i] = o.seq + int64(i)
	}
	o.seq += int64(len(seqs))
	o.sl.Push(c, nil, arrivals, seqs)
	if o.w.Tuples {
		return o.flush(o.seq / o.w.Slide)
	}
	for _, ts := range bat.AsInts(c.Cols[o.w.TimeIdx]) {
		if !o.seen || ts > o.maxTs {
			o.maxTs, o.seen = ts, true
		}
	}
	return o.AdvanceTime(o.maxTs)
}

// AdvanceTime closes the time buckets below the one holding ts — the
// engine's heartbeat watermark. Tuple windows never time out, and
// nothing closes before the first tuple.
func (o *oneShard) AdvanceTime(ts int64) []*BW {
	if o.w.Tuples || !o.seen {
		return nil
	}
	o.maxTs = max(o.maxTs, ts)
	return o.flush(o.sl.TimeGen(o.maxTs))
}

func (o *oneShard) flush(wmGen int64) []*BW {
	return o.m.Offer(0, o.sl.Flush(wmGen), o.sl.Watermark())
}

// Pending reports how many tuples are buffered in open basic windows.
func (o *oneShard) Pending() int { return o.sl.Pending() }

func TestTupleSlicer(t *testing.T) {
	w := &plan.Window{Tuples: true, Size: 6, Slide: 3}
	s := newOneShard(w)
	c, arr := chunkTS([2]int64{1, 10}, [2]int64{2, 20})
	if got := s.Push(c, arr); len(got) != 0 {
		t.Fatalf("premature close: %d", len(got))
	}
	if s.Pending() != 2 {
		t.Errorf("Pending = %d", s.Pending())
	}
	c, arr = chunkTS([2]int64{3, 30}, [2]int64{4, 40}, [2]int64{5, 50}, [2]int64{6, 60}, [2]int64{7, 70})
	bws := s.Push(c, arr)
	if len(bws) != 2 {
		t.Fatalf("closed %d basic windows, want 2", len(bws))
	}
	if bws[0].Gen != 0 || bws[1].Gen != 1 {
		t.Errorf("gens = %d, %d", bws[0].Gen, bws[1].Gen)
	}
	if bws[0].Data.Rows() != 3 || bws[0].Data.Concat().Row(2)[1].I != 30 {
		t.Errorf("bw0 = %v", bws[0].Data.Concat())
	}
	if bws[0].MaxArrival != 3 || bws[1].MaxArrival != 6 {
		t.Errorf("max arrivals = %d, %d", bws[0].MaxArrival, bws[1].MaxArrival)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending after = %d", s.Pending())
	}
}

func TestTupleSlicerLargeBatch(t *testing.T) {
	w := &plan.Window{Tuples: true, Size: 4, Slide: 2}
	s := newOneShard(w)
	c := bat.NewChunk(sch())
	var arr bat.Ints
	for i := int64(0); i < 10; i++ {
		_ = c.AppendRow(bat.TimeValue(i), bat.IntValue(i))
		arr = append(arr, i)
	}
	bws := s.Push(c, arr)
	if len(bws) != 5 {
		t.Fatalf("bws = %d, want 5", len(bws))
	}
	for i, bw := range bws {
		if bw.Data.Rows() != 2 || bw.Data.Concat().Row(0)[1].I != int64(i*2) {
			t.Errorf("bw %d wrong: %v", i, bw.Data.Concat())
		}
	}
}

func TestTimeSlicer(t *testing.T) {
	us := time.Second.Microseconds()
	w := &plan.Window{Tuples: false, Range: 4 * time.Second, SlideDur: 2 * time.Second, TimeIdx: 0}
	s := newOneShard(w)
	// Events at 0.5s, 1.5s → bucket 0; 2.5s closes bucket 0.
	c, arr := chunkTS([2]int64{us / 2, 1}, [2]int64{us * 3 / 2, 2})
	if got := s.Push(c, arr); len(got) != 0 {
		t.Fatalf("premature close")
	}
	c, arr = chunkTS([2]int64{us * 5 / 2, 3})
	bws := s.Push(c, arr)
	if len(bws) != 1 || bws[0].Data.Rows() != 2 {
		t.Fatalf("bucket 0 = %+v", bws)
	}
}

func TestTimeSlicerGapEmitsEmptyBuckets(t *testing.T) {
	us := time.Second.Microseconds()
	w := &plan.Window{Tuples: false, Range: 2 * time.Second, SlideDur: time.Second, TimeIdx: 0}
	s := newOneShard(w)
	c, arr := chunkTS([2]int64{us / 2, 1}) // bucket 0
	s.Push(c, arr)
	c, arr = chunkTS([2]int64{us*3 + us/2, 2}) // bucket 3: closes 0,1,2
	bws := s.Push(c, arr)
	if len(bws) != 3 {
		t.Fatalf("closed %d buckets, want 3", len(bws))
	}
	if bws[0].Data.Rows() != 1 || bws[1].Data.Rows() != 0 || bws[2].Data.Rows() != 0 {
		t.Errorf("gap handling wrong: %d %d %d",
			bws[0].Data.Rows(), bws[1].Data.Rows(), bws[2].Data.Rows())
	}
}

func TestTimeSlicerAdvanceTime(t *testing.T) {
	us := time.Second.Microseconds()
	w := &plan.Window{Tuples: false, Range: 2 * time.Second, SlideDur: time.Second, TimeIdx: 0}
	s := newOneShard(w)
	if got := s.AdvanceTime(us * 10); got != nil {
		t.Error("AdvanceTime before first tuple should be nil")
	}
	c, arr := chunkTS([2]int64{us / 2, 1})
	s.Push(c, arr)
	bws := s.AdvanceTime(us * 2) // watermark at 2s closes buckets 0 and 1
	if len(bws) != 2 || bws[0].Data.Rows() != 1 || bws[1].Data.Rows() != 0 {
		t.Fatalf("AdvanceTime = %+v", bws)
	}
	// Tuple slicers ignore AdvanceTime.
	ts := newOneShard(&plan.Window{Tuples: true, Size: 2, Slide: 1})
	if got := ts.AdvanceTime(us); got != nil {
		t.Error("tuple slicer AdvanceTime should be nil")
	}
}

func TestTimeSlicerLateTupleClamped(t *testing.T) {
	us := time.Second.Microseconds()
	w := &plan.Window{Tuples: false, Range: 2 * time.Second, SlideDur: time.Second, TimeIdx: 0}
	s := newOneShard(w)
	c, arr := chunkTS([2]int64{us + us/2, 1}) // bucket 1
	s.Push(c, arr)
	c, arr = chunkTS([2]int64{us / 2, 2}) // late: bucket 0 already passed
	if got := s.Push(c, arr); len(got) != 0 {
		t.Fatal("late tuple should not close buckets")
	}
	c, arr = chunkTS([2]int64{us*2 + 1, 3})
	bws := s.Push(c, arr)
	if len(bws) != 1 || bws[0].Data.Rows() != 2 {
		t.Errorf("late tuple not clamped into open bucket: %+v", bws)
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	if r.Full() {
		t.Error("empty ring full")
	}
	var freed []int64
	slots := map[*BW]bool{}
	for i := int64(0); i < 5; i++ {
		c := bat.NewChunk(sch())
		_ = c.AppendRow(bat.TimeValue(i), bat.IntValue(i))
		gen := i
		slot := r.Push(BW{Gen: i, Data: bat.NewRuns(c.Schema, c), MaxArrival: i,
			Free: func() { freed = append(freed, gen) }})
		if slot.Gen != i {
			t.Fatalf("push %d returned a slot holding %d", i, slot.Gen)
		}
		slots[slot] = true
	}
	if !r.Full() {
		t.Error("ring should be full")
	}
	if len(freed) != 2 || freed[0] != 0 || freed[1] != 1 {
		t.Errorf("evicted windows released = %v, want [0 1]", freed)
	}
	if len(slots) != 3 {
		t.Errorf("5 pushes used %d slots, want the ring's 3 reused in place", len(slots))
	}
	live := r.Live()
	if len(live) != 3 || live[0].Gen != 2 || live[2].Gen != 4 {
		t.Errorf("live = %v", live)
	}
	if r.MaxArrival() != 4 {
		t.Errorf("MaxArrival = %d", r.MaxArrival())
	}
	runs := r.Runs(sch())
	if runs.Rows() != 3 || runs.Chunks[0] != live[0].Data.Chunks[0] || runs.Concat().Row(0)[1].I != 2 {
		t.Errorf("Runs = %v", runs.Concat())
	}
}

func TestRingPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRing(0) should panic")
		}
	}()
	NewRing(0)
}

func joinNode() *plan.Join {
	s := sch()
	return &plan.Join{
		LKeys: []int{1}, RKeys: []int{1},
		Out: bat.NewSchema(
			[]string{"lts", "lv", "rts", "rv"},
			[]bat.Kind{bat.Time, bat.Int, bat.Time, bat.Int},
		),
		L: &plan.Merged{Out: s}, R: &plan.Merged{Out: s},
	}
}

func bwWithOut(gen int64, vals ...int64) *BW {
	c := bat.NewChunk(sch())
	for _, v := range vals {
		_ = c.AppendRow(bat.TimeValue(gen), bat.IntValue(v))
	}
	return &BW{Gen: gen, Out: c}
}

func TestJoinCache(t *testing.T) {
	pc := NewSharedPairCache(joinNode())
	pc.Retain(2)
	l0 := bwWithOut(0, 1, 2)
	r0 := bwWithOut(0, 2, 3)
	pc.AddLeft(l0, []*BW{r0})
	if pc.Pairs() != 1 {
		t.Fatalf("pairs = %d", pc.Pairs())
	}
	merged := pc.Merged([]*BW{l0}, []*BW{r0})
	if merged.Rows() != 1 || merged.Row(0)[1].I != 2 {
		t.Fatalf("merged = %v", merged)
	}
	// New right bw joins against existing lefts.
	r1 := bwWithOut(1, 1, 1)
	pc.AddRight(r1, []*BW{l0})
	if pc.Pairs() != 2 {
		t.Fatalf("pairs = %d", pc.Pairs())
	}
	merged = pc.Merged([]*BW{l0}, []*BW{r0, r1})
	if merged.Rows() != 3 { // (1,2)x(2,3)→1 match; (1,2)x(1,1)→2 matches
		t.Fatalf("merged rows = %d", merged.Rows())
	}
	// Re-adding an existing pair is a no-op.
	pc.AddLeft(l0, []*BW{r0})
	if pc.Pairs() != 2 || pc.Computed() != 2 {
		t.Errorf("duplicate pair cached: pairs %d, computed %d", pc.Pairs(), pc.Computed())
	}
	// Eviction drops a full row/column of pairs.
	pc.evictThrough(-1, 0)
	if pc.Pairs() != 1 {
		t.Errorf("pairs after evict = %d", pc.Pairs())
	}
	pc.evictThrough(0, -1)
	if pc.Pairs() != 0 {
		t.Errorf("pairs after evict = %d", pc.Pairs())
	}
}
