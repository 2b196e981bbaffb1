package basket

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"datacell/internal/bat"
)

func shardSchema() bat.Schema {
	return bat.NewSchema([]string{"k", "v"}, []bat.Kind{bat.Int, bat.Int})
}

func shardRows(ks ...int64) *bat.Chunk {
	c := bat.NewChunk(shardSchema())
	for _, k := range ks {
		_ = c.AppendRow(bat.IntValue(k), bat.IntValue(k*10))
	}
	return c
}

func TestShardedHashRoutingIsStable(t *testing.T) {
	s := NewSharded("s", shardSchema(), 4, 0)
	if err := s.Append(shardRows(1, 2, 3, 4, 1, 2, 3, 4), 1); err != nil {
		t.Fatal(err)
	}
	// Same key always lands on the same shard: each shard holds an even
	// number of rows (every key appears twice).
	total := 0
	for i := 0; i < s.NumShards(); i++ {
		n := s.Shard(i).Stats().Len
		if n%2 != 0 {
			t.Errorf("shard %d holds %d rows; same key split across shards", i, n)
		}
		total += n
	}
	if total != 8 {
		t.Errorf("total rows = %d", total)
	}
	if s.Settled() != 8 {
		t.Errorf("settled = %d", s.Settled())
	}
}

func TestShardedRoundRobinSpreadsChunks(t *testing.T) {
	s := NewSharded("s", shardSchema(), 3, -1)
	for i := 0; i < 6; i++ {
		if err := s.Append(shardRows(int64(i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if n := s.Shard(i).Stats().Len; n != 2 {
			t.Errorf("shard %d rows = %d, want 2", i, n)
		}
	}
}

// TestShardedSeqStampsGlobalOrder checks every row carries its global
// arrival position, regardless of which shard it landed on.
func TestShardedSeqStampsGlobalOrder(t *testing.T) {
	s := NewSharded("s", shardSchema(), 4, 0)
	cids := make([]int, 4)
	for i := range cids {
		cids[i] = s.Shard(i).Register()
	}
	_ = s.Append(shardRows(5, 6, 7, 8, 9), 1)
	seen := map[int64]bool{}
	for i := 0; i < 4; i++ {
		c, _, seqs := s.Shard(i).PeekSeqs(cids[i], 100)
		if c == nil {
			continue
		}
		for j := 0; j < c.Rows(); j++ {
			if seen[seqs[j]] {
				t.Fatalf("sequence %d appears twice", seqs[j])
			}
			seen[seqs[j]] = true
			// Row k=5+g carries sequence g.
			if want := c.Cols[0].Get(j).I - 5; seqs[j] != want {
				t.Errorf("row k=%d has seq %d, want %d", c.Cols[0].Get(j).I, seqs[j], want)
			}
		}
	}
	if len(seen) != 5 {
		t.Errorf("recovered %d sequences, want 5", len(seen))
	}
}

// TestShardedSettledUnderConcurrency: the watermark only ever covers fully
// appended prefixes, and ends at the exact total.
func TestShardedSettledUnderConcurrency(t *testing.T) {
	s := NewSharded("s", shardSchema(), 4, 0)
	const producers = 8
	const chunks = 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < chunks; i++ {
				_ = s.Append(shardRows(int64(p), int64(i), int64(p+i)), 1)
			}
		}(p)
	}
	wg.Wait()
	want := int64(producers * chunks * 3)
	if got := s.Settled(); got != want {
		t.Errorf("settled = %d, want %d", got, want)
	}
	if got := s.Stats().TotalIn; got != want {
		t.Errorf("TotalIn = %d, want %d", got, want)
	}
}

func TestShardedOnAppendFiresAfterSettle(t *testing.T) {
	s := NewSharded("s", shardSchema(), 2, 0)
	var calls int
	s.OnAppend(func() {
		if s.Settled() == 0 {
			t.Error("callback before settle")
		}
		calls++
	})
	_ = s.Append(shardRows(1, 2), 1)
	_ = s.Append(shardRows(3), 1)
	if calls != 2 {
		t.Errorf("calls = %d", calls)
	}
}

func TestShardedPauseHoldsSequencing(t *testing.T) {
	s := NewSharded("s", shardSchema(), 2, 0)
	s.Pause()
	_ = s.Append(shardRows(1, 2, 3), 1)
	if s.Settled() != 0 {
		t.Error("paused append advanced the watermark")
	}
	if got := s.Stats().Len; got != 0 {
		t.Errorf("paused rows visible: %d", got)
	}
	s.Resume()
	if s.Settled() != 3 {
		t.Errorf("settled after resume = %d", s.Settled())
	}
}

func TestShardedSchemaMismatch(t *testing.T) {
	s := NewSharded("s", shardSchema(), 2, 0)
	bad := bat.NewChunk(bat.NewSchema([]string{"x"}, []bat.Kind{bat.Str}))
	_ = bad.AppendRow(bat.StrValue("no"))
	if err := s.Append(bad, 1); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestShardedStatsAggregate(t *testing.T) {
	s := NewSharded("s", shardSchema(), 4, 0)
	_ = s.Append(shardRows(1, 2, 3, 4, 5, 6), 1)
	st := s.Stats()
	if st.Name != "s" || st.Shards != 4 || st.Len != 6 || st.TotalIn != 6 {
		t.Errorf("stats = %+v", st)
	}
	if got := len(s.ShardStats()); got != 4 {
		t.Errorf("ShardStats len = %d", got)
	}
	if s.Shard(0).Name() != "s/0" {
		t.Errorf("shard name = %q", s.Shard(0).Name())
	}
}

func TestShardedSingleDegeneratesToBasket(t *testing.T) {
	s := NewSharded("s", shardSchema(), 1, -1)
	cid := s.Shard(0).Register()
	for i := 0; i < 3; i++ {
		_ = s.Append(shardRows(int64(i)), int64(i+1))
	}
	c, _, seqs := s.Shard(0).PeekSeqs(cid, 10)
	if c.Rows() != 3 {
		t.Fatalf("rows = %d", c.Rows())
	}
	for i := 0; i < 3; i++ {
		if seqs[i] != int64(i) {
			t.Errorf("seq[%d] = %d", i, seqs[i])
		}
	}
	snap := s.Snapshot()
	if snap.Rows() != 3 {
		t.Errorf("snapshot rows = %d", snap.Rows())
	}
	if fmt.Sprint(snap.Row(0)) != fmt.Sprint(c.Row(0)) {
		t.Errorf("snapshot diverges from shard content")
	}
}

// TestShardedPausedAppendValidates: malformed chunks must be rejected at
// Append time even while paused — not buffered and exploded on Resume.
func TestShardedPausedAppendValidates(t *testing.T) {
	s := NewSharded("s", shardSchema(), 2, 0)
	s.Pause()
	bad := bat.NewChunk(bat.NewSchema([]string{"x"}, []bat.Kind{bat.Str}))
	_ = bad.AppendRow(bat.StrValue("no"))
	if err := s.Append(bad, 1); err == nil {
		t.Fatal("paused append accepted a malformed chunk")
	}
	s.Resume() // must not panic and must replay nothing
	if got := s.Stats().TotalIn; got != 0 {
		t.Errorf("TotalIn = %d after rejected append", got)
	}
}

// TestShardedSnapshotOutOfOrderSeqs: producers can win a shard's mutex in
// a different order than they claimed sequence ranges, so in-shard
// sequences are not ascending; Snapshot must still return global order.
func TestShardedSnapshotOutOfOrderSeqs(t *testing.T) {
	s := NewSharded("s", shardSchema(), 2, 0)
	// Simulate the race: the later range lands in shard 0 first.
	if err := s.Shard(0).AppendSeqs(shardRows(2, 3), 1, seqInts(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Shard(0).AppendSeqs(shardRows(0, 1), 1, seqInts(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Shard(1).AppendSeqs(shardRows(4), 1, seqInts(4)); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Rows() != 5 {
		t.Fatalf("rows = %d", snap.Rows())
	}
	for i := 0; i < 5; i++ {
		if got := snap.Cols[0].Get(i).I; got != int64(i) {
			t.Fatalf("row %d = k%d, want k%d (global order lost)", i, got, i)
		}
	}
}

func seqInts(vals ...int64) bat.Ints { return bat.Ints(vals) }

// TestShardedPauseIsAtomic: once Pause returns, no in-flight append may
// make tuples visible — the guarantee the single basket got from holding
// one mutex across the pause check and the append.
func TestShardedPauseIsAtomic(t *testing.T) {
	s := NewSharded("s", shardSchema(), 4, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Append(shardRows(int64(p), int64(i)), 1)
			}
		}(p)
	}
	for round := 0; round < 20; round++ {
		s.Pause()
		before := s.Stats().TotalIn
		for spin := 0; spin < 100; spin++ {
			if got := s.Stats().TotalIn; got != before {
				t.Fatalf("round %d: %d tuples became visible after Pause returned", round, got-before)
			}
		}
		s.Resume()
	}
	close(stop)
	wg.Wait()
}

// TestSeqTrackerOutOfOrder: ranges completing in any order advance the
// watermark exactly over the contiguous prefix, and only there; a range's
// event-time maximum folds into the settled time only once the prefix
// below it has completed.
func TestSeqTrackerOutOfOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var bounds []int64
	for lo := int64(0); lo < 5000; lo += 1 + rng.Int63n(7) {
		bounds = append(bounds, lo)
	}
	tsMax := make([]int64, len(bounds)-1)
	for i := range tsMax {
		tsMax[i] = rng.Int63n(1_000_000)
	}
	order := rng.Perm(len(bounds) - 1)
	tr := newSeqTracker(1)
	covered := make([]bool, len(bounds)-1)
	for _, i := range order {
		tr.add(bounds[i], bounds[i+1], []int64{tsMax[i]})
		covered[i] = true
		want, wantTs := bounds[0], int64(math.MinInt64)
		for j := 0; j < len(covered) && covered[j]; j++ {
			want, wantTs = bounds[j+1], max(wantTs, tsMax[j])
		}
		if got := tr.wm; got != want {
			t.Fatalf("after range %d: watermark %d, want %d", i, got, want)
		}
		if got := tr.ts[0]; got != wantTs {
			t.Fatalf("after range %d: settled time %d, want %d", i, got, wantTs)
		}
	}
}

func timeSchema() bat.Schema {
	return bat.NewSchema([]string{"k", "ts", "at"}, []bat.Kind{bat.Int, bat.Time, bat.Time})
}

func timeRows(k int64, ts ...int64) *bat.Chunk {
	c := bat.NewChunk(timeSchema())
	for _, v := range ts {
		_ = c.AppendRow(bat.IntValue(k), bat.TimeValue(v), bat.TimeValue(-v))
	}
	return c
}

// TestShardedSettledTime: each TIMESTAMP column's settled time is the
// largest value over the settled rows, on the single-shard fast path, the
// sharded path and through a pause; AdvanceTime raises it only once a row
// has settled, and wakes the subscribers as an append does.
func TestShardedSettledTime(t *testing.T) {
	for _, n := range []int{1, 3} {
		s := NewSharded("s", timeSchema(), n, 0)
		fired := 0
		s.OnAppend(func() { fired++ })
		s.AdvanceTime(50)
		if got := s.SettledTime(1); got != math.MinInt64 || fired != 0 {
			t.Fatalf("%d shards: advance before any row: settled time %d, %d notifications", n, got, fired)
		}
		if err := s.Append(timeRows(1, 30, 10, 20), 1); err != nil {
			t.Fatal(err)
		}
		if got, at := s.SettledTime(1), s.SettledTime(2); got != 30 || at != -10 {
			t.Fatalf("%d shards: settled times %d, %d; want 30, -10", n, got, at)
		}
		if got := s.SettledTime(0); got != math.MinInt64 {
			t.Fatalf("%d shards: INT column has settled time %d", n, got)
		}
		s.Pause()
		_ = s.Append(timeRows(2, 40), 1)
		if got := s.SettledTime(1); got != 30 {
			t.Fatalf("%d shards: held row moved the settled time to %d", n, got)
		}
		s.Resume()
		if got := s.SettledTime(1); got != 40 {
			t.Fatalf("%d shards: settled time after resume %d, want 40", n, got)
		}
		before := fired
		s.AdvanceTime(-20)
		if got := s.SettledTime(1); got != 40 || fired != before {
			t.Fatalf("%d shards: advance below the clock: %d, %d notifications", n, got, fired-before)
		}
		s.AdvanceTime(70)
		if got, at := s.SettledTime(1), s.SettledTime(2); got != 70 || at != 70 || fired != before+1 {
			t.Fatalf("%d shards: advance to 70: settled times %d, %d, %d notifications", n, got, at, fired-before)
		}
		_ = s.Append(timeRows(3, 60), 1)
		if got := s.SettledTime(1); got != 70 {
			t.Fatalf("%d shards: a late row lowered the settled time to %d", n, got)
		}
	}
}

// TestShardedAppendAllocsInOrder: an in-order append settles its range
// and folds its event-time maximum without allocating in the container.
func TestShardedAppendAllocsInOrder(t *testing.T) {
	s := NewSharded("s", timeSchema(), 1, 0)
	c := timeRows(1, 5, 6, 7)
	var clock int64
	allocs := testing.AllocsPerRun(200, func() {
		var buf [2]int64
		clock++
		s.settled.add(s.settled.wm, s.settled.wm+3, s.timeMax(buf[:0], c))
		s.AdvanceTime(clock)
	})
	if allocs != 0 {
		t.Fatalf("in-order settle allocates %.1f times", allocs)
	}
}

// TestShardedRouteAllocs: routing a keyed append allocates nothing once
// the container's selection lists are warm. On a pool miss it allocates
// each shard's list once, sized to its share, instead of growing it by
// doubling.
func TestShardedRouteAllocs(t *testing.T) {
	const rows, n = 6000, 2
	s := NewSharded("s", shardSchema(), n, 0)
	ks := make(bat.Ints, rows)
	for i := range ks {
		ks[i] = int64(i % 97)
	}
	c := &bat.Chunk{Schema: shardSchema(), Cols: []bat.Vector{ks, make(bat.Ints, rows)}}
	if !raceEnabled { // the race detector makes sync.Pool drop what it is given
		warm := func() { s.sels.Put(s.route(c)) }
		warm()
		if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
			t.Fatalf("a warm keyed route allocates %.1f times", allocs)
		}
	}
	// Never handed back, so every route misses the pool: the pool's slice
	// of lists (two allocations) and one list per shard.
	if allocs := testing.AllocsPerRun(20, func() { s.route(c) }); allocs > n+2 {
		t.Fatalf("a keyed route on a pool miss allocates %.1f times, want ≤ %d", allocs, n+2)
	}
}
