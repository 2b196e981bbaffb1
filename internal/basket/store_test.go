package basket

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"datacell/internal/bat"
)

// seqChunk holds rows [from, from+n) of a one-column Int stream: v = row.
func seqChunk(from, n int) *bat.Chunk {
	vs := make(bat.Ints, n)
	for i := range vs {
		vs[i] = int64(from + i)
	}
	return chunkOf(vs...)
}

// checkSeq fails unless c's rows are from, from+1, ...
func checkSeq(t *testing.T, what string, c *bat.Chunk, from int) {
	t.Helper()
	for i, v := range c.Cols[0].(bat.Ints) {
		if v != int64(from+i) {
			t.Fatalf("%s: row %d holds %d, want %d", what, i, v, from+i)
		}
	}
}

// live reports how many released stores a free list still holds.
func live(l *freeList) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, p := range l.items {
		if p.Value() != nil {
			n++
		}
	}
	return n
}

// freeStores reports the released column stores the basket's free list
// still holds.
func freeStores(b *Basket) int { return live(b.freeCols) }

// noGC turns the collector off for the rest of the test: the free lists
// hold released stores weakly, and a collection in the middle of a test
// would empty them.
func noGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestUnleasedViewsPin: every view handed out without a lease — PeekSeqs,
// ConsumeEach, a single-segment Snapshot and ExportState — pins its
// storage. Once the basket vacuums the segment, the store stays off the
// free list, and an append of the same size allocates afresh instead of
// overwriting the view.
func TestUnleasedViewsPin(t *testing.T) {
	const n = 3000
	views := map[string]func(b *Basket, id int) *bat.Chunk{
		"PeekSeqs": func(b *Basket, id int) *bat.Chunk {
			c, _, _ := b.PeekSeqs(id, n)
			return c
		},
		"ConsumeEach": func(b *Basket, id int) *bat.Chunk {
			var kept *bat.Chunk
			b.ConsumeEach(id, func(c *bat.Chunk, _, _ bat.Ints) { kept = c })
			return kept
		},
		"Snapshot":    func(b *Basket, _ int) *bat.Chunk { return b.Snapshot() },
		"ExportState": func(b *Basket, _ int) *bat.Chunk { return b.ExportState().Rows },
	}
	for name, view := range views {
		b := New("s", sch())
		id := b.Register()
		_ = b.Append(seqChunk(0, n), 1)
		c := view(b, id)
		b.Consume(id, n)
		if b.Stats().Len != 0 {
			t.Fatalf("%s: segment not vacuumed", name)
		}
		if got := freeStores(b); got != 0 {
			t.Fatalf("%s: %d pinned stores on the free list", name, got)
		}
		_ = b.Append(seqChunk(n, n), 2)
		checkSeq(t, name+" view after a same-size append", c, 0)
		if st := b.Stats(); st.Reused != 0 {
			t.Fatalf("%s: a pinned segment was reused (%+v)", name, st)
		}
	}
}

// TestInFlightConsumeHoldsStorage: a leased consume holds both stores
// while its callback runs, even though the consume itself has already
// vacuumed the segment — an append of the same size made from inside the
// callback gets fresh storage. A callback that retains nothing lets the
// stores go back to the free list once it returns; one that retains the
// lease keeps them until it releases.
func TestInFlightConsumeHoldsStorage(t *testing.T) {
	noGC(t)
	const n = 2500
	b := New("s", sch())
	id := b.Register()
	_ = b.Append(seqChunk(0, n), 1)
	b.ConsumeLeased(id, func(c *bat.Chunk, l bat.Lease, arr, seqs bat.Ints) {
		if b.Stats().Len != 0 {
			t.Fatal("consume did not vacuum before the callback")
		}
		st := l.(*store)
		if refs := st.refs.Load(); refs != 1 {
			t.Fatalf("in-flight column store holds %d references, want 1", refs)
		}
		if got := freeStores(b); got != 0 {
			t.Fatalf("%d stores released while the callback runs", got)
		}
		_ = b.Append(seqChunk(n, n), 2)
		checkSeq(t, "in-flight view", c, 0)
		for i, s := range seqs {
			if s != int64(i) || arr[i] != 1 {
				t.Fatalf("in-flight stamps changed at row %d: seq %d arrival %d", i, s, arr[i])
			}
		}
	})
	if got := freeStores(b); got != 1 {
		t.Fatalf("%d column stores released after the callback, want 1", got)
	}
	if got := live(b.freeStamps); got != 1 {
		t.Fatalf("%d stamp stores released after the callback, want 1", got)
	}

	// The second append's segment: this time the callback keeps its rows.
	runs := bat.NewRuns(sch())
	b.ConsumeLeased(id, func(c *bat.Chunk, l bat.Lease, _, _ bat.Ints) { runs.AppendLeased(c, l) })
	if got := freeStores(b); got != 1 {
		t.Fatalf("a leased store was released: %d on the free list, want 1", got)
	}
	checkSeq(t, "leased run", runs.Chunks[0], n)
	runs.Release()
	if got := freeStores(b); got != 2 {
		t.Fatalf("%d column stores released after the lease, want 2", got)
	}
	if poison {
		if v := runs.Chunks[0].Cols[0].(bat.Ints)[0]; v != poisonInt {
			t.Fatalf("released run reads %d, want the poison value", v)
		}
	}
}

// TestReuseBestFitCapped: a fresh store has room for n + n/16 rows; an
// append reuses the smallest released store with room for n to n + n/8
// rows, and caps its vectors at n, so the reused segment has no spare
// room — exactly like a fresh one.
func TestReuseBestFitCapped(t *testing.T) {
	noGC(t)
	b := New("s", sch())
	id := b.Register()
	for i, n := range []int{4000, 4400, 4800, 6000} { // none fits an earlier one
		_ = b.Append(seqChunk(0, n), int64(i))
		b.Consume(id, int64(n))
	}
	if got := freeStores(b); got != 4 {
		t.Fatalf("%d stores released, want 4", got)
	}
	// The released stores hold 4250, 4675, 5100 and 6375 rows. Each reused
	// store goes back to the free list after its round.
	from := 0
	for _, tc := range []struct{ n, size int }{
		{4200, 4250}, // up to 4725: 4250 and 4675 fit; 4250 is the best
		{4300, 4675}, // up to 4837: 4250 is too small, 5100 too big
		{3000, 0},    // up to 3375: nothing fits, a fresh store of 3187
		{5700, 6375}, // up to 6412: a store 11.8% larger than the append
		{3800, 4250}, // up to 4275: 3187 is too small
		{3187, 3187}, // the fresh store, at its full size
	} {
		before := b.Stats().Reused
		_ = b.Append(seqChunk(from, tc.n), 9)
		b.mu.Lock()
		sg := b.segs[len(b.segs)-1]
		b.mu.Unlock()
		reused := b.Stats().Reused > before
		want := tc.size
		if want == 0 {
			want = tc.n + tc.n/16
		}
		if reused != (tc.size != 0) || sg.col.size != want {
			t.Fatalf("append of %d: reused %v store of %d, want %d", tc.n, reused, sg.col.size, want)
		}
		if sg.room() != 0 || sg.stamp.size < tc.n {
			t.Fatalf("append of %d: segment has %d rows of spare room", tc.n, sg.room())
		}
		for _, col := range sg.cols {
			if c := cap(col.(bat.Ints)); c != tc.n {
				t.Fatalf("append of %d: column capacity %d", tc.n, c)
			}
		}
		b.ConsumeLeased(id, func(c *bat.Chunk, _ bat.Lease, _, _ bat.Ints) {
			checkSeq(t, "reused segment", c, from)
		})
		from += tc.n
	}
}

// TestFreeListEmptyAfterGC: the free list holds released stores weakly,
// so after a collection it yields nothing and the next append allocates.
func TestFreeListEmptyAfterGC(t *testing.T) {
	noGC(t) // only the explicit collection below runs
	b := New("s", sch())
	id := b.Register()
	for i := 0; i < 8; i++ {
		_ = b.Append(seqChunk(0, 2048), int64(i))
		b.Consume(id, 2048)
	}
	if got := freeStores(b); got == 0 {
		t.Fatal("nothing was released")
	}
	runtime.GC()
	if got := freeStores(b); got != 0 {
		t.Fatalf("%d stores survived a collection", got)
	}
	if got := live(b.freeStamps); got != 0 {
		t.Fatalf("%d stamp stores survived a collection", got)
	}
	before := b.Stats().Reused
	_ = b.Append(seqChunk(0, 2048), 9)
	if b.Stats().Reused != before {
		t.Fatal("an append reused a collected store")
	}
}

// TestLeasedLoopAllocatesNoSegments: in steady state, an append → leased
// consume → release loop writes every append into released storage, so
// it allocates nothing like the bytes it moves — no segment storage at
// all, only per-segment bookkeeping.
func TestLeasedLoopAllocatesNoSegments(t *testing.T) {
	noGC(t)
	const rows, rounds = 4096, 64
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	c := &bat.Chunk{Schema: sch, Cols: []bat.Vector{
		make(bat.Times, rows), make(bat.Ints, rows), make(bat.Floats, rows),
	}}
	b := New("s", sch)
	id := b.Register()
	runs := bat.NewRuns(sch)
	round := func(i int) {
		_ = b.Append(c, int64(i))
		b.ConsumeLeased(id, func(c *bat.Chunk, l bat.Lease, _, _ bat.Ints) { runs.AppendLeased(c, l) })
		runs.Release()
		runs = bat.NewRuns(sch)
	}
	for i := 0; i < 4; i++ {
		round(i) // warm the free lists
	}
	segs := b.Stats().Segments
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round(i)
	}
	runtime.ReadMemStats(&after)
	st := b.Stats()
	if reused := st.Reused; reused < int64(rounds)*9/10 {
		t.Fatalf("%d of %d segments reused released storage", reused, st.Segments-segs)
	}
	data := float64(rounds * rows * (3*8 + 2*8))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 0.1*data {
		t.Fatalf("moving %.0f data bytes allocated %.0f (%.3f×), want ≤ 0.1×", data, got, got/data)
	}
}

// jitterSchema is the three-column layout of the jittered reuse tests.
var jitterSchema = bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})

// collectEvery is the jittered loops' collection cadence: a collection
// empties the weak free lists every collectEvery appends, about as often
// as Linear Road's generator makes the collector run (28 cycles per
// million tuples, one per six 3,000-row shard appends).
const collectEvery = 8

// jitteredRounds is the rounds of a jittered loop: sixteen collections.
const jitteredRounds = 16 * collectEvery

// jitterLoop is an append → leased consume → release loop: add appends
// round i's rows and reports how many, then every basket of bs is
// drained into leased runs that are released at once.
type jitterLoop struct {
	bs  []*Basket
	add func(i int) int
}

// reuseAfterRefill runs the loop for jitteredRounds rounds, starting each
// run of collectEvery rounds with a collection. The first append after a
// collection must allocate, whatever the fit rule; it reports, per basket, the share of the other appends whose segment
// reused released storage, and the bytes the loop allocated per data
// byte it moved.
func reuseAfterRefill(l jitterLoop) (reuse []float64, allocPerByte float64) {
	bs := l.bs
	ids := make([]int, len(bs))
	for i, b := range bs {
		ids[i] = b.Register()
	}
	segs, reused := make([]int64, len(bs)), make([]int64, len(bs))
	rows := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < jitteredRounds; i++ {
		if i%collectEvery == 0 {
			runtime.GC()
		}
		before := make([]Stats, len(bs))
		for k, b := range bs {
			before[k] = b.Stats()
		}
		rows += l.add(i)
		for k, b := range bs {
			runs := bat.NewRuns(jitterSchema)
			b.ConsumeLeased(ids[k], func(c *bat.Chunk, l bat.Lease, _, _ bat.Ints) { runs.AppendLeased(c, l) })
			runs.Release()
			if i%collectEvery != 0 {
				st := b.Stats()
				segs[k] += st.Segments - before[k].Segments
				reused[k] += st.Reused - before[k].Reused
			}
		}
	}
	runtime.ReadMemStats(&m1)
	for k := range bs {
		reuse = append(reuse, float64(reused[k])/float64(segs[k]))
	}
	return reuse, float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rows*(3*8+2*8))
}

// checkJitteredReuse fails unless at least 80% of the appends after each
// refill reused released storage, in every basket, and the loop
// allocated at most 0.35 bytes per data byte. Over seeds 1–20 the
// headroom rule reuses 88–95% and allocates 0.20–0.29 bytes per byte.
// An exact-fit rule (fresh stores of n rows, reused for n to n + n/16)
// misses whenever an append is a few rows larger than every store
// released since the last collection: it reuses 60–75% and allocates
// 0.37–0.51 bytes per byte.
func checkJitteredReuse(t *testing.T, l jitterLoop) {
	t.Helper()
	reuse, alloc := reuseAfterRefill(l)
	for k, r := range reuse {
		if r < 0.8 {
			t.Errorf("%s: %.1f%% of the appends after a refill reused released storage, want ≥ 80%%", l.bs[k].Name(), 100*r)
		}
	}
	if alloc > 0.35 {
		t.Errorf("allocated %.3f bytes per data byte moved, want ≤ 0.35", alloc)
	}
}

// TestJitteredAppendsReuseStorage: appends whose sizes jitter by ±5%
// around 3,000 rows — what one shard of a two-way split receives — still
// write into released storage between collections. A fresh store's
// headroom and the reuse window together cover the spread, so a store
// is seldom a few rows short.
func TestJitteredAppendsReuseStorage(t *testing.T) {
	noGC(t) // only the loop's own collections run
	checkJitteredReuse(t, jitteredSingle(7))
}

// TestJitteredAppendsReuseStorageSharded: a keyed two-shard container
// splits 6,000-row chunks 2,850–3,150 against the rest, so each shard's
// appends jitter by ±5%. Each shard still reuses its released storage.
func TestJitteredAppendsReuseStorageSharded(t *testing.T) {
	noGC(t)
	checkJitteredReuse(t, jitteredSharded(7))
}

// jitteredSingle is the single-basket jittered loop for a seed.
func jitteredSingle(seed int64) jitterLoop {
	const mean = 3000
	rng := rand.New(rand.NewSource(seed))
	src := jitterRows(mean + mean/20)
	b := New("s", jitterSchema)
	return jitterLoop{[]*Basket{b}, func(i int) int {
		n := mean - mean/20 + rng.Intn(mean/10+1)
		_ = b.Append(src.Slice(0, n), int64(i))
		return n
	}}
}

// jitteredSharded is the two-shard jittered loop for a seed.
func jitteredSharded(seed int64) jitterLoop {
	const rows = 6000
	var keys [2]int64 // a key routed to shard 0, and one routed to shard 1
	for k, found := int64(0), 0; found != 3; k++ {
		sh := mix64(uint64(k)) % 2
		keys[sh], found = k, found|1<<sh
	}
	rng := rand.New(rand.NewSource(seed))
	src := jitterRows(rows)
	ks := src.Cols[1].(bat.Ints)
	s := NewSharded("s", jitterSchema, 2, 1)
	return jitterLoop{[]*Basket{s.Shard(0), s.Shard(1)}, func(i int) int {
		split := rows/2 - rows/40 + rng.Intn(rows/20+1)
		fill(ks[:split], keys[0])
		fill(ks[split:], keys[1])
		_ = s.Append(src, int64(i))
		return rows
	}}
}

// jitterRows is a source chunk of n zeroed jitterSchema rows; appends
// take views of its prefixes, so the loops allocate no input rows.
func jitterRows(n int) *bat.Chunk {
	return &bat.Chunk{Schema: jitterSchema, Cols: []bat.Vector{
		make(bat.Times, n), make(bat.Ints, n), make(bat.Floats, n),
	}}
}
