package basket

import (
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

// TestReuseBestFitCapped: an append reuses the smallest released store
// with room for n to n+n/16 rows, and caps its vectors at n, so the
// reused segment has no spare room — exactly like a fresh one.
func TestReuseBestFitCapped(t *testing.T) {
	noGC(t)
	b := New("s", sch())
	id := b.Register()
	for i, n := range []int{4000, 4100, 4300, 5000} { // none fits an earlier one
		_ = b.Append(seqChunk(0, n), int64(i))
		b.Consume(id, int64(n))
	}
	if got := freeStores(b); got != 4 {
		t.Fatalf("%d stores released, want 4", got)
	}
	from := 0
	// Each reused store goes back to the free list after its round.
	for _, tc := range []struct{ n, size int }{
		{4090, 4100}, // 4100 and 4300 fit; 4100 is the best
		{4200, 4300}, // up to 4462: 4300 fits, 5000 is too big
		{3000, 0},    // up to 3187: nothing fits, fresh storage
		{4800, 5000},
		{3900, 4000}, // 4000 and 4100 fit
	} {
		before := b.Stats().Reused
		_ = b.Append(seqChunk(from, tc.n), 9)
		b.mu.Lock()
		sg := b.segs[len(b.segs)-1]
		b.mu.Unlock()
		reused := b.Stats().Reused > before
		if reused != (tc.size != 0) || (reused && sg.col.size != tc.size) {
			t.Fatalf("append of %d: reused %v store of %d, want %d", tc.n, reused, sg.col.size, tc.size)
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
