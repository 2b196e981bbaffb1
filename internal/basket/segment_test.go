package basket

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"datacell/internal/bat"
)

func wideSchema() bat.Schema {
	return bat.NewSchema([]string{"v", "s"}, []bat.Kind{bat.Int, bat.Str})
}

// wideChunk holds rows [from, from+n): v = row number, s = its decimal.
func wideChunk(from, n int) *bat.Chunk {
	vs := make(bat.Ints, n)
	ss := make(bat.Strs, n)
	for i := range vs {
		vs[i] = int64(from + i)
		ss[i] = fmt.Sprint(from + i)
	}
	return &bat.Chunk{Schema: wideSchema(), Cols: []bat.Vector{vs, ss}}
}

// peeked is one PeekSeqs result together with a deep copy taken when it
// was handed out.
type peeked struct {
	c, want     *bat.Chunk
	arr, seqs   bat.Ints
	wArr, wSeqs bat.Ints
}

func (p peeked) changed() bool {
	return !slices.Equal(p.c.Cols[0].(bat.Ints), p.want.Cols[0].(bat.Ints)) ||
		!slices.Equal(p.c.Cols[1].(bat.Strs), p.want.Cols[1].(bat.Strs)) ||
		!slices.Equal(p.arr, p.wArr) || !slices.Equal(p.seqs, p.wSeqs)
}

// TestPeekViewsImmutableUnderProducer: views handed out by PeekSeqs stay
// byte-identical while a concurrent producer makes 10⁴ more appends of
// mixed sizes and the consumer keeps consuming (and so vacuuming). Under
// -race this also proves the producer never writes memory a view covers.
func TestPeekViewsImmutableUnderProducer(t *testing.T) {
	const appends = 10000
	b := New("s", wideSchema())
	id := b.Register()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		next := 0
		for i := 0; i < appends; i++ {
			n := 1 + rng.Intn(40)
			if i%500 == 0 {
				n = 1500 + rng.Intn(3000) // now and then larger than a segment floor
			}
			if err := b.Append(wideChunk(next, n), int64(i)); err != nil {
				t.Error(err)
				return
			}
			next += n
		}
	}()

	produced := make(chan struct{})
	go func() { wg.Wait(); close(produced) }()

	var kept []peeked
	seen := 0
	rng := rand.New(rand.NewSource(8))
	for done := false; !done; {
		select {
		case <-produced:
			done = true // one more pass drains the rest
		default:
		}
		for {
			c, arr, seqs := b.PeekSeqs(id, 1+rng.Intn(700))
			if c == nil {
				break
			}
			for i, s := range seqs {
				if s != int64(seen+i) || c.Cols[0].(bat.Ints)[i] != s {
					t.Fatalf("row %d: seq %d, v %d", seen+i, s, c.Cols[0].(bat.Ints)[i])
				}
			}
			seen += len(seqs)
			if len(kept) < 200 {
				kept = append(kept, peeked{
					c: c, want: c.CopyRange(0, c.Rows()),
					arr: arr, seqs: seqs,
					wArr: append(bat.Ints(nil), arr...), wSeqs: append(bat.Ints(nil), seqs...),
				})
			}
			b.Consume(id, int64(len(seqs)))
			if rng.Intn(50) == 0 {
				for k, p := range kept {
					if p.changed() {
						t.Fatalf("view %d changed mid-run", k)
					}
				}
			}
		}
	}
	for k, p := range kept {
		if p.changed() {
			t.Fatalf("view %d changed after the run", k)
		}
	}
	if int64(seen) != b.TotalIn() {
		t.Fatalf("consumed %d rows of %d", seen, b.TotalIn())
	}
}

// laggingAppend appends chunks of rows each to a basket whose consumer
// stays lag chunks behind — it consumes only what lies further back.
func laggingAppend(b *Basket, id int, c *bat.Chunk, chunks, lag int) {
	for i := 0; i < chunks; i++ {
		_ = b.Append(c, int64(i))
		if i >= lag {
			b.Consume(id, int64(c.Rows()))
		}
	}
}

// TestAppendAllocsLaggingConsumer: each tuple is copied once, into its
// segment. Appending 4096-row chunks while a consumer lags allocates no
// more than 1.1× the bytes the basket has to hold — columns plus arrival
// and sequence stamps. (A basket that regrows one array per column
// allocated several times that.)
func TestAppendAllocsLaggingConsumer(t *testing.T) {
	const rows, chunks = 4096, 64
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	c := &bat.Chunk{Schema: sch, Cols: []bat.Vector{
		make(bat.Times, rows), make(bat.Ints, rows), make(bat.Floats, rows),
	}}
	b := New("s", sch)
	id := b.Register()
	laggingAppend(b, id, c, 8, 4) // warm the segment list

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	laggingAppend(b, id, c, chunks, 4)
	runtime.ReadMemStats(&after)
	data := float64(chunks * rows * (3*8 + 2*8))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.1*data {
		t.Fatalf("appending %.0f data bytes allocated %.0f (%.2f×), want ≤ 1.1×", data, got, got/data)
	}
}

// TestConsumedBasketKeepsOnlyTail: once every consumer has passed every
// row, the basket keeps at most one segment — a tail with spare capacity
// that the next small appends keep filling.
func TestConsumedBasketKeepsOnlyTail(t *testing.T) {
	b := New("s", wideSchema())
	id := b.Register()
	next := 0
	for _, n := range []int{3, 5000, 1, 700, 2000, 1, 1} {
		_ = b.Append(wideChunk(next, n), 0)
		next += n
		b.ConsumeEach(id, func(*bat.Chunk, bat.Ints, bat.Ints) {})
		b.mu.Lock()
		segs := len(b.segs)
		partial := segs == 1 && b.segs[0].room() > 0
		b.mu.Unlock()
		if segs > 1 || (segs == 1 && !partial) {
			t.Fatalf("after consuming an append of %d rows: %d segments (partly filled tail: %v)", n, segs, partial)
		}
	}
	if st := b.Stats(); st.TotalIn != int64(next) || st.TotalDrop+int64(st.Len) != int64(next) {
		t.Fatalf("stats = %+v after %d rows", st, next)
	}
}

// TestMixedAppendsStampsContinuous: small appends sharing a segment,
// appends split across a tail and a new segment, and routed (gathered)
// appends all keep sequence and arrival stamps continuous, and the
// segments tile the row range without gaps.
func TestMixedAppendsStampsContinuous(t *testing.T) {
	b := New("s", wideSchema())
	id := b.Register()
	rng := rand.New(rand.NewSource(3))
	next := 0
	var wantArr []int64
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(20)
		if rng.Intn(10) == 0 {
			n = 1000 + rng.Intn(3000)
		}
		if rng.Intn(4) == 0 {
			// Routed append: the last n rows of an (n+1)-row chunk whose
			// sequence range starts one row before them.
			src := wideChunk(next-1, n+1)
			sel := make([]int32, n)
			for k := range sel {
				sel[k] = int32(k + 1)
			}
			if err := b.AppendRouted(src, sel, int64(i), int64(next-1)); err != nil {
				t.Fatal(err)
			}
		} else if err := b.Append(wideChunk(next, n), int64(i)); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			wantArr = append(wantArr, int64(i))
		}
		next += n
	}
	b.mu.Lock()
	for k := 1; k < len(b.segs); k++ {
		if b.segs[k].start != b.segs[k-1].end() {
			t.Fatalf("segment %d starts at %d, previous ends at %d", k, b.segs[k].start, b.segs[k-1].end())
		}
	}
	b.mu.Unlock()
	row := 0
	b.ConsumeEach(id, func(c *bat.Chunk, arr, seqs bat.Ints) {
		vs, ss := c.Cols[0].(bat.Ints), c.Cols[1].(bat.Strs)
		for i := range seqs {
			if seqs[i] != int64(row) || vs[i] != int64(row) || ss[i] != fmt.Sprint(row) || arr[i] != wantArr[row] {
				t.Fatalf("row %d: seq %d v %d s %q arrival %d (want %d)", row, seqs[i], vs[i], ss[i], arr[i], wantArr[row])
			}
			row++
		}
	})
	if row != next {
		t.Fatalf("drained %d rows, appended %d", row, next)
	}
}

// BenchmarkBasketAppendLagging is the producer's cost per 4096-row append
// while a consumer lags four appends behind; with ReportAllocs, B/op is
// the bytes each append allocates. The consumer takes no views, so every
// vacuumed segment's storage returns to the basket and a later append
// writes into it: B/op is per-segment bookkeeping, not the 160 KiB of
// data each append holds.
func BenchmarkBasketAppendLagging(b *testing.B) {
	const rows = 4096
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	c := &bat.Chunk{Schema: sch, Cols: []bat.Vector{
		make(bat.Times, rows), make(bat.Ints, rows), make(bat.Floats, rows),
	}}
	bk := New("s", sch)
	id := bk.Register()
	b.ReportAllocs()
	b.SetBytes(rows * (3*8 + 2*8))
	b.ResetTimer()
	laggingAppend(bk, id, c, b.N, 4)
}
