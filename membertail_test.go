package datacell

// Allocation gate for the warm shared path: a standing query that joins a
// warm merge class should cost per window about what its output costs.
// The basic-window work (filter, partial aggregate) and the class merge
// are done once for the whole class; the member adds only its HAVING
// selection, its output chunk and the bookkeeping that carries them.

import (
	"fmt"
	"runtime"
	"testing"

	"datacell/internal/bat"
)

// memberTailWindows is the number of sealed windows each measurement
// covers.
const memberTailWindows = 64

// TestMemberTailAllocs measures the heap allocations and bytes one extra
// warm class member adds per window: (allocs(8 members) − allocs(2
// members)) / 6 over 64 windows of a fanout-shaped class (one filter,
// grouped count and sum, a distinct HAVING threshold per member), and
// likewise for bytes. In the "output" class every member's HAVING keeps
// every group (it then emits a re-index of the merged view); in the
// "empty" class every HAVING rejects every group.
//
// Measured on amd64 (go1.24): about 1 allocation per member-window in the
// output class (the re-indexed result chunk) and 0 in the empty one. The
// bounds leave 2 allocations of margin for the output class, and the
// empty class must stay within the 2 allocations a member whose output
// is empty may cost. Its bytes must stay under 32 per member-window
// (measured: 16): a member whose distinct chain shares no post-merge
// node reads no memo, so the class's merged window carries no memo slab
// with two 88-byte cells for it, and its window record is one its ring
// evicted earlier rather than 64 fresh bytes.
func TestMemberTailAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	chunks := memberTailChunks(memberTailWindows + 8)
	for _, c := range []struct {
		name   string
		having int // the first member's HAVING threshold
		bound  float64
		bytes  float64 // bytes per member-window must stay below (0: unbounded)
	}{
		{"output", 0, 3, 0},
		{"empty", 1 << 20, 2, 32},
	} {
		// The minimum over a few runs discards allocations of unrelated
		// runtime activity that land inside one measurement.
		best := func(members int) (allocs, bytes float64) {
			allocs, bytes = memberTailAllocs(t, members, c.having, chunks)
			for i := 0; i < 2; i++ {
				a, b := memberTailAllocs(t, members, c.having, chunks)
				allocs, bytes = min(allocs, a), min(bytes, b)
			}
			return allocs, bytes
		}
		a2, b2 := best(2)
		a8, b8 := best(8)
		per, perB := (a8-a2)/6, (b8-b2)/6
		t.Logf("%s: allocs per window: 2 members %.1f, 8 members %.1f; per warm member-window %.2f allocs, %.1f B",
			c.name, a2, a8, per, perB)
		if per > c.bound {
			t.Errorf("%s: a warm class member allocates %.2f times per window, want <= %g", c.name, per, c.bound)
		}
		if c.bytes > 0 && perB >= c.bytes {
			t.Errorf("%s: a warm class member allocates %.1f B per window, want < %g", c.name, perB, c.bytes)
		}
	}
}

// memberTailAllocs registers members fanout-shaped queries in one merge
// class, member i with HAVING threshold having+8i, warms the class up and
// reports the heap allocations and bytes per window over the next
// memberTailWindows windows.
func memberTailAllocs(t *testing.T, members, having int, chunks []*bat.Chunk) (allocs, bytes float64) {
	t.Helper()
	const slide, size = 4096, 16384
	eng := New(&Options{Workers: 1})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	qs := make([]*Query, members)
	for i := range qs {
		sql := fmt.Sprintf("SELECT k, count(*) AS n, sum(v) AS sv FROM s [SIZE %d SLIDE %d] WHERE v > 25 GROUP BY k HAVING count(*) > %d",
			size, slide, having+8*i)
		q, err := eng.Register(fmt.Sprintf("q%d", i), sql, &RegisterOptions{Mode: ModeIncremental})
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	warm := len(chunks) - memberTailWindows
	// One window per drain: every member fires once per window, as in a
	// steady state where the tail keeps up.
	appendAll := func(cs []*bat.Chunk) {
		for _, c := range cs {
			if err := eng.Append("s", c); err != nil {
				t.Fatal(err)
			}
			eng.Drain()
		}
	}
	drainOut := func() {
		for _, q := range qs {
			for len(q.Out()) > 0 {
				<-q.Out()
			}
		}
	}
	appendAll(chunks[:warm])
	drainOut()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	appendAll(chunks[warm:])
	runtime.ReadMemStats(&after)
	for _, q := range qs {
		if n := len(q.Out()); n != memberTailWindows {
			t.Fatalf("%s emitted %d results over %d windows", q.Name(), n, memberTailWindows)
		}
	}
	drainOut()
	return float64(after.Mallocs-before.Mallocs) / memberTailWindows,
		float64(after.TotalAlloc-before.TotalAlloc) / memberTailWindows
}

// memberTailChunks builds n chunks of one slide each: 64 keys, values
// that are multiples of 1/4.
func memberTailChunks(n int) []*bat.Chunk {
	const slide, keys = 4096, 64
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	out := make([]*bat.Chunk, n)
	for c := range out {
		ts, ks, vs := make(bat.Times, slide), make(bat.Ints, slide), make(bat.Floats, slide)
		for i := range ts {
			g := c*slide + i
			ts[i] = int64(g)
			ks[i] = int64(g*7) % keys
			vs[i] = float64(g*13%400) / 4
		}
		out[c] = &bat.Chunk{Schema: sch, Cols: []bat.Vector{ts, ks, vs}}
	}
	return out
}
