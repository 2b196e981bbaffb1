package datacell

// The delivery log: a sealed window is fanned out once, and every member
// reads it from its own cursor. A member-window therefore costs the
// delivery nothing, and a member that joins, pauses or leaves mid-stream
// reads exactly what an isolated twin started at the same point would.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"datacell/internal/bat"
	"datacell/internal/factory"
)

// fanoutBurstWindows is the number of windows one Drain delivers.
const fanoutBurstWindows = 64

// TestFanoutBurstAllocs measures what one more member of a warm merge
// class costs the fan-out per window when windows arrive in bursts: the
// shape of the fanout benchmark workload (8 filters × 8 HAVING
// thresholds, SIZE 16384 SLIDE 4096, NoChannel), fed 64 windows per
// Drain, compared at 16 and 64 members — 8 classes either way, so the
// classes' own work cancels and the difference is 48 members' share.
// Every HAVING threshold lies above any group's count, so each member's
// output is the cached empty chunk and what remains is delivery: the
// member reads the logged window in place and keeps it in a ring slot it
// reuses, which must allocate nothing (≤ 0.05 allocations and ≤ 16 B per
// member-window, for runtime noise).
func TestFanoutBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	burst := fanoutBurstChunk()
	best := func(members int) (allocs, bytes float64) {
		allocs, bytes = fanoutBurstAllocs(t, members, burst)
		for i := 0; i < 2; i++ {
			a, b := fanoutBurstAllocs(t, members, burst)
			allocs, bytes = min(allocs, a), min(bytes, b)
		}
		return allocs, bytes
	}
	a16, b16 := best(16)
	a64, b64 := best(64)
	per, perB := (a64-a16)/48, (b64-b16)/48
	t.Logf("per window: 16 members %.1f allocs %.0f B, 64 members %.1f allocs %.0f B; per member-window %.3f allocs, %.1f B",
		a16, b16, a64, b64, per, perB)
	if per > 0.05 {
		t.Errorf("a member allocates %.3f times per delivered window, want <= 0.05", per)
	}
	if perB > 16 {
		t.Errorf("a member allocates %.1f B per delivered window, want <= 16", perB)
	}
}

// fanoutBurstAllocs registers members fanout-shaped queries — member i
// reads filter i%8 and HAVING threshold i/8 — warms the classes up with
// two bursts and reports the heap allocations and bytes per window over
// the next eight.
func fanoutBurstAllocs(t *testing.T, members int, burst *bat.Chunk) (allocs, bytes float64) {
	t.Helper()
	eng := New(&Options{Workers: 1})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	for i := 0; i < members; i++ {
		sql := fmt.Sprintf("SELECT k, count(*) AS n, sum(v) AS sv FROM s [SIZE 16384 SLIDE 4096] WHERE v > %g GROUP BY k HAVING count(*) > %d",
			12.5*float64(i%8), 1<<20+i/8)
		if _, err := eng.Register(fmt.Sprintf("q%02d", i), sql,
			&RegisterOptions{Mode: ModeIncremental, NoChannel: true}); err != nil {
			t.Fatal(err)
		}
	}
	bursts := func(n int) {
		for i := 0; i < n; i++ {
			if err := eng.Append("s", burst); err != nil {
				t.Fatal(err)
			}
			eng.Drain()
		}
	}
	bursts(2)
	// A burst's basket segment (6 MiB) goes back to the basket's free list
	// once the class rings release its last windows, and the next burst
	// but one reuses it — unless a collection cleared the free list's weak
	// reference first. Collection timing would then decide whether a
	// measurement pays for a segment; with the collector off while it
	// runs, every configuration reuses alike.
	const measured = 8
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bursts(measured)
	runtime.ReadMemStats(&after)
	windows := float64(measured * fanoutBurstWindows)
	return float64(after.Mallocs-before.Mallocs) / windows, float64(after.TotalAlloc-before.TotalAlloc) / windows
}

// fanoutBurstChunk builds one append of fanoutBurstWindows slides of 4096
// tuples: 64 keys, values that are multiples of 1/4 below 100.
func fanoutBurstChunk() *bat.Chunk {
	const rows, keys = fanoutBurstWindows * 4096, 64
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	ts, ks, vs := make(bat.Times, rows), make(bat.Ints, rows), make(bat.Floats, rows)
	for g := range ts {
		ts[g] = int64(g)
		ks[g] = int64(g*7) % keys
		vs[g] = float64(g*13%400) / 4
	}
	return &bat.Chunk{Schema: sch, Cols: []bat.Vector{ts, ks, vs}}
}

// TestFanoutCursorLifecycle: a member's cursor starts at the log head
// when it joins, stops while it is paused and releases what it never read
// when it leaves. In each case every member's result sequence must be
// byte-identical to an Isolated() twin registered at the same point, and
// the group's live-buffer gauge must fall back to 0 once no merge class
// retains windows — the log pins nothing its readers released.
func TestFanoutCursorLifecycle(t *testing.T) {
	const oneSided = "SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE 40 SLIDE 10] WHERE v > 20.0 GROUP BY k HAVING count(*) > %d"
	const parts = 4
	oneSQL := func(having int) string { return fmt.Sprintf(oneSided, having) }

	t.Run("join-mid-stream", func(t *testing.T) {
		h := newLifecycle(t, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 2 KEY k")
		h.register("a", oneSQL(0))
		h.register("b", oneSQL(1))
		h.feed("s", 0, 70, 10)
		// c joins the warm class mid-stream: merge cells may serve it only
		// once it has read a full window itself.
		h.register("c", oneSQL(2))
		h.register("d", "SELECT k, count(*) AS n FROM s [SIZE 20 SLIDE 10] GROUP BY k")
		h.feed("s", 70, 300, 10)
		h.compare("a", "b", "c", "d")
		h.drop(parts, "a", "b", "c", "d")
	})

	t.Run("pause-across-burst", func(t *testing.T) {
		h := newLifecycle(t, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 2 KEY k")
		h.register("a", oneSQL(0))
		h.register("b", oneSQL(1))
		h.feed("s", 0, 50, 10)
		h.shared["a"].Pause()
		h.feed("s", 50, 210, 160) // one append: a 16-window burst
		if n := h.group("a").LiveBufs(); n < 16 {
			t.Fatalf("a paused member's unread windows hold %d buffers, want >= 16", n)
		}
		h.shared["a"].Resume()
		h.feed("s", 210, 260, 10)
		h.compare("a", "b")
		h.drop(parts, "a", "b")
	})

	t.Run("leave-unread", func(t *testing.T) {
		h := newLifecycle(t, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 2 KEY k")
		h.register("a", oneSQL(0))
		h.register("b", oneSQL(1))
		h.register("c", oneSQL(2))
		h.feed("s", 0, 50, 10)
		h.shared["c"].Pause()
		h.feed("s", 50, 210, 160)
		h.stop("c") // leaves with 16 windows unread
		h.feed("s", 210, 240, 10)
		if n := h.group("a").LiveBufs(); n != parts {
			t.Fatalf("after the paused member left: %d live buffers, want the class rings' %d", n, parts)
		}
		h.compare("a", "b")
		h.drop(parts, "a", "b")
	})

	t.Run("two-sided", func(t *testing.T) {
		h := newLifecycle(t, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)", "CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)")
		const join = "SELECT s.v, r.v FROM s [SIZE 32 SLIDE 16], r [SIZE 32 SLIDE 16] WHERE s.k = r.k"
		h.register("j1", join)
		h.register("j2", join)
		h.pairs(0, 4)
		h.register("j3", join) // joins the warm class mid-stream
		h.register("j4", "SELECT s.k, count(*) AS n FROM s [SIZE 32 SLIDE 16], r [SIZE 32 SLIDE 16] WHERE s.k = r.k GROUP BY s.k")
		h.shared["j2"].Pause()
		h.pairs(4, 8)
		h.shared["j2"].Resume()
		h.pairs(8, 10)
		h.compare("j1", "j2", "j3", "j4")
		h.drop(-1, "j1", "j2", "j3", "j4")
	})
}

// lifecycle registers each query twice in one engine — as a shared member
// and as an Isolated() twin — and collects both result sequences.
type lifecycle struct {
	t             *testing.T
	eng           *Engine
	shared, twins map[string]*Query
	got, want     map[string][]string
}

func newLifecycle(t *testing.T, ddl ...string) *lifecycle {
	eng := New(&Options{Workers: 2})
	t.Cleanup(eng.Close)
	for _, d := range ddl {
		mustExecG(t, eng, d)
	}
	return &lifecycle{t: t, eng: eng, shared: map[string]*Query{}, twins: map[string]*Query{},
		got: map[string][]string{}, want: map[string][]string{}}
}

func (h *lifecycle) register(name, sql string) {
	h.t.Helper()
	q, err := h.eng.Register(name, sql, &RegisterOptions{Mode: ModeIncremental})
	if err != nil {
		h.t.Fatal(err)
	}
	twin, err := h.eng.Register(name+"_twin", sql, &RegisterOptions{Mode: ModeIncremental, Isolated: true})
	if err != nil {
		h.t.Fatal(err)
	}
	h.shared[name], h.twins[name] = q, twin
}

// feed appends rows [lo, hi) of stream in chunks of per rows, then drains
// and collects every query's results.
func (h *lifecycle) feed(stream string, lo, hi, per int) {
	h.t.Helper()
	for at := lo; at < hi; at += per {
		if err := h.eng.Append(stream, lifecycleRows(stream, at, min(at+per, hi))); err != nil {
			h.t.Fatal(err)
		}
	}
	h.eng.Drain()
	h.collect()
}

// pairs feeds slides [lo, hi) of 16 rows to s and r alternately, draining
// after each append, so both groups see the canonical interleaving.
func (h *lifecycle) pairs(lo, hi int) {
	h.t.Helper()
	for i := lo; i < hi; i++ {
		h.feed("s", 16*i, 16*i+16, 16)
		h.feed("r", 16*i, 16*i+16, 16)
	}
}

func (h *lifecycle) collect() {
	for name, q := range h.shared {
		h.got[name] = append(h.got[name], collectRendered(q)...)
		h.want[name] = append(h.want[name], collectRendered(h.twins[name])...)
	}
}

func (h *lifecycle) group(name string) *factory.Group {
	h.t.Helper()
	g, ok := h.eng.cat.Group(h.shared[name].GroupKey())
	if !ok {
		h.t.Fatalf("%s: no group", name)
	}
	return g.(*factory.Group)
}

func (h *lifecycle) stop(name string) {
	h.shared[name].Stop()
	h.twins[name].Stop()
	delete(h.shared, name)
}

func (h *lifecycle) compare(names ...string) {
	h.t.Helper()
	for _, name := range names {
		got, want := h.got[name], h.want[name]
		if len(want) == 0 {
			h.t.Fatalf("%s: the isolated twin emitted nothing", name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			h.t.Errorf("%s: shared member diverges from its isolated twin:\nshared %q\ntwin   %q", name, got, want)
		}
	}
}

// drop stops the members one by one, last to first. While two or more
// remain the merge class keeps its rings (retained live buffers, or -1
// for any); with one left, the class has released them and nothing may
// stay live after a drain, nor after the last member left.
func (h *lifecycle) drop(retained int64, names ...string) {
	h.t.Helper()
	g := h.group(names[0])
	h.eng.Drain()
	if n := g.LiveBufs(); retained >= 0 && n != retained {
		h.t.Errorf("after the drain: %d live buffers, want the class rings' %d", n, retained)
	}
	for i := len(names) - 1; i > 0; i-- {
		h.stop(names[i])
	}
	h.eng.Drain()
	if n := g.LiveBufs(); n != 0 {
		h.t.Errorf("one member left, drained: %d live buffers, want 0", n)
	}
	h.stop(names[0])
	if n := g.LiveBufs(); n != 0 {
		h.t.Errorf("after the last member left: %d live buffers, want 0", n)
	}
}

// lifecycleRows builds rows [lo, hi) of stream: s and r draw keys and
// values from different sequences so that their join is not trivial.
func lifecycleRows(stream string, lo, hi int) *bat.Chunk {
	seed := 3
	if stream == "r" {
		seed = 5
	}
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	n := hi - lo
	ts, ks, vs := make(bat.Times, n), make(bat.Ints, n), make(bat.Floats, n)
	for i := range ts {
		g := lo + i
		ts[i] = int64(g) * 1000
		ks[i] = int64((g*seed + g) % 7)
		vs[i] = float64((g * seed) % 100)
	}
	return &bat.Chunk{Schema: sch, Cols: []bat.Vector{ts, ks, vs}}
}
