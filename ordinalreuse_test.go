package datacell

import (
	"fmt"
	"testing"

	"datacell/internal/bat"
)

// TestOrdinalReusePauseLeaveJoin: member A is paused with windows queued;
// member B leaves, so its operator nodes are pruned and their memo-slab
// ordinals (and its merge-class slot) freed; members C and C2 join with
// different filters that take those ordinals over; then A resumes. Every
// member's result sequence must be byte-identical to a fresh engine
// running that member alone over the input it saw.
func TestOrdinalReusePauseLeaveJoin(t *testing.T) {
	const base = "SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE 30 SLIDE 10] WHERE %s GROUP BY k HAVING %s"
	sqls := map[string]string{
		"a":  fmt.Sprintf(base, "v > 20.0", "count(*) > 1"),
		"d":  fmt.Sprintf(base, "v > 20.0", "count(*) > 2"),
		"b":  fmt.Sprintf(base, "v < 50.0 AND k > 0", "sum(v) > 30.0"),
		"c":  fmt.Sprintf(base, "v < 70.0", "count(*) > 1"),
		"c2": fmt.Sprintf(base, "v < 70.0", "sum(v) > 40.0"),
	}
	// Chunks of one slide each, so every phase starts on a window boundary.
	chunks := shardTestChunks(300, 10, 5)
	const paused, left = 8, 16 // chunk indexes where A pauses and B leaves

	alone := func(name string, cs []*bat.Chunk) []string {
		eng := New(&Options{Workers: 1})
		defer eng.Close()
		mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
		q, err := eng.Register(name, sqls[name], &RegisterOptions{Mode: ModeIncremental})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			if err := eng.Append("s", c); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
		return collectRendered(q)
	}

	eng := New(&Options{Workers: 2})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	qs := map[string]*Query{}
	register := func(names ...string) {
		for _, name := range names {
			q, err := eng.Register(name, sqls[name], &RegisterOptions{Mode: ModeIncremental})
			if err != nil {
				t.Fatal(err)
			}
			qs[name] = q
		}
	}
	feed := func(cs []*bat.Chunk) {
		for _, c := range cs {
			if err := eng.Append("s", c); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
	}
	got := map[string][]string{}

	register("a", "d", "b")
	feed(chunks[:paused])
	qs["a"].Pause()
	feed(chunks[paused:left])
	got["b"] = collectRendered(qs["b"])
	qs["b"].Stop()
	register("c", "c2")
	feed(chunks[left:])
	qs["a"].Resume()
	eng.Drain()
	for _, name := range []string{"a", "d", "c", "c2"} {
		got[name] = collectRendered(qs[name])
	}

	want := map[string][]string{
		"a":  alone("a", chunks),
		"d":  alone("d", chunks),
		"b":  alone("b", chunks[:left]),
		"c":  alone("c", chunks[left:]),
		"c2": alone("c2", chunks[left:]),
	}
	for name, w := range want {
		g := got[name]
		if len(w) == 0 {
			t.Fatalf("%s alone emitted nothing", name)
		}
		if len(g) != len(w) {
			t.Fatalf("%s: %d results, alone %d", name, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s result %d diverges:\nshared:\n%s\nalone:\n%s", name, i, g[i], w[i])
			}
		}
	}
}

// TestFusedFilterFlipsMidStream: two aggregate members share a filter
// that, while they are its only readers, is fused into their aggregate
// (its selections live only for the aggregate's call). Member A pauses
// with windows queued; a non-aggregate member N with the same WHERE
// joins, which makes the filter memoized, and later leaves, which fuses
// it again; D pauses across N's leave, and A resumes while N is still
// there. Every window's aggregate is thus computed under whichever
// state the filter was in when some member first reached it. Every
// member's result sequence must be byte-identical to a fresh engine
// running that member alone over the input it saw.
func TestFusedFilterFlipsMidStream(t *testing.T) {
	const agg = "SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE 30 SLIDE 10] WHERE v > 20.0 GROUP BY k HAVING %s"
	sqls := map[string]string{
		"a": fmt.Sprintf(agg, "count(*) > 1"),
		"d": fmt.Sprintf(agg, "count(*) > 2"),
		"n": "SELECT k, v FROM s [SIZE 30 SLIDE 10] WHERE v > 20.0",
	}
	// Chunks of one slide each, so every phase starts on a window boundary.
	chunks := shardTestChunks(240, 10, 5)
	const pauseA, joinN, leaveN = 6, 12, 18 // chunk indexes of the phases

	alone := func(name string, cs []*bat.Chunk) []string {
		eng := New(&Options{Workers: 1})
		defer eng.Close()
		mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
		q, err := eng.Register(name, sqls[name], &RegisterOptions{Mode: ModeIncremental})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			if err := eng.Append("s", c); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
		return collectRendered(q)
	}

	eng := New(&Options{Workers: 2})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	qs := map[string]*Query{}
	register := func(name string) {
		q, err := eng.Register(name, sqls[name], &RegisterOptions{Mode: ModeIncremental})
		if err != nil {
			t.Fatal(err)
		}
		qs[name] = q
	}
	feed := func(cs []*bat.Chunk) {
		for _, c := range cs {
			if err := eng.Append("s", c); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
	}
	dagNodes := func() int {
		g := eng.Groups()
		if len(g) != 1 {
			t.Fatalf("%d groups, want 1", len(g))
		}
		return g[0].DagNodes
	}
	got := map[string][]string{}

	register("a")
	register("d")
	feed(chunks[:pauseA])
	qs["a"].Pause()
	feed(chunks[pauseA:joinN])
	before := dagNodes()
	register("n")
	// N reuses the members' filter node and adds only its projection.
	if after := dagNodes(); after != before+1 {
		t.Fatalf("N added %d DAG nodes, want 1: it does not share the aggregates' filter", after-before)
	}
	qs["d"].Pause()
	feed(chunks[joinN:leaveN])
	qs["a"].Resume()
	eng.Drain()
	got["n"] = collectRendered(qs["n"])
	qs["n"].Stop()
	feed(chunks[leaveN:])
	qs["d"].Resume()
	eng.Drain()
	got["a"], got["d"] = collectRendered(qs["a"]), collectRendered(qs["d"])

	want := map[string][]string{
		"a": alone("a", chunks),
		"d": alone("d", chunks),
		"n": alone("n", chunks[joinN:leaveN]),
	}
	for name, w := range want {
		g := got[name]
		if len(w) == 0 {
			t.Fatalf("%s alone emitted nothing", name)
		}
		if len(g) != len(w) {
			t.Fatalf("%s: %d results, alone %d", name, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s result %d diverges:\nshared:\n%s\nalone:\n%s", name, i, g[i], w[i])
			}
		}
	}
}
