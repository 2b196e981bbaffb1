package datacell

// Differential test for the two ways a merge-class member evaluates its
// post-merge fragment: privately, straight from the merged view with
// scratch selections, while no other member's chain shares a node of
// its own; or through the class's post-merge memo while one does.

import (
	"testing"

	"datacell/internal/bat"
)

// postChainSQL are post-merge fragments over one merge class (same
// stream, window, WHERE, grouping and aggregates) that share no trie
// node: each begins with a different operator. y keeps some groups and
// emits them unsorted, so its result is gathered through its HAVING
// selection; z keeps nothing.
var postChainSQL = map[string]string{
	"x": "HAVING count(*) > 5 ORDER BY s DESC LIMIT 3",
	"y": "HAVING k > 1",
	"z": "HAVING count(*) > 1000",
	"w": "ORDER BY s DESC LIMIT 2",
}

func postChainQuery(chain string) string {
	return "SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE 30 SLIDE 10] WHERE v > 5.0 GROUP BY k " +
		postChainSQL[chain]
}

// TestPostChainsPrivateVsMemoized: members whose chains are all distinct
// (private path), each chain registered twice (memo path), and
// NoSharedMerge members must emit byte-identical results. In the private
// engine a twin of x joins while x is paused with windows queued, so x's
// nodes turn shared under windows whose merge cells were evaluated with
// no memo, and the twin leaves while x is paused again, so they turn
// private under windows whose cells carry one. Released scratch is
// poisoned in test binaries, so a result that kept a scratch selection
// fails the comparison.
func TestPostChainsPrivateVsMemoized(t *testing.T) {
	chunks := shardTestChunks(300, 10, 5) // one slide per chunk
	const pause1, join, pause2, leave = 6, 9, 15, 18

	engine := func() *Engine {
		eng := New(&Options{Workers: 2})
		mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
		return eng
	}
	register := func(eng *Engine, name, chain string, opts *RegisterOptions) *Query {
		q, err := eng.Register(name, postChainQuery(chain), opts)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	feed := func(eng *Engine, cs []*bat.Chunk) {
		for _, c := range cs {
			if err := eng.Append("s", c); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
	}
	post := func(eng *Engine) GroupInfo {
		g := eng.Groups()
		if len(g) != 1 {
			t.Fatalf("%d groups, want 1", len(g))
		}
		return g[0]
	}
	chains := []string{"x", "y", "z", "w"}
	incr := &RegisterOptions{Mode: ModeIncremental}

	// Private: one member per chain, plus x's twin for part of the run.
	priv := engine()
	defer priv.Close()
	pq := map[string]*Query{}
	for _, c := range chains {
		pq[c] = register(priv, c, c, incr)
	}
	feed(priv, chunks[:pause1])
	if g := post(priv); g.MergeClasses != 1 || g.PostHits != 0 || g.PostMisses == 0 {
		t.Fatalf("distinct chains: classes=%d post hits=%d misses=%d, want 1 class, no hits, some misses",
			g.MergeClasses, g.PostHits, g.PostMisses)
	}
	pq["x"].Pause()
	feed(priv, chunks[pause1:join])
	twin := register(priv, "x2", "x", incr)
	feed(priv, chunks[join:pause2])
	pq["x"].Resume()
	priv.Drain()
	if g := post(priv); g.PostHits == 0 {
		t.Fatal("x and its twin shared no post-merge evaluation")
	}
	pq["x"].Pause()
	feed(priv, chunks[pause2:leave])
	twinGot := collectRendered(twin)
	twin.Stop()
	pq["x"].Resume()
	feed(priv, chunks[leave:])

	// Memoized: every chain twice. NoSharedMerge: one member per chain,
	// merged and post-processed privately by the factory tail.
	memo, plain := engine(), engine()
	defer memo.Close()
	defer plain.Close()
	mq, nq := map[string]*Query{}, map[string]*Query{}
	for _, c := range chains {
		mq[c] = register(memo, c, c, incr)
		register(memo, c+"2", c, incr)
		nq[c] = register(plain, c, c, &RegisterOptions{Mode: ModeIncremental, NoSharedMerge: true})
	}
	feed(memo, chunks)
	feed(plain, chunks)
	if g := post(memo); g.PostHits == 0 {
		t.Fatal("duplicated chains produced no post-merge memo hits")
	}
	if g := post(plain); g.PostMisses != 0 {
		t.Fatalf("NoSharedMerge members evaluated %d post-merge nodes in the trie", g.PostMisses)
	}

	same := func(what string, got, want []string) {
		t.Helper()
		if len(want) == 0 {
			t.Fatalf("%s: the reference emitted nothing", what)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: result %d diverges:\ngot:\n%s\nwant:\n%s", what, i, got[i], want[i])
			}
		}
	}
	for _, c := range chains {
		want := collectRendered(nq[c])
		same(c+" private vs NoSharedMerge", collectRendered(pq[c]), want)
		same(c+" memoized vs NoSharedMerge", collectRendered(mq[c]), want)
	}

	// The twin saw windows from its join to its leave: alone over them.
	alone := engine()
	defer alone.Close()
	aq := register(alone, "x2", "x", incr)
	feed(alone, chunks[join:leave])
	same("x's twin vs alone", twinGot, collectRendered(aq))
}
