package datacell

// Tests for sharing past the merge boundary: members of one execution
// group whose incremental decompositions agree on a plan.MergeKey share a
// group-owned merge ring (the full-window merge evaluates once per sealed
// window for the whole class), and identical post-merge fragments —
// HAVING filters, final sorts, LIMITs — evaluate once per merged view
// through the group's post-merge trie. The equivalence invariant is
// unchanged: a class member produces byte-identical output to the same
// query registered alone or ISOLATED.

import (
	"fmt"
	"testing"
)

// postMemberSQL is the i-th member of the post-merge sharing tests: one
// shared pipeline + partial-aggregate prefix (one merge class), with
// HAVING / ORDER BY / LIMIT post fragments that repeat every four
// members, so identical post chains share trie nodes while distinct ones
// split.
func postMemberSQL(i, size, slide int) string {
	switch i % 4 {
	case 0:
		return fmt.Sprintf(
			"SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE %d SLIDE %d] GROUP BY k HAVING count(*) > 2", size, slide)
	case 1:
		return fmt.Sprintf(
			"SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE %d SLIDE %d] GROUP BY k ORDER BY s DESC", size, slide)
	case 2:
		return fmt.Sprintf(
			"SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE %d SLIDE %d] GROUP BY k ORDER BY s DESC LIMIT 3", size, slide)
	default:
		return fmt.Sprintf(
			"SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE %d SLIDE %d] GROUP BY k HAVING sum(v) > 100.0 ORDER BY k", size, slide)
	}
}

// TestPostMergeShareEquivalence is the post-merge sharing acceptance
// invariant: HAVING/sort/LIMIT members produce byte-identical results to
// the same queries registered ISOLATED, on 1-shard and 4-shard streams,
// while identical post fragments share trie nodes (visible as a post-
// merge memo hit-rate floor: every chain appears twice among 8 members,
// so at least half of all post evaluations must be memo hits).
func TestPostMergeShareEquivalence(t *testing.T) {
	chunks := shardTestChunks(400, 17, 6)
	const members = 8
	const size, slide = 40, 10
	ddls := []string{
		"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)",
		"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k",
	}
	for _, ddl := range ddls {
		// Isolated: the same queries with their own cursors and rings.
		iso := New(&Options{Workers: 1})
		mustExecG(t, iso, ddl)
		isoQs := make([]*Query, members)
		for i := 0; i < members; i++ {
			q, err := iso.Register(fmt.Sprintf("q%02d", i), postMemberSQL(i, size, slide),
				&RegisterOptions{Mode: ModeIncremental, Isolated: true})
			if err != nil {
				t.Fatal(err)
			}
			isoQs[i] = q
		}
		for _, c := range chunks {
			if err := iso.Append("s", c); err != nil {
				t.Fatal(err)
			}
		}
		iso.Drain()
		want := make([][]string, members)
		for i, q := range isoQs {
			want[i] = collectRendered(q)
			if len(want[i]) == 0 {
				t.Fatalf("ddl=%q isolated member %d emitted nothing", ddl, i)
			}
		}
		iso.Close()

		// Grouped: one execution group, one merge class, shared post trie.
		eng := New(&Options{Workers: 1})
		mustExecG(t, eng, ddl)
		qs := make([]*Query, members)
		for i := 0; i < members; i++ {
			q, err := eng.Register(fmt.Sprintf("q%02d", i), postMemberSQL(i, size, slide),
				&RegisterOptions{Mode: ModeIncremental})
			if err != nil {
				t.Fatal(err)
			}
			qs[i] = q
		}
		for _, c := range chunks {
			if err := eng.Append("s", c); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
		for i, q := range qs {
			got := collectRendered(q)
			if len(got) != len(want[i]) {
				t.Fatalf("ddl=%q member %d: evals=%d, isolated=%d", ddl, i, len(got), len(want[i]))
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("ddl=%q member %d eval %d diverges:\ngrouped:\n%s\nisolated:\n%s",
						ddl, i, j, got[j], want[i][j])
				}
			}
		}
		g := eng.Groups()
		if len(g) != 1 {
			t.Fatalf("groups = %+v", g)
		}
		if g[0].MergeClasses != 1 {
			t.Errorf("ddl=%q merge classes = %d, want 1 (one shared extent+fingerprint)", ddl, g[0].MergeClasses)
		}
		if g[0].MergeMisses == 0 || g[0].MergeHits == 0 {
			t.Fatalf("ddl=%q merge counters: hits=%d misses=%d", ddl, g[0].MergeHits, g[0].MergeMisses)
		}
		// 8 members, one class: 7 of 8 merge requests per window are hits.
		if rate := g[0].MergeHitRate(); rate < 0.85 {
			t.Errorf("ddl=%q merge hit rate = %.2f, want ≥ 0.85", ddl, rate)
		}
		if g[0].PostNodes == 0 {
			t.Error("no post-merge trie nodes registered")
		}
		// Every post chain appears exactly twice among the 8 members: one
		// member evaluates it (misses count per NODE computed), its twin is
		// served whole from the memo (hits count per chain request), so the
		// rate floor is modest but must be clearly nonzero.
		if g[0].PostHits == 0 {
			t.Error("duplicated post chains produced no post-merge memo hits")
		}
		if rate := g[0].PostHitRate(); rate < 0.2 {
			t.Errorf("ddl=%q post-merge memo hit rate = %.2f, want ≥ 0.2", ddl, rate)
		}
		eng.Close()
	}
}

// TestSharedMergeOncePerWindow pins the acceptance criterion directly: 16
// identical sliding-window members perform exactly ONE merge and ONE
// post-merge fragment evaluation per sealed full window — the other 15
// requests are memo hits — while every member's output stays byte-
// identical to the same query registered alone.
func TestSharedMergeOncePerWindow(t *testing.T) {
	const (
		members = 16
		n       = 400
		size    = 40
		slide   = 10
	)
	chunks := shardTestChunks(n, 13, 5)
	sql := fmt.Sprintf(
		"SELECT k, sum(v) AS s, count(*) AS c FROM s [SIZE %d SLIDE %d] GROUP BY k HAVING count(*) > 1 ORDER BY k",
		size, slide)

	// Alone.
	one := New(&Options{Workers: 1})
	mustExecG(t, one, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	qa, err := one.Register("q", sql, &RegisterOptions{Mode: ModeIncremental})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := one.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	one.Drain()
	want := collectRendered(qa)
	one.Close()
	if len(want) == 0 {
		t.Fatal("alone run emitted nothing")
	}

	// Grouped 16.
	eng := New(&Options{Workers: 1})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	qs := make([]*Query, members)
	for i := 0; i < members; i++ {
		q, err := eng.Register(fmt.Sprintf("q%02d", i), sql, &RegisterOptions{Mode: ModeIncremental})
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	for _, c := range chunks {
		if err := eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	for i, q := range qs {
		got := collectRendered(q)
		if len(got) != len(want) {
			t.Fatalf("member %d: evals=%d, alone=%d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("member %d eval %d diverges:\ngrouped:\n%s\nalone:\n%s", i, j, got[j], want[j])
			}
		}
	}

	g := eng.Groups()
	if len(g) != 1 || g[0].MergeClasses != 1 {
		t.Fatalf("groups = %+v, want one group with one merge class", g)
	}
	// Full windows: one per sealed basic window once the ring warmed up.
	fullWindows := int64(n/slide - (size/slide - 1))
	if int64(len(want)) != fullWindows {
		t.Fatalf("eval count = %d, want %d full windows", len(want), fullWindows)
	}
	if g[0].MergeMisses != fullWindows {
		t.Errorf("merge evaluations = %d, want exactly %d (one per sealed window)",
			g[0].MergeMisses, fullWindows)
	}
	if g[0].MergeHits != fullWindows*(members-1) {
		t.Errorf("merge memo hits = %d, want %d (the other %d members per window)",
			g[0].MergeHits, fullWindows*(members-1), members-1)
	}
	if g[0].PostNodes == 0 {
		t.Fatal("no post-merge trie nodes for a HAVING+ORDER BY fragment")
	}
	wantPostMisses := fullWindows * int64(g[0].PostNodes)
	if g[0].PostMisses != wantPostMisses {
		t.Errorf("post-merge evaluations = %d, want exactly %d (%d nodes × %d windows)",
			g[0].PostMisses, wantPostMisses, g[0].PostNodes, fullWindows)
	}
	if g[0].PostHits != fullWindows*int64(members-1) {
		t.Errorf("post-merge memo hits = %d, want %d", g[0].PostHits, fullWindows*int64(members-1))
	}
}

// TestSharedMergePauseResume: pausing one merge-class member must not
// stall its class; the merged-view memo cells ride the paused member's
// queue, so it catches up on Resume with byte-identical results.
func TestSharedMergePauseResume(t *testing.T) {
	sql := "SELECT k, sum(v) AS s FROM s [SIZE 20 SLIDE 10] GROUP BY k HAVING sum(v) > 10.0"
	eng := New(&Options{Workers: 2})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	var qs []*Query
	for i := 0; i < 3; i++ {
		q, err := eng.Register(fmt.Sprintf("q%d", i), sql, &RegisterOptions{Mode: ModeIncremental})
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	qs[2].Pause()
	for _, c := range shardTestChunks(120, 10, 4) {
		if err := eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	live := collectRendered(qs[0])
	if len(live) == 0 {
		t.Fatal("live class member emitted nothing while sibling paused")
	}
	if got := collectRendered(qs[2]); len(got) != 0 {
		t.Fatalf("paused member emitted %d evals", len(got))
	}
	qs[2].Resume()
	eng.Drain()
	caught := collectRendered(qs[2])
	if len(caught) != len(live) {
		t.Fatalf("resumed member evals = %d, live sibling = %d", len(caught), len(live))
	}
	for i := range caught {
		if caught[i] != live[i] {
			t.Fatalf("resumed member eval %d diverges:\nresumed:\n%s\nlive:\n%s", i, caught[i], live[i])
		}
	}
}

// TestSharedMergeAblation pins the NoSharedMerge escape hatch: members
// opting out still share the front end and the pipeline DAG, produce
// identical results, and generate zero merge-class and post-merge trie
// traffic — the benchmark baseline for what sharing past the merge
// boundary buys. Both legs merge a window through the same function, so
// they also match an isolated re-evaluation of the query.
func TestSharedMergeAblation(t *testing.T) {
	chunks := shardTestChunks(200, 10, 4)
	sql := "SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE 20 SLIDE 10] GROUP BY k HAVING count(*) > 1"
	run := func(opts RegisterOptions) ([][]string, GroupInfo) {
		eng := New(&Options{Workers: 1})
		defer eng.Close()
		mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
		var qs []*Query
		for i := 0; i < 4; i++ {
			q, err := eng.Register(fmt.Sprintf("q%d", i), sql, &opts)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		for _, c := range chunks {
			_ = eng.Append("s", c)
		}
		eng.Drain()
		var all [][]string
		for _, q := range qs {
			all = append(all, collectRendered(q))
		}
		return all, eng.Groups()[0]
	}
	shared, gs := run(RegisterOptions{Mode: ModeIncremental})
	plain, gp := run(RegisterOptions{Mode: ModeIncremental, NoSharedMerge: true})
	if fmt.Sprint(shared) != fmt.Sprint(plain) {
		t.Fatal("NoSharedMerge changed results")
	}
	ref, _ := run(RegisterOptions{Mode: ModeReeval, Isolated: true})
	if fmt.Sprint(shared) != fmt.Sprint(ref) {
		t.Fatalf("merged windows differ from re-evaluation:\n%v\nre-evaluation:\n%v", shared[0], ref[0])
	}
	if gs.MergeMisses == 0 || gs.MergeHits == 0 || gs.PostMisses == 0 {
		t.Errorf("shared run recorded no merge/post sharing: %+v", gs)
	}
	if gp.MergeClasses != 0 || gp.MergeHits != 0 || gp.MergeMisses != 0 ||
		gp.PostNodes != 0 || gp.PostHits != 0 || gp.PostMisses != 0 {
		t.Errorf("NoSharedMerge run touched the merge class / post trie: %+v", gp)
	}
	if gp.MemoHits == 0 {
		t.Error("NoSharedMerge must keep the pipeline DAG memo")
	}
}

// lifecycleCase is one group shape of the shared-merge lifecycle tests: a
// single-stream scan group or a stream⋈stream join group over the same
// slide. feed appends basic windows [lo, hi) of every input stream,
// draining after each append so every consumer — grouped or isolated —
// sees the same window interleaving.
type lifecycleCase struct {
	name string
	ddl  []string
	sql  string
	feed func(t *testing.T, eng *Engine, lo, hi int)
}

// lifecycleCases builds the scan and join cases of one lifecycle test: the
// scan case runs scanSQL over stream s, the join case joinSQL over s and
// r, both cut into 10-row basic windows.
func lifecycleCases(scanSQL, joinSQL string) []lifecycleCase {
	chunks := shardTestChunks(100, 10, 4)
	ls, rs := joinFeed(100, 10, 7)
	return []lifecycleCase{
		{
			name: "scan",
			ddl:  []string{"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"},
			sql:  scanSQL,
			feed: func(t *testing.T, eng *Engine, lo, hi int) {
				t.Helper()
				for _, c := range chunks[lo:hi] {
					if err := eng.Append("s", c); err != nil {
						t.Fatal(err)
					}
				}
				eng.Drain()
			},
		},
		{
			name: "join",
			ddl: []string{"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)",
				"CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)"},
			sql: joinSQL,
			feed: func(t *testing.T, eng *Engine, lo, hi int) {
				t.Helper()
				feedPairwise(t, eng, ls[lo:hi], rs[lo:hi])
			},
		},
	}
}

// sameEvals fails unless got and want hold the same result sets in the
// same order.
func sameEvals(t *testing.T, what string, got, want [][]string) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: reference emitted nothing", what)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s diverges from its isolated twin:\ngot  %v\nwant %v", what, got, want)
	}
}

// TestSharedMergeDeactivateOnLeave: when merge-class membership drops
// back to one, the class releases its ring(s) — a lone survivor must not
// keep pinning raw window buffers it never needs (its private ring
// still merges every window) — and a rejoining second member reactivates
// the class with fresh rings. The survivor's results match an isolated
// twin's throughout, for scan and join groups alike.
func TestSharedMergeDeactivateOnLeave(t *testing.T) {
	cases := lifecycleCases(
		"SELECT k, sum(v) AS s FROM s [SIZE 20 SLIDE 10] GROUP BY k HAVING sum(v) > 0.0",
		"SELECT s.k, count(*) AS n FROM s [SIZE 20 SLIDE 10], r [SIZE 20 SLIDE 10] WHERE s.k = r.k GROUP BY s.k HAVING count(*) > 0")
	// Survivor evaluations before and after the rejoin: one per sealed
	// window once the rings are warm (a join warms at its second right
	// window, then evaluates on every window of either side).
	wantEvals := map[string][2]int{"scan": {7, 2}, "join": {13, 4}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(&Options{Workers: 1})
			defer eng.Close()
			for _, d := range tc.ddl {
				mustExecG(t, eng, d)
			}
			qa, err := eng.Register("a", tc.sql, &RegisterOptions{Mode: ModeIncremental})
			if err != nil {
				t.Fatal(err)
			}
			qb, err := eng.Register("b", tc.sql, &RegisterOptions{Mode: ModeIncremental, NoChannel: true})
			if err != nil {
				t.Fatal(err)
			}
			twin, err := eng.Register("twin", tc.sql, &RegisterOptions{Mode: ModeIncremental, Isolated: true})
			if err != nil {
				t.Fatal(err)
			}
			tc.feed(t, eng, 0, 5)
			g := eng.Groups()[0]
			if g.MergeClasses != 1 || g.LiveBufs == 0 {
				t.Fatalf("active class expected: %+v", g)
			}
			qb.Stop()
			g = eng.Groups()[0]
			if g.MergeClasses != 0 {
				t.Fatalf("class still active with one member: %+v", g)
			}
			if g.LiveBufs != 0 {
				t.Fatalf("lone survivor pins %d buffers (ring not released)", g.LiveBufs)
			}
			tc.feed(t, eng, 5, 8) // survivor keeps producing off its private ring
			got := collectSorted(qa)
			if len(got) != wantEvals[tc.name][0] {
				t.Fatalf("survivor evals = %d, want %d", len(got), wantEvals[tc.name][0])
			}
			sameEvals(t, "survivor", got, collectSorted(twin))
			// A rejoining sibling reactivates the class with fresh rings.
			if _, err := eng.Register("c", tc.sql, &RegisterOptions{Mode: ModeIncremental, NoChannel: true}); err != nil {
				t.Fatal(err)
			}
			mergesBefore := eng.Groups()[0].MergeMisses
			tc.feed(t, eng, 8, 10)
			g = eng.Groups()[0]
			if g.MergeClasses != 1 {
				t.Fatalf("class did not reactivate: %+v", g)
			}
			if g.MergeMisses == mergesBefore {
				t.Fatal("reactivated class performed no shared merges")
			}
			got = collectSorted(qa)
			if len(got) != wantEvals[tc.name][1] {
				t.Fatalf("survivor evals after rejoin = %d, want %d", len(got), wantEvals[tc.name][1])
			}
			sameEvals(t, "survivor after rejoin", got, collectSorted(twin))
		})
	}
}

// TestSharedMergeLateJoiner: a member joining an active merge class mid-
// stream must not see merged views covering windows from before its
// join — its first full window covers exactly the windows it received,
// as it would alone. A join member warms up per side: the class serves
// it only once both of its own rings are full. Either way its results
// match an isolated registration made at the same point in the feed.
func TestSharedMergeLateJoiner(t *testing.T) {
	cases := lifecycleCases(
		"SELECT count(*) AS n FROM s [SIZE 20 SLIDE 10]",
		"SELECT s.k, count(*) AS n FROM s [SIZE 20 SLIDE 10], r [SIZE 20 SLIDE 10] WHERE s.k = r.k GROUP BY s.k")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(&Options{Workers: 2})
			defer eng.Close()
			for _, d := range tc.ddl {
				mustExecG(t, eng, d)
			}
			for i := 0; i < 2; i++ {
				if _, err := eng.Register(fmt.Sprintf("early%d", i), tc.sql,
					&RegisterOptions{Mode: ModeIncremental, NoChannel: true}); err != nil {
					t.Fatal(err)
				}
			}
			tc.feed(t, eng, 0, 3)
			late, err := eng.Register("late", tc.sql, &RegisterOptions{Mode: ModeIncremental})
			if err != nil {
				t.Fatal(err)
			}
			twin, err := eng.Register("twin", tc.sql, &RegisterOptions{Mode: ModeIncremental, Isolated: true})
			if err != nil {
				t.Fatal(err)
			}
			tc.feed(t, eng, 3, 6)
			g := eng.Groups()[0]
			if g.MergeClasses != 1 || g.MergeMisses == 0 {
				t.Fatalf("no active merge class served the group: %+v", g)
			}
			got := collectSorted(late)
			sameEvals(t, "late joiner", got, collectSorted(twin))
			if tc.name == "scan" {
				// The late joiner saw 3 basic windows (rows 30-40, 40-50,
				// 50-60): its ring fills at the second, so it emits 2 full
				// windows of 20 tuples.
				if fmt.Sprint(got) != "[[[20]] [[20]]]" {
					t.Fatalf("late joiner evals = %v, want two of [[20]]", got)
				}
			}
		})
	}
}
