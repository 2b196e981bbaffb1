package datacell

// Tests for shared multi-query execution groups: queries over the same
// stream and slide granularity share one drain+slice+merge front end, and
// each member runs only its private tail. The equivalence invariant is
// that a query inside a group of N produces byte-identical output to the
// same query registered alone.

import (
	"fmt"
	"strings"
	"testing"
)

// collectRendered drains a query's results, rendering each result set
// verbatim (order-sensitive, byte-level comparison unit).
func collectRendered(q *Query) []string {
	var out []string
	for {
		select {
		case r := <-q.Out():
			out = append(out, r.Chunk.String())
		default:
			return out
		}
	}
}

// groupMemberSQL is the i-th member query of the equivalence tests:
// varied filters, aggregates and window extents over one shared slide
// granularity, so the 16 members have genuinely divergent tails.
func groupMemberSQL(i int, size, slide int) string {
	// Window extents vary (multiples of the slide) while the slide — the
	// group key — stays fixed.
	sz := size
	if i%3 == 1 && size > slide {
		sz = size / 2
		if sz < slide {
			sz = slide
		}
		sz = (sz / slide) * slide
	}
	switch i % 4 {
	case 0:
		return fmt.Sprintf("SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE %d SLIDE %d] GROUP BY k", sz, slide)
	case 1:
		return fmt.Sprintf("SELECT k, v FROM s [SIZE %d SLIDE %d] WHERE v >= %d.0", sz, slide, (i%5)*20)
	case 2:
		return fmt.Sprintf("SELECT k, min(v) AS lo, max(v) AS hi FROM s [SIZE %d SLIDE %d] GROUP BY k", sz, slide)
	default:
		return fmt.Sprintf("SELECT count(*) AS n FROM s [SIZE %d SLIDE %d] GROUP BY k HAVING count(*) > %d", sz, slide, i%3)
	}
}

func groupMemberMode(i int) Mode {
	if i%2 == 0 {
		return ModeIncremental
	}
	return ModeReeval
}

// TestGroupEquivalence16 is the acceptance invariant: each query in a
// 16-member group produces byte-identical results to the same query
// registered alone, for 1-shard and 4-shard streams and for tumbling and
// sliding windows. Workers=1 makes shard firing order deterministic, so
// the comparison can be exact (order-sensitive) rather than sorted.
func TestGroupEquivalence16(t *testing.T) {
	chunks := shardTestChunks(400, 17, 5)
	ddls := []string{
		"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)",
		"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k",
	}
	windows := []struct{ size, slide int }{
		{64, 16}, // sliding
		{32, 32}, // tumbling
	}
	const members = 16
	for _, ddl := range ddls {
		for _, w := range windows {
			// Alone: each member query on its own engine.
			alone := make([][]string, members)
			for i := 0; i < members; i++ {
				eng := New(&Options{Workers: 1})
				if _, err := eng.Exec(ddl); err != nil {
					t.Fatal(err)
				}
				q, err := eng.Register("q", groupMemberSQL(i, w.size, w.slide),
					&RegisterOptions{Mode: groupMemberMode(i)})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range chunks {
					if err := eng.Append("s", c); err != nil {
						t.Fatal(err)
					}
				}
				eng.Drain()
				alone[i] = collectRendered(q)
				eng.Close()
			}

			// Grouped: all 16 on one engine, sharing one execution group.
			eng := New(&Options{Workers: 1})
			if _, err := eng.Exec(ddl); err != nil {
				t.Fatal(err)
			}
			qs := make([]*Query, members)
			for i := 0; i < members; i++ {
				q, err := eng.Register(fmt.Sprintf("q%02d", i), groupMemberSQL(i, w.size, w.slide),
					&RegisterOptions{Mode: groupMemberMode(i)})
				if err != nil {
					t.Fatal(err)
				}
				qs[i] = q
			}
			if groups := eng.Groups(); len(groups) != 1 || groups[0].Members != members {
				t.Fatalf("groups = %+v, want one group of %d", groups, members)
			}
			for _, c := range chunks {
				if err := eng.Append("s", c); err != nil {
					t.Fatal(err)
				}
			}
			eng.Drain()
			for i, q := range qs {
				got := collectRendered(q)
				if len(got) == 0 {
					t.Fatalf("ddl=%q w=%v member %d emitted nothing", ddl, w, i)
				}
				if len(got) != len(alone[i]) {
					t.Fatalf("ddl=%q w=%v member %d: evals=%d, alone=%d",
						ddl, w, i, len(got), len(alone[i]))
				}
				for j := range got {
					if got[j] != alone[i][j] {
						t.Fatalf("ddl=%q w=%v member %d eval %d diverges:\ngrouped:\n%s\nalone:\n%s",
							ddl, w, i, j, got[j], alone[i][j])
					}
				}
			}
			eng.Close()
		}
	}
}

// TestSharedSubtailEquivalence is the shared-operator-DAG acceptance
// invariant: members whose pipelines share a common filter + partial-
// aggregate prefix (diverging only in their merge stages) produce
// byte-identical results to the same queries registered alone, while the
// group evaluates the common prefix once per basic window — visible as
// DAG nodes and a high memo hit rate in the group stats.
func TestSharedSubtailEquivalence(t *testing.T) {
	chunks := shardTestChunks(400, 20, 6)
	const members = 8
	// A common prefix (filter + grouped partial aggregate) with divergent
	// HAVING thresholds: the post-merge fragments differ per member, the
	// per-basic-window work is identical.
	sql := func(i int) string {
		return fmt.Sprintf(
			"SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE 40 SLIDE 10] WHERE v < 80.0 GROUP BY k HAVING count(*) > %d", i%4)
	}
	alone := make([][]string, members)
	for i := 0; i < members; i++ {
		eng := New(&Options{Workers: 1})
		mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
		q, err := eng.Register("q", sql(i), &RegisterOptions{Mode: ModeIncremental})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			if err := eng.Append("s", c); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
		alone[i] = collectRendered(q)
		eng.Close()
	}

	eng := New(&Options{Workers: 1})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	qs := make([]*Query, members)
	for i := 0; i < members; i++ {
		q, err := eng.Register(fmt.Sprintf("q%02d", i), sql(i),
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
		if len(got) == 0 || len(got) != len(alone[i]) {
			t.Fatalf("member %d: evals=%d, alone=%d", i, len(got), len(alone[i]))
		}
		for j := range got {
			if got[j] != alone[i][j] {
				t.Fatalf("member %d eval %d diverges:\ngrouped:\n%s\nalone:\n%s",
					i, j, got[j], alone[i][j])
			}
		}
	}
	g := eng.Groups()
	if len(g) != 1 {
		t.Fatalf("groups = %+v", g)
	}
	// One shared filter node + one shared partial-aggregate node.
	if g[0].DagNodes != 2 {
		t.Errorf("DAG nodes = %d, want 2 (filter + partial aggregate)", g[0].DagNodes)
	}
	if g[0].MemoMisses == 0 || g[0].MemoHits == 0 {
		t.Fatalf("memo counters: hits=%d misses=%d", g[0].MemoHits, g[0].MemoMisses)
	}
	// 8 members share one prefix: at least 3/4 of operator evaluations
	// must be memo hits (exact rate: first member misses twice per window,
	// siblings hit).
	if rate := g[0].MemoHitRate(); rate < 0.75 {
		t.Errorf("memo hit rate = %.2f, want ≥ 0.75", rate)
	}
}

// TestSharedSubtailNoMemo pins the NoMemo escape hatch: members opting
// out of the DAG still share the front end and produce identical results,
// with zero memo traffic.
func TestSharedSubtailNoMemo(t *testing.T) {
	chunks := shardTestChunks(200, 10, 4)
	sql := "SELECT k, sum(v) AS s FROM s [SIZE 20 SLIDE 10] WHERE v < 90.0 GROUP BY k"
	run := func(noMemo bool) ([][]string, GroupInfo) {
		eng := New(&Options{Workers: 1})
		defer eng.Close()
		mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
		var qs []*Query
		for i := 0; i < 4; i++ {
			q, err := eng.Register(fmt.Sprintf("q%d", i), sql,
				&RegisterOptions{Mode: ModeIncremental, NoMemo: noMemo})
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
	memo, gm := run(false)
	plain, gp := run(true)
	if fmt.Sprint(memo) != fmt.Sprint(plain) {
		t.Fatal("NoMemo changed results")
	}
	if gm.MemoHits == 0 {
		t.Error("memoized run recorded no hits")
	}
	if gp.MemoHits != 0 || gp.MemoMisses != 0 || gp.DagNodes != 0 {
		t.Errorf("NoMemo run touched the DAG: %+v", gp)
	}
}

// assertIsolation checks what ISOLATED means now that every query runs
// in an execution group: an isolated query is the only member of a
// private group under a nonce "!iso#" key, so no DAG node, merge cell or
// pair cache of its group serves a sibling — its group has no active
// merge class, at most its own pair cache, and no memo, merge or post
// hit. A default query's key carries no nonce.
func assertIsolation(t *testing.T, eng *Engine, q *Query, isolated bool) {
	t.Helper()
	key := q.GroupKey()
	if strings.Contains(key, "!iso#") != isolated {
		t.Fatalf("%s: isolated=%v but group key %q", q.Name(), isolated, key)
	}
	for _, g := range eng.Groups() {
		if g.Key != key {
			continue
		}
		if isolated && (g.Members != 1 || g.MergeClasses != 0 || g.PairCaches > 1 ||
			g.MemoHits != 0 || g.MergeHits != 0 || g.PostHits != 0) {
			t.Fatalf("%s: private group shares work: %+v", q.Name(), g)
		}
		return
	}
	t.Fatalf("%s: group %q is not listed in Engine.Groups", q.Name(), key)
}

// TestGroupMatchesIsolated pins the shared dataflow against a private
// one: a grouped query and an ISOLATED one (a private group of one) see
// identical windows, order-insensitive under parallel workers.
func TestGroupMatchesIsolated(t *testing.T) {
	chunks := shardTestChunks(400, 13, 7)
	sql := "SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE 60 SLIDE 20] GROUP BY k"
	run := func(opts *RegisterOptions) [][]string {
		eng := New(&Options{Workers: 4})
		defer eng.Close()
		if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"); err != nil {
			t.Fatal(err)
		}
		q, err := eng.Register("q", sql, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			if err := eng.Append("s", c); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
		assertIsolation(t, eng, q, opts.Isolated)
		return collectSorted(q)
	}
	for _, mode := range []Mode{ModeIncremental, ModeReeval} {
		grouped := run(&RegisterOptions{Mode: mode})
		isolated := run(&RegisterOptions{Mode: mode, Isolated: true})
		if len(grouped) == 0 || fmt.Sprint(grouped) != fmt.Sprint(isolated) {
			t.Fatalf("mode %v: grouped %v\nisolated %v", mode, grouped, isolated)
		}
	}
}

// TestGroupKeyRules checks which queries share a group: same stream and
// slide share (window extent may differ), different slides split, and
// ISOLATED gets a private group of its own.
func TestGroupKeyRules(t *testing.T) {
	eng := New(&Options{Workers: 2})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	reg := func(name, sql string) *Query {
		t.Helper()
		q, err := eng.Register(name, sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	a := reg("a", "SELECT count(*) AS n FROM s [SIZE 64 SLIDE 16]")
	b := reg("b", "SELECT k, sum(v) AS t FROM s [SIZE 32 SLIDE 16] GROUP BY k")
	c := reg("c", "SELECT count(*) AS n FROM s [SIZE 64 SLIDE 32]")
	if a.GroupKey() != b.GroupKey() {
		t.Errorf("same slide, different extent should share a group: %q vs %q", a.GroupKey(), b.GroupKey())
	}
	if a.GroupKey() == c.GroupKey() {
		t.Errorf("different slides must not share a group: %q", a.GroupKey())
	}
	if got := len(eng.Groups()); got != 2 {
		t.Errorf("groups = %d, want 2", got)
	}
	if _, err := eng.Exec("REGISTER ISOLATED QUERY iso AS SELECT count(*) AS n FROM s [SIZE 64 SLIDE 16]"); err != nil {
		t.Fatal(err)
	}
	iso, _ := eng.Query("iso")
	assertIsolation(t, eng, iso, true)
	assertIsolation(t, eng, a, false)
	if got := len(eng.Groups()); got != 3 {
		t.Errorf("groups = %d, want 3 (the isolated query's own)", got)
	}
	// Incremental join queries over two streams join the stream pair's
	// join group; the key pairs both sides' slicing granularities.
	mustExecG(t, eng, "CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)")
	j := reg("j", "SELECT s.v, r.v FROM s [SIZE 16 SLIDE 16], r [SIZE 16 SLIDE 16] WHERE s.k = r.k")
	assertIsolation(t, eng, j, false)
	if !strings.Contains(j.GroupKey(), "⋈") {
		t.Errorf("join group key = %q, want a paired key", j.GroupKey())
	}
	j2 := reg("j2", "SELECT s.v, r.v FROM s [SIZE 16 SLIDE 16], r [SIZE 16 SLIDE 16] WHERE s.k = r.k AND s.v > 1.0")
	if j2.GroupKey() != j.GroupKey() {
		t.Errorf("same stream pair and slide must share a join group: %q vs %q", j2.GroupKey(), j.GroupKey())
	}
	// A re-evaluation join whose plan decomposes joins the same join
	// group: its full-window recompute is served by the shared pair cache
	// (PR 4; before that it stayed isolated).
	jr, err := eng.Register("jr",
		"SELECT s.v, r.v FROM s [SIZE 16 SLIDE 16], r [SIZE 16 SLIDE 16] WHERE s.k = r.k",
		&RegisterOptions{Mode: ModeReeval})
	if err != nil {
		t.Fatal(err)
	}
	if jr.GroupKey() != j.GroupKey() {
		t.Errorf("re-evaluation join key = %q, want %q (shared with incremental members)",
			jr.GroupKey(), j.GroupKey())
	}
	if jr.Mode() != "reeval" {
		t.Errorf("grouped re-evaluation join reports mode %q, want reeval", jr.Mode())
	}
	// REGISTER ISOLATED opts joins out too: a private two-sided group
	// under the join key plus a nonce.
	ji, err := eng.Register("ji",
		"SELECT s.v, r.v FROM s [SIZE 16 SLIDE 16], r [SIZE 16 SLIDE 16] WHERE s.k = r.k",
		&RegisterOptions{Isolated: true})
	if err != nil {
		t.Fatal(err)
	}
	assertIsolation(t, eng, ji, true)
	if !strings.HasPrefix(ji.GroupKey(), j.GroupKey()+"!iso#") {
		t.Errorf("isolated join key = %q, want %q plus a nonce", ji.GroupKey(), j.GroupKey())
	}
}

func mustExecG(t *testing.T, e *Engine, sql string) {
	t.Helper()
	if _, err := e.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// TestGroupMemberPauseIndependence: pausing one member must not stall its
// siblings or the shared slice; the paused member catches up on Resume
// with the same results it would have produced live.
func TestGroupMemberPauseIndependence(t *testing.T) {
	eng := New(&Options{Workers: 2})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	sql := "SELECT count(*) AS n FROM s [SIZE 10 SLIDE 10]"
	qa, err := eng.Register("a", sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := eng.Register("b", sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	qb.Pause()
	for i := 0; i < 30; i++ {
		if err := eng.Append("s", []any{int64(i), int64(i), 1.0}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	if got := collectSorted(qa); len(got) != 3 {
		t.Fatalf("live sibling emitted %d evals, want 3", len(got))
	}
	if got := collectSorted(qb); len(got) != 0 {
		t.Fatalf("paused member emitted %v", got)
	}
	qb.Resume()
	eng.Drain()
	got := collectSorted(qb)
	if len(got) != 3 {
		t.Fatalf("resumed member emitted %d evals, want 3", len(got))
	}
	for i, rows := range got {
		if len(rows) != 1 || rows[0] != "[10]" {
			t.Fatalf("eval %d = %v, want [[10]]", i, rows)
		}
	}
}

// TestGroupMemberDropLifecycle: dropping a member leaves siblings
// running; dropping the last member tears the group down — cursors,
// append subscription and registry entry all released.
func TestGroupMemberDropLifecycle(t *testing.T) {
	eng := New(&Options{Workers: 2})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	bk, _ := eng.Basket("s")
	baseSubs := bk.Subscribers()
	baseCons := bk.Consumers()

	sql := "SELECT count(*) AS n FROM s [SIZE 5 SLIDE 5]"
	var qs []*Query
	for i := 0; i < 3; i++ {
		q, err := eng.Register(fmt.Sprintf("q%d", i), sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if g := eng.Groups(); len(g) != 1 || g[0].Members != 3 {
		t.Fatalf("groups = %+v", g)
	}
	qs[0].Stop()
	if g := eng.Groups(); len(g) != 1 || g[0].Members != 2 {
		t.Fatalf("after one drop: groups = %+v", g)
	}
	for i := 0; i < 10; i++ {
		_ = eng.Append("s", []any{int64(i), int64(i), 1.0})
	}
	eng.Drain()
	if got := collectSorted(qs[1]); len(got) != 2 {
		t.Fatalf("surviving member emitted %d evals, want 2", len(got))
	}
	qs[1].Stop()
	qs[2].Stop()
	if g := eng.Groups(); len(g) != 0 {
		t.Fatalf("after last drop: groups = %+v", g)
	}
	if got := bk.Subscribers(); got != baseSubs {
		t.Errorf("append subscriptions leaked: %d, want %d", got, baseSubs)
	}
	if got := bk.Consumers(); got != baseCons {
		t.Errorf("basket consumers leaked: %d, want %d", got, baseCons)
	}
	// The stream is droppable again once no query reads it.
	mustExecG(t, eng, "DROP STREAM s")
}

// TestDropPausedQueryReleasesSubscription is the regression test for the
// leak: DROP QUERY on a paused query left its basket append subscription
// registered, so every later append kept waking (and paying for) the dead
// query. Covers both the grouped and the isolated dataflow.
func TestDropPausedQueryReleasesSubscription(t *testing.T) {
	eng := New(&Options{Workers: 2})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	bk, _ := eng.Basket("s")
	baseSubs := bk.Subscribers()
	baseCons := bk.Consumers()

	for _, isolated := range []bool{false, true} {
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("leak_%v_%d", isolated, i)
			q, err := eng.Register(name, "SELECT count(*) AS n FROM s [SIZE 8 SLIDE 8]",
				&RegisterOptions{Isolated: isolated})
			if err != nil {
				t.Fatal(err)
			}
			q.Pause()
			if _, err := eng.Exec("DROP QUERY " + name); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := bk.Subscribers(); got != baseSubs {
		t.Fatalf("subscriptions after paused drops = %d, want %d (leak)", got, baseSubs)
	}
	if got := bk.Consumers(); got != baseCons {
		t.Fatalf("consumers after paused drops = %d, want %d (leak)", got, baseCons)
	}
}

// TestGroupBufferRefcount pins the shared-buffer lifecycle: incremental
// members release the raw window data as soon as their intermediates are
// cached, re-evaluation members hold it until ring eviction, and stopping
// every member releases everything.
func TestGroupBufferRefcount(t *testing.T) {
	eng := New(&Options{Workers: 2})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	sql := "SELECT k, sum(v) AS t FROM s [SIZE 20 SLIDE 10] GROUP BY k"
	inc, err := eng.Register("inc", sql, &RegisterOptions{Mode: ModeIncremental, NoChannel: true})
	if err != nil {
		t.Fatal(err)
	}
	re, err := eng.Register("re", sql, &RegisterOptions{Mode: ModeReeval, NoChannel: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_ = eng.Append("s", []any{int64(i), int64(i % 4), 1.0})
	}
	eng.Drain()
	g := eng.Groups()
	if len(g) != 1 {
		t.Fatalf("groups = %+v", g)
	}
	// The re-evaluation member's ring holds SIZE/SLIDE = 2 basic windows;
	// the incremental member released its references at cache time.
	if g[0].LiveBufs != 2 {
		t.Fatalf("live buffers after drain = %d, want 2 (reeval ring)", g[0].LiveBufs)
	}
	re.Stop()
	if g := eng.Groups(); g[0].LiveBufs != 0 {
		t.Fatalf("live buffers after reeval member stop = %d, want 0", g[0].LiveBufs)
	}
	inc.Stop()
	if g := eng.Groups(); len(g) != 0 {
		t.Fatalf("groups after last stop = %+v", g)
	}
}

// TestGroupTimeWindows checks the time-window group path end to end:
// shared event-time watermark, AdvanceTime forcing idle buckets shut, and
// equivalence with a query registered alone.
func TestGroupTimeWindows(t *testing.T) {
	sql := "SELECT k, count(*) AS n FROM s [RANGE 2 SECONDS SLIDE 1 SECOND ON ts] GROUP BY k"
	sec := int64(1_000_000)
	feed := func(eng *Engine) {
		for i, ts := range []int64{100, 200, 300, sec + 100, sec + 200, 3*sec + 100} {
			if err := eng.Append("s", []any{ts, int64(i % 2), 1.0}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
		eng.AdvanceTime(5 * sec)
		eng.Drain()
	}
	// Alone.
	eng1 := New(&Options{Workers: 1})
	mustExecG(t, eng1, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	q1, err := eng1.Register("q", sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed(eng1)
	want := collectRendered(q1)
	eng1.Close()
	if len(want) == 0 {
		t.Fatal("alone time-window query produced nothing")
	}

	// In a group of 8.
	eng := New(&Options{Workers: 1})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	qs := make([]*Query, 8)
	for i := range qs {
		q, err := eng.Register(fmt.Sprintf("q%d", i), sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	feed(eng)
	for i, q := range qs {
		got := collectRendered(q)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("member %d diverges:\ngrouped %v\nalone   %v", i, got, want)
		}
	}
}

// TestGroupStreamTableJoin: a stream⋈table plan has a single stream scan,
// so it groups; results must match the isolated run's private group.
func TestGroupStreamTableJoin(t *testing.T) {
	run := func(isolated bool) [][]string {
		eng := New(&Options{Workers: 2})
		defer eng.Close()
		mustExecG(t, eng, "CREATE TABLE dim (k INT, grp INT)")
		mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
		for i := 0; i < 8; i++ {
			mustExecG(t, eng, fmt.Sprintf("INSERT INTO dim VALUES (%d, %d)", i, i%2))
		}
		q, err := eng.Register("q",
			"SELECT d.grp, count(*) AS n FROM s [SIZE 16 SLIDE 8] JOIN dim d ON s.k = d.k GROUP BY d.grp",
			&RegisterOptions{Isolated: isolated})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 48; i++ {
			_ = eng.Append("s", []any{int64(i), int64(i % 8), 1.0})
		}
		eng.Drain()
		assertIsolation(t, eng, q, isolated)
		return collectSorted(q)
	}
	grouped := run(false)
	isolated := run(true)
	if len(grouped) == 0 || fmt.Sprint(grouped) != fmt.Sprint(isolated) {
		t.Fatalf("stream⋈table diverges:\ngrouped  %v\nisolated %v", grouped, isolated)
	}
}

// TestGroupLateJoiner: a member joining an active group starts at the
// next sealed basic window and then tracks the shared slice exactly.
func TestGroupLateJoiner(t *testing.T) {
	eng := New(&Options{Workers: 2})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	sql := "SELECT count(*) AS n FROM s [SIZE 10 SLIDE 10]"
	if _, err := eng.Register("early", sql, &RegisterOptions{NoChannel: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_ = eng.Append("s", []any{int64(i), int64(i), 1.0})
	}
	eng.Drain()
	late, err := eng.Register("late", sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := eng.Groups(); len(g) != 1 || g[0].Members != 2 {
		t.Fatalf("groups = %+v", g)
	}
	for i := 20; i < 40; i++ {
		_ = eng.Append("s", []any{int64(i), int64(i), 1.0})
	}
	eng.Drain()
	got := collectSorted(late)
	if len(got) != 2 {
		t.Fatalf("late joiner evals = %d, want 2 (only windows sealed after join)", len(got))
	}
	for _, rows := range got {
		if len(rows) != 1 || rows[0] != "[10]" {
			t.Fatalf("late joiner rows = %v", got)
		}
	}
}

// TestGroupRecreateAfterTeardown cycles drop-last-member → re-register
// on the same group key and checks the fresh group keeps producing — the
// regression test for a torn-down group's RemoveWait sweeping up a
// same-keyed successor's scheduler transitions (group names now carry an
// instance nonce, and scheduler liveness is by identity).
func TestGroupRecreateAfterTeardown(t *testing.T) {
	eng := New(&Options{Workers: 4})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	sql := "SELECT count(*) AS n FROM s [SIZE 5 SLIDE 5]"
	next := 0
	for cycle := 0; cycle < 20; cycle++ {
		q, err := eng.Register(fmt.Sprintf("q%d", cycle), sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			if err := eng.Append("s", []any{int64(next), int64(next), 1.0}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		eng.Drain()
		if got := collectSorted(q); len(got) != 1 || got[0][0] != "[5]" {
			t.Fatalf("cycle %d: results = %v, want [[5]]", cycle, got)
		}
		q.Stop() // last member: group torn down, next cycle re-creates it
	}
	if g := eng.Groups(); len(g) != 0 {
		t.Fatalf("groups leaked across cycles: %+v", g)
	}
}
