package datacell

// Tests for shared stream⋈stream join groups: incremental join queries
// over the same stream pair and slide granularity share two stream front
// ends, per-side operator DAGs, and — per join fingerprint — one pair
// cache. The equivalence invariant matches the single-stream groups: a
// member of a join group produces byte-identical output to the same query
// registered ISOLATED, provided both observe the same left/right
// basic-window interleaving (the tests drain between appends to pin it).

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"datacell/internal/bat"
)

// joinFeed builds paired (s, r) chunk sequences whose key overlap produces
// non-trivial join output.
func joinFeed(n, batch, nkeys int) (ls, rs []*bat.Chunk) {
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	mk := func(seed int) []*bat.Chunk {
		var out []*bat.Chunk
		for pos := 0; pos < n; {
			take := batch
			if pos+take > n {
				take = n - pos
			}
			ts := make(bat.Times, take)
			ks := make(bat.Ints, take)
			vs := make(bat.Floats, take)
			for i := 0; i < take; i++ {
				g := pos + i
				ts[i] = int64(g) * 1000
				ks[i] = int64((g*seed + g) % nkeys)
				vs[i] = float64((g * seed) % 100)
			}
			out = append(out, &bat.Chunk{Schema: sch, Cols: []bat.Vector{ts, ks, vs}})
			pos += take
		}
		return out
	}
	return mk(3), mk(5)
}

// joinMemberSQL varies filters, join shapes and post-merge aggregates so
// the members have genuinely divergent pipelines and pair caches; i%4==0
// and i%4==3 are identical on purpose (they must share one pair cache).
func joinMemberSQL(i, size, slide int) string {
	switch i % 4 {
	case 0:
		return fmt.Sprintf(
			"SELECT s.v, r.v FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k",
			size, slide, size, slide)
	case 1:
		return fmt.Sprintf(
			"SELECT s.v, r.v FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k AND s.v > 20.0",
			size, slide, size, slide)
	case 2:
		return fmt.Sprintf(
			"SELECT s.k, count(*) AS n FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k GROUP BY s.k",
			size, slide, size, slide)
	default:
		return fmt.Sprintf(
			"SELECT s.v, r.v FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k",
			size, slide, size, slide)
	}
}

// feedPairwise appends s and r chunks alternately, draining after each
// append: every engine observes the canonical L0 R0 L1 R1 … basic-window
// interleaving, making byte-level comparison meaningful.
func feedPairwise(t *testing.T, eng *Engine, ls, rs []*bat.Chunk) {
	t.Helper()
	for i := range ls {
		if err := eng.AppendChunk("s", ls[i]); err != nil {
			t.Fatal(err)
		}
		eng.Drain()
		if err := eng.AppendChunk("r", rs[i]); err != nil {
			t.Fatal(err)
		}
		eng.Drain()
	}
}

// TestJoinGroupEquivalenceIsolated is the acceptance invariant: each of N
// join queries in one join group produces byte-identical results to the
// same query registered ISOLATED, on 1-shard and 4-shard streams.
func TestJoinGroupEquivalenceIsolated(t *testing.T) {
	const members = 6
	const size, slide = 32, 16
	ls, rs := joinFeed(192, slide, 11)
	ddls := [][2]string{
		{"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)",
			"CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)"},
		{"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k",
			"CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"},
	}
	for _, ddl := range ddls {
		// Isolated: all N queries on one engine, every one with its own
		// cursors, slicers and private pair cache.
		iso := New(&Options{Workers: 1})
		for _, d := range ddl {
			mustExecG(t, iso, d)
		}
		isoQs := make([]*Query, members)
		for i := 0; i < members; i++ {
			q, err := iso.Register(fmt.Sprintf("q%02d", i), joinMemberSQL(i, size, slide),
				&RegisterOptions{Isolated: true})
			if err != nil {
				t.Fatal(err)
			}
			if q.Grouped() {
				t.Fatalf("isolated member %d joined a group", i)
			}
			isoQs[i] = q
		}
		feedPairwise(t, iso, ls, rs)
		want := make([][]string, members)
		for i, q := range isoQs {
			want[i] = collectRendered(q)
			if len(want[i]) == 0 {
				t.Fatalf("ddl=%q isolated member %d emitted nothing", ddl[0], i)
			}
		}
		iso.Close()

		// Grouped: the same N queries share one join group.
		eng := New(&Options{Workers: 1})
		for _, d := range ddl {
			mustExecG(t, eng, d)
		}
		qs := make([]*Query, members)
		for i := 0; i < members; i++ {
			q, err := eng.Register(fmt.Sprintf("q%02d", i), joinMemberSQL(i, size, slide), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !q.Grouped() {
				t.Fatalf("member %d did not join the join group", i)
			}
			qs[i] = q
		}
		groups := eng.Groups()
		if len(groups) != 1 || groups[0].Kind != "join" || groups[0].Members != members {
			t.Fatalf("groups = %+v, want one join group of %d", groups, members)
		}
		feedPairwise(t, eng, ls, rs)
		for i, q := range qs {
			got := collectRendered(q)
			if len(got) != len(want[i]) {
				t.Fatalf("ddl=%q member %d: evals=%d, isolated=%d",
					ddl[0], i, len(got), len(want[i]))
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("ddl=%q member %d eval %d diverges:\ngrouped:\n%s\nisolated:\n%s",
						ddl[0], i, j, got[j], want[i][j])
				}
			}
		}
		eng.Close()
	}
}

// TestJoinGroupSharedPairCache pins the sharing economics: N identical
// join queries in one group compute exactly as many basic-window pairs as
// one member alone — the pair cache is hit, never recomputed, for the
// other N-1 — and the group's DAG memoizes their (identical) side
// pipelines.
func TestJoinGroupSharedPairCache(t *testing.T) {
	const size, slide = 32, 16
	ls, rs := joinFeed(160, slide, 7)
	sql := fmt.Sprintf(
		"SELECT s.v, r.v FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k AND s.v > 10.0",
		size, slide, size, slide)
	run := func(members int) GroupInfo {
		eng := New(&Options{Workers: 1})
		defer eng.Close()
		mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
		mustExecG(t, eng, "CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)")
		for i := 0; i < members; i++ {
			if _, err := eng.Register(fmt.Sprintf("q%d", i), sql,
				&RegisterOptions{NoChannel: true}); err != nil {
				t.Fatal(err)
			}
		}
		feedPairwise(t, eng, ls, rs)
		g := eng.Groups()
		if len(g) != 1 {
			t.Fatalf("groups = %+v", g)
		}
		return g[0]
	}
	one := run(1)
	four := run(4)
	if one.PairsComputed == 0 {
		t.Fatal("no pairs computed at all")
	}
	if four.PairsComputed != one.PairsComputed {
		t.Errorf("4 identical members computed %d pairs, 1 member %d — pairs recomputed",
			four.PairsComputed, one.PairsComputed)
	}
	if four.PairCaches != 1 {
		t.Errorf("identical members should share one pair cache, got %d", four.PairCaches)
	}
	if four.MemoHits == 0 {
		t.Error("identical side pipelines produced no memo hits")
	}
	if four.DagNodes == 0 {
		t.Error("no DAG nodes registered for filtered side pipelines")
	}
}

// TestJoinGroupMemberPauseDrop: pausing one join member must not stall
// siblings or the shared front ends; a resumed member catches up with the
// same results. Dropping members one by one tears the group down with the
// last, releasing both baskets' cursors and subscriptions.
func TestJoinGroupMemberPauseDrop(t *testing.T) {
	const size, slide = 16, 16
	ls, rs := joinFeed(96, slide, 5)
	sql := fmt.Sprintf(
		"SELECT s.v, r.v FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k",
		size, slide, size, slide)
	eng := New(&Options{Workers: 2})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	mustExecG(t, eng, "CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)")
	bkS, _ := eng.Basket("s")
	bkR, _ := eng.Basket("r")
	baseSubsS, baseSubsR := bkS.Subscribers(), bkR.Subscribers()
	baseConsS, baseConsR := bkS.Consumers(), bkR.Consumers()

	qa, err := eng.Register("a", sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := eng.Register("b", sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	qb.Pause()
	feedPairwise(t, eng, ls, rs)
	live := collectSorted(qa)
	if len(live) == 0 {
		t.Fatal("live sibling emitted nothing while member paused")
	}
	if got := collectSorted(qb); len(got) != 0 {
		t.Fatalf("paused member emitted %d evals", len(got))
	}
	qb.Resume()
	eng.Drain()
	caught := collectSorted(qb)
	if fmt.Sprint(caught) != fmt.Sprint(live) {
		t.Fatalf("resumed member diverges:\nresumed %v\nlive    %v", caught, live)
	}

	qa.Stop()
	if g := eng.Groups(); len(g) != 1 || g[0].Members != 1 {
		t.Fatalf("after one drop: groups = %+v", g)
	}
	qb.Stop()
	if g := eng.Groups(); len(g) != 0 {
		t.Fatalf("after last drop: groups = %+v", g)
	}
	if got := bkS.Subscribers(); got != baseSubsS {
		t.Errorf("s append subscriptions leaked: %d, want %d", got, baseSubsS)
	}
	if got := bkR.Subscribers(); got != baseSubsR {
		t.Errorf("r append subscriptions leaked: %d, want %d", got, baseSubsR)
	}
	if got := bkS.Consumers(); got != baseConsS {
		t.Errorf("s basket consumers leaked: %d, want %d", got, baseConsS)
	}
	if got := bkR.Consumers(); got != baseConsR {
		t.Errorf("r basket consumers leaked: %d, want %d", got, baseConsR)
	}
	mustExecG(t, eng, "DROP STREAM s")
	mustExecG(t, eng, "DROP STREAM r")
}

// TestReevalJoinGroupEquivalence: a re-evaluation join whose plan
// decomposes joins the stream pair's join group (PR 4) — its full-window
// recompute is served by the shared pair cache — and must produce the
// same per-eval results (order-insensitive: the pair merge concatenates
// in pair order, a monolithic re-evaluation in hash-join order) as the
// same query registered ISOLATED, which still re-runs the whole plan.
// Mixed-mode sharing is pinned too: an incremental and a re-evaluation
// member with the same join fingerprint share one pair cache, computing
// no pair twice.
func TestReevalJoinGroupEquivalence(t *testing.T) {
	const size, slide = 32, 16
	ls, rs := joinFeed(192, slide, 9)
	sql := fmt.Sprintf(
		"SELECT s.v, r.v FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k",
		size, slide, size, slide)

	run := func(opts *RegisterOptions) [][]string {
		eng := New(&Options{Workers: 1})
		defer eng.Close()
		mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
		mustExecG(t, eng, "CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)")
		q, err := eng.Register("q", sql, opts)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Isolated == q.Grouped() {
			t.Fatalf("Isolated=%v but Grouped=%v", opts.Isolated, q.Grouped())
		}
		if q.Mode() != "reeval" {
			t.Fatalf("mode = %q, want reeval", q.Mode())
		}
		feedPairwise(t, eng, ls, rs)
		return collectSorted(q)
	}
	grouped := run(&RegisterOptions{Mode: ModeReeval})
	isolated := run(&RegisterOptions{Mode: ModeReeval, Isolated: true})
	if len(grouped) == 0 {
		t.Fatal("grouped re-evaluation join emitted nothing")
	}
	if fmt.Sprint(grouped) != fmt.Sprint(isolated) {
		t.Fatalf("re-evaluation join diverges:\ngrouped  %v\nisolated %v", grouped, isolated)
	}

	// Mixed modes share the fingerprint-keyed pair cache.
	mixed := func(modes []Mode) GroupInfo {
		eng := New(&Options{Workers: 1})
		defer eng.Close()
		mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
		mustExecG(t, eng, "CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)")
		for i, mode := range modes {
			if _, err := eng.Register(fmt.Sprintf("q%d", i), sql,
				&RegisterOptions{Mode: mode, NoChannel: true}); err != nil {
				t.Fatal(err)
			}
		}
		feedPairwise(t, eng, ls, rs)
		g := eng.Groups()
		if len(g) != 1 {
			t.Fatalf("groups = %+v", g)
		}
		return g[0]
	}
	alone := mixed([]Mode{ModeIncremental})
	both := mixed([]Mode{ModeIncremental, ModeReeval})
	if both.Members != 2 || both.PairCaches != 1 {
		t.Fatalf("mixed-mode group = %+v, want 2 members sharing 1 pair cache", both)
	}
	if alone.PairsComputed == 0 || both.PairsComputed != alone.PairsComputed {
		t.Errorf("mixed modes computed %d pairs, single member %d — pairs recomputed across modes",
			both.PairsComputed, alone.PairsComputed)
	}
}

// TestPairCacheRetentionOnLeave is the regression test for the retention
// leak: the shared pair cache's horizon is the widest member extent, and
// before PR 4 it never shrank on Leave — a departed wide member kept
// pinning pairs for up to one extra window. Dropping the wide member must
// now recompute the horizon from the survivors and evict immediately,
// visible in the \groups pair-cache stats.
func TestPairCacheRetentionOnLeave(t *testing.T) {
	const slide = 10
	ls, rs := joinFeed(160, slide, 7)
	join := func(size int) string {
		return fmt.Sprintf(
			"SELECT s.v, r.v FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k",
			size, slide, size, slide)
	}
	eng := New(&Options{Workers: 1})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	mustExecG(t, eng, "CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)")
	wide, err := eng.Register("wide", join(6*slide), &RegisterOptions{NoChannel: true})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := eng.Register("narrow", join(2*slide), &RegisterOptions{NoChannel: true})
	if err != nil {
		t.Fatal(err)
	}
	if wide.GroupKey() != narrow.GroupKey() {
		t.Fatalf("extents must share a join group: %q vs %q", wide.GroupKey(), narrow.GroupKey())
	}
	feedPairwise(t, eng, ls, rs)
	before := eng.Groups()[0]
	if before.PairCaches != 1 || before.CachedPairs == 0 {
		t.Fatalf("before drop: %+v", before)
	}
	wide.Stop()
	after := eng.Groups()[0]
	// The wide member held 6 generations per side (≈ 6x6 pairs); the
	// narrow survivor needs only 2 per side. Its Leave must shrink the
	// horizon and sweep the excess immediately — not after another window.
	if after.CachedPairs >= before.CachedPairs {
		t.Fatalf("pairs after wide Leave = %d, before = %d — retention did not shrink",
			after.CachedPairs, before.CachedPairs)
	}
	maxNarrow := (2 + 1) * (2 + 1)
	if after.CachedPairs > maxNarrow {
		t.Errorf("pairs after wide Leave = %d, want ≤ %d (narrow horizon)",
			after.CachedPairs, maxNarrow)
	}
	// And the surviving member keeps running off the shrunk cache.
	feedPairwise(t, eng, ls[:4], rs[:4])
	if g := eng.Groups()[0]; g.CachedPairs > maxNarrow {
		t.Errorf("pairs after more windows = %d, want ≤ %d", g.CachedPairs, maxNarrow)
	}
}

// TestJoinGroupKeyRules: different slides split join groups; mirrored
// stream order does not share a group (sides would swap roles); \groups
// surfaces the join kind.
func TestJoinGroupKeyRules(t *testing.T) {
	eng := New(&Options{Workers: 1})
	defer eng.Close()
	mustExecG(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	mustExecG(t, eng, "CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)")
	reg := func(name, sql string) *Query {
		t.Helper()
		q, err := eng.Register(name, sql, &RegisterOptions{NoChannel: true})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	a := reg("a", "SELECT s.v, r.v FROM s [SIZE 32 SLIDE 16], r [SIZE 32 SLIDE 16] WHERE s.k = r.k")
	b := reg("b", "SELECT s.v, r.v FROM s [SIZE 32 SLIDE 8], r [SIZE 32 SLIDE 8] WHERE s.k = r.k")
	c := reg("c", "SELECT r.v, s.v FROM r [SIZE 32 SLIDE 16], s [SIZE 32 SLIDE 16] WHERE s.k = r.k")
	if a.GroupKey() == b.GroupKey() {
		t.Errorf("different slides must not share a join group: %q", a.GroupKey())
	}
	if a.GroupKey() == c.GroupKey() {
		t.Errorf("mirrored stream order must not share a join group: %q", a.GroupKey())
	}
	if !strings.Contains(a.GroupKey(), "⋈") {
		t.Errorf("join group key = %q", a.GroupKey())
	}
	for _, g := range eng.Groups() {
		if g.Kind != "join" {
			t.Errorf("group %q kind = %q, want join", g.Key, g.Kind)
		}
	}
}

// TestTimeJoinOffsetStartsAlignByEpoch: a time-window join whose second
// stream starts several slides after the first pairs basic windows by
// event time. Shared and isolated registrations must both match a
// reference that replays the canonical order — each side's windows
// sorted by where they end, the left side first on ties — over rings of
// the window's extent, with no draining between appends.
func TestTimeJoinOffsetStartsAlignByEpoch(t *testing.T) {
	const (
		secs   = 24 // event-time seconds fed to s
		rStart = 10 // r's first second
		perSec = 5
		parts  = 3
	)
	sql := fmt.Sprintf("SELECT s.k, count(*) AS n FROM s [RANGE %d SECONDS SLIDE 1 SECONDS ON ts], "+
		"r [RANGE %d SECONDS SLIDE 1 SECONDS ON ts] WHERE s.k = r.k GROUP BY s.k", parts, parts)
	key := func(side, sec, j int) int64 { return int64((sec*(3+2*side) + j*(1+side)) % 4) }
	chunk := func(side, sec int) *bat.Chunk {
		sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
		ts, ks, vs := make(bat.Times, perSec), make(bat.Ints, perSec), make(bat.Floats, perSec)
		for j := 0; j < perSec; j++ {
			ts[j] = int64(sec)*1_000_000 + int64(j)*100_000
			ks[j] = key(side, sec, j)
			vs[j] = float64(j)
		}
		return &bat.Chunk{Schema: sch, Cols: []bat.Vector{ts, ks, vs}}
	}

	// Reference. The newest second of each stream stays open (its bucket
	// holds the watermark), so s seals 0..secs-2 and r rStart..secs-2.
	type win struct{ side, epoch int }
	var order []win
	for e := 0; e < secs-1; e++ {
		order = append(order, win{0, e})
		if e >= rStart {
			order = append(order, win{1, e})
		}
	}
	var want []string
	var rings [2][]int
	for _, w := range order {
		rings[w.side] = append(rings[w.side], w.epoch)
		if len(rings[w.side]) > parts {
			rings[w.side] = rings[w.side][1:]
		}
		if len(rings[0]) < parts || len(rings[1]) < parts {
			continue
		}
		counts := map[int64]int{}
		for _, ls := range rings[0] {
			for _, rs := range rings[1] {
				for i := 0; i < perSec; i++ {
					for j := 0; j < perSec; j++ {
						if k := key(0, ls, i); k == key(1, rs, j) {
							counts[k]++
						}
					}
				}
			}
		}
		var rows []string
		for k, n := range counts {
			rows = append(rows, fmt.Sprintf("%d=%d", k, n))
		}
		sort.Strings(rows)
		want = append(want, strings.Join(rows, " "))
	}
	render := func(e *Engine, q *Query) []string {
		var out []string
		for _, r := range collect(e, q) {
			var rows []string
			for i := 0; i < r.Chunk.Rows(); i++ {
				row := r.Chunk.Row(i)
				rows = append(rows, row[0].String()+"="+row[1].String())
			}
			sort.Strings(rows)
			out = append(out, strings.Join(rows, " "))
		}
		return out
	}

	// feed appends one second of a stream's rows.
	type feed func(stream string, sec int)
	feeds := map[string]func(app feed){
		// Interleaved in event time, r joining late.
		"interleaved": func(app feed) {
			for sec := 0; sec < secs; sec++ {
				app("s", sec)
				if sec >= rStart {
					app("r", sec)
				}
			}
		},
		// All of s before any of r: s's windows wait for r's watermark.
		"s_first": func(app feed) {
			for sec := 0; sec < secs; sec++ {
				app("s", sec)
			}
			for sec := rStart; sec < secs; sec++ {
				app("r", sec)
			}
		},
	}
	for _, shard := range []string{"", " SHARD 2 KEY k"} {
		for name, run := range feeds {
			e, _ := newTestEngine(t)
			mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"+shard)
			mustExec(t, e, "CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)"+shard)
			shared, err := e.Register("shared", sql, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !shared.Grouped() {
				t.Fatal("shared registration did not join a join group")
			}
			iso, err := e.Register("iso", sql, &RegisterOptions{Isolated: true})
			if err != nil {
				t.Fatal(err)
			}
			run(func(stream string, sec int) {
				side := 0
				if stream == "r" {
					side = 1
				}
				if err := e.AppendChunk(stream, chunk(side, sec)); err != nil {
					t.Fatal(err)
				}
				if shard != "" {
					// A sharded time window seals by the stream-wide newest
					// timestamp, so a shard that drains late clamps its
					// rows into a newer bucket. Draining keeps the window
					// contents fixed; under s_first every s window still
					// has to wait for r.
					e.Drain()
				}
			})
			for qn, got := range map[string][]string{"shared": render(e, shared), "isolated": render(e, iso)} {
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("%s%s %s: %d evals, want %d\ngot:  %q\nwant: %q",
						name, shard, qn, len(got), len(want), got, want)
				}
			}
			e.Close()
		}
	}
}
