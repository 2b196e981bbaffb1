package datacell

// The paper's equivalence claim as a test matrix: every workload runs
// twice — once with each query's own options (incremental, shared or
// isolated, memoized or not) and once re-evaluating every window from
// scratch in a private group (WithMode(ModeReeval), Isolated()) — and
// must produce byte-identical result streams. The data's floats are
// multiples of 0.5, so sums are exact whatever order partials merge in.
// Together with the kernel unit tests and the fabric differential
// harness this is the proof surface of incremental evaluation.

import (
	"fmt"
	"strings"
	"testing"

	"datacell/internal/emitter"
)

// fuseCase is one workload of the matrix.
type fuseCase struct {
	name string
	ddl  []string
	// queries registered with these options on one engine, and with
	// WithMode(ModeReeval), Isolated() on the reference engine.
	queries map[string][]RegisterOption
	// feed appends identical data to both engines.
	feed func(t *testing.T, e *Engine)
}

// feedSensorRows appends n (ts, k, v) rows to stream in batches of batch.
func feedSensorRows(stream string, n, batch, nkeys int) func(*testing.T, *Engine) {
	return func(t *testing.T, e *Engine) {
		t.Helper()
		for pos := 0; pos < n; pos += batch {
			var rows [][]any
			for i := pos; i < pos+batch && i < n; i++ {
				k := (i * 2654435761) % nkeys
				if k < 0 {
					k += nkeys
				}
				rows = append(rows, []any{int64(i) * 1000, k, float64(i%17) * 0.5})
			}
			if err := e.Append(stream, rows); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// runFuseCase registers the case's queries — with WithMode(ModeReeval),
// Isolated() instead of their own options when reeval — feeds the data
// and returns each query's result rows, one string per window result.
func runFuseCase(t *testing.T, fc fuseCase, reeval bool) map[string][]string {
	t.Helper()
	e, _ := newTestEngine(t)
	for _, ddl := range fc.ddl {
		mustExec(t, e, ddl)
	}
	qs := map[string]*Query{}
	for name, opts := range fc.queries {
		if reeval {
			opts = []RegisterOption{WithMode(ModeReeval), Isolated()}
		}
		q, err := e.RegisterQuery(name, fuseSQL[name], opts...)
		if err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		if reeval && q.Mode() != "reeval" {
			t.Fatalf("reference leg's %s runs %s", name, q.Mode())
		}
		qs[name] = q
	}
	fc.feed(t, e)
	out := map[string][]string{}
	for name, q := range qs {
		for _, r := range collect(e, q) {
			out[name] = append(out[name], strings.Join(rowsOf([]emitter.Result{r}), "\n"))
		}
	}
	return out
}

// fuseSQL maps query names to their SQL so both legs are guaranteed to
// register the identical text.
var fuseSQL = map[string]string{
	"agg":      "SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE 40 SLIDE 10] WHERE v >= 1.0 GROUP BY k",
	"agg2":     "SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE 40 SLIDE 10] WHERE v >= 2.0 GROUP BY k",
	"proj":     "SELECT k, v FROM s [SIZE 40 SLIDE 10] WHERE v < 6.0",
	"noagg":    "SELECT k, v FROM s [SIZE 64 SLIDE 16] WHERE k = 1",
	"having":   "SELECT k, count(*) AS n FROM s [SIZE 40 SLIDE 10] GROUP BY k HAVING count(*) > 2",
	"minmax":   "SELECT k, min(v) AS lo, max(v) AS hi FROM s [SIZE 40 SLIDE 10] WHERE v > 0.5 GROUP BY k",
	"timeagg":  "SELECT k, sum(v) AS s FROM s [RANGE 4 SECONDS SLIDE 1 SECONDS ON ts] WHERE v >= 1.0 GROUP BY k",
	"join":     "SELECT s.k, count(*) AS n FROM s [SIZE 32 SLIDE 8], r [SIZE 32 SLIDE 8] WHERE s.k = r.k GROUP BY s.k",
	"joinrows": "SELECT s.v, r.v FROM s [SIZE 32 SLIDE 8] , r [SIZE 32 SLIDE 8] WHERE s.k = r.k",
}

// TestIncrementalMatchesReevalMatrix runs the matrix: incremental
// evaluation must be indistinguishable from re-evaluation on every
// workload shape the engine specializes — filtered grouped aggregates
// (isolated and shared, one and four shards, with and without the
// operator DAG), pure projection tails, HAVING tails, time- and
// tuple-based windows, and stream⋈stream joins.
func TestIncrementalMatchesReevalMatrix(t *testing.T) {
	sensorDDL := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"
	cases := []fuseCase{
		{
			name: "isolated_agg_1shard",
			ddl:  []string{sensorDDL},
			queries: map[string][]RegisterOption{
				"agg": {WithMode(ModeIncremental), Isolated()},
			},
			feed: feedSensorRows("s", 400, 7, 5),
		},
		{
			name: "isolated_agg_4shards",
			ddl:  []string{"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"},
			queries: map[string][]RegisterOption{
				"agg":    {WithMode(ModeIncremental), Isolated()},
				"minmax": {WithMode(ModeIncremental), Isolated()},
			},
			feed: feedSensorRows("s", 400, 11, 5),
		},
		{
			name: "shared_group_mixed_tails",
			ddl:  []string{sensorDDL},
			queries: map[string][]RegisterOption{
				"agg":    {WithMode(ModeIncremental)},
				"agg2":   {WithMode(ModeIncremental)},
				"proj":   {WithMode(ModeIncremental)},
				"having": {WithMode(ModeIncremental)},
			},
			feed: feedSensorRows("s", 400, 13, 5),
		},
		{
			name: "shared_nomemo_members",
			ddl:  []string{sensorDDL},
			queries: map[string][]RegisterOption{
				"agg":    {WithMode(ModeIncremental), NoMemo()},
				"minmax": {WithMode(ModeIncremental), NoMemo()},
			},
			feed: feedSensorRows("s", 300, 9, 5),
		},
		{
			name: "noagg_projection_tail",
			ddl:  []string{sensorDDL},
			queries: map[string][]RegisterOption{
				"noagg": {WithMode(ModeIncremental), Isolated()},
			},
			feed: feedSensorRows("s", 320, 10, 3),
		},
		{
			name: "time_window",
			ddl:  []string{sensorDDL},
			queries: map[string][]RegisterOption{
				"timeagg": {WithMode(ModeIncremental), Isolated()},
			},
			// 100ms event-time steps: 300 rows span 30s, so the 4s/1s
			// range window seals dozens of times mid-feed.
			feed: func(t *testing.T, e *Engine) {
				for i := 0; i < 300; i += 6 {
					var rows [][]any
					for j := i; j < i+6 && j < 300; j++ {
						rows = append(rows, []any{int64(j) * 100_000, j % 5, float64(j%17) * 0.5})
					}
					if err := e.Append("s", rows); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			name: "join_tails",
			ddl: []string{sensorDDL,
				"CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)"},
			queries: map[string][]RegisterOption{
				"join":     {WithMode(ModeIncremental)},
				"joinrows": {WithMode(ModeIncremental)},
			},
			feed: func(t *testing.T, e *Engine) {
				feedSensorRows("s", 200, 7, 4)(t, e)
				feedSensorRows("r", 200, 9, 4)(t, e)
			},
		},
	}
	for _, fc := range cases {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			got := runFuseCase(t, fc, false)
			want := runFuseCase(t, fc, true)
			for name := range fc.queries {
				g, w := got[name], want[name]
				if len(g) != len(w) {
					t.Fatalf("%s: %d results, re-evaluation %d", name, len(g), len(w))
				}
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("%s result %d:\n%s\nre-evaluation:\n%s", name, i, g[i], w[i])
					}
				}
				if strings.Join(g, "") == "" {
					t.Errorf("%s: produced no rows — workload exercises nothing", name)
				}
			}
		})
	}
}

// TestPlanCache exercises the registration plan cache: identical SQL
// text hits, distinct text misses, Exec-path registrations bypass, and
// DDL invalidates by bumping the catalog generation.
func TestPlanCache(t *testing.T) {
	e, _ := newTestEngine(t)
	mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	sql := "SELECT k, count(*) AS n FROM s [SIZE 10 SLIDE 5] GROUP BY k"

	h0, m0, _ := e.PlanCacheStats()
	q1, err := e.RegisterQuery("c1", sql, WithMode(ModeIncremental))
	if err != nil {
		t.Fatal(err)
	}
	if h, m, _ := e.PlanCacheStats(); h != h0 || m != m0+1 {
		t.Fatalf("first registration: hits=%d misses=%d (want %d/%d)", h, m, h0, m0+1)
	}
	q2, err := e.RegisterQuery("c2", sql, WithMode(ModeIncremental))
	if err != nil {
		t.Fatal(err)
	}
	if h, m, _ := e.PlanCacheStats(); h != h0+1 || m != m0+1 {
		t.Fatalf("second registration not a hit: hits=%d misses=%d", h, m)
	}
	// Different requested mode = different key.
	q3, err := e.RegisterQuery("c3", sql, WithMode(ModeReeval))
	if err != nil {
		t.Fatal(err)
	}
	if h, m, _ := e.PlanCacheStats(); h != h0+1 || m != m0+2 {
		t.Fatalf("mode change should miss: hits=%d misses=%d", h, m)
	}

	// Cached plans still execute: all three see the same data.
	for i := 0; i < 40; i++ {
		if err := e.Append("s", []any{int64(i) * 1000, i % 3, float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r1, r2 := rowsOf(collect(e, q1)), rowsOf(collect(e, q2))
	if len(r1) == 0 || fmt.Sprint(r1) != fmt.Sprint(r2) {
		t.Fatalf("cache-hit query diverged: %v vs %v", r1, r2)
	}
	_ = q3

	// DDL bumps the catalog generation: the same text recompiles.
	mustExec(t, e, "CREATE STREAM other (ts TIMESTAMP, x INT)")
	if _, err := e.RegisterQuery("c4", sql, WithMode(ModeIncremental)); err != nil {
		t.Fatal(err)
	}
	if h, m, _ := e.PlanCacheStats(); h != h0+1 || m != m0+3 {
		t.Fatalf("post-DDL registration should miss: hits=%d misses=%d", h, m)
	}

	// The Exec registration path has no SQL text to key on — it bypasses.
	mustExec(t, e, "REGISTER QUERY viaexec AS "+sql)
	if h, m, _ := e.PlanCacheStats(); h != h0+1 || m != m0+3 {
		t.Fatalf("Exec path must bypass the cache: hits=%d misses=%d", h, m)
	}
}
