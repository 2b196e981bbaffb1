package datacell

// Ablation equivalence suite for the fused vectorized tail executor
// (internal/kernel): every workload in the matrix runs twice — once on
// the default fused executor and once with NoFuse (operator-at-a-time
// with a materialized chunk per step, default hash-table sizing) — and must produce byte-identical result streams.
// Together with the kernel unit tests and the fabric differential
// harness this is the proof surface of the fusion contract.

import (
	"fmt"
	"testing"
)

// fuseCase is one workload of the ablation matrix.
type fuseCase struct {
	name string
	ddl  []string
	// queries registered on both engines; the ablated engine appends
	// NoFuse() and NoMemo() to each query's options.
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

func runFuseCase(t *testing.T, fc fuseCase, ablate bool) map[string][]string {
	t.Helper()
	e, _ := newTestEngine(t)
	for _, ddl := range fc.ddl {
		mustExec(t, e, ddl)
	}
	qs := map[string]*Query{}
	for name, opts := range fc.queries {
		if ablate {
			// NoMemo keeps the ablated leg out of its group's operator DAG,
			// which is fused whatever the member asks: without it the suite
			// would compare fused with fused.
			opts = append(append([]RegisterOption{}, opts...), NoFuse(), NoMemo())
		}
		q, err := e.RegisterQuery(name, fuseSQL[name], opts...)
		if err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		qs[name] = q
	}
	fc.feed(t, e)
	out := map[string][]string{}
	for name, q := range qs {
		out[name] = rowsOf(collect(e, q))
	}
	if ablate {
		for _, g := range e.Groups() {
			if g.DagNodes != 0 {
				t.Fatalf("unfused leg's group %q has %d DAG nodes: it ran fused", g.Key, g.DagNodes)
			}
		}
	}
	return out
}

// fuseSQL maps query names to their SQL so fused and ablated runs are
// guaranteed to register the identical text.
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

// TestNoFuseAblationEquivalence runs the matrix: fused and unfused
// executors must be indistinguishable on every workload shape the
// executor specializes — filtered grouped aggregates (isolated and
// shared, one and four shards), pure projection tails, HAVING tails,
// time- and tuple-based windows, and incremental stream⋈stream joins.
func TestNoFuseAblationEquivalence(t *testing.T) {
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
		{
			name: "reeval_mode",
			ddl:  []string{sensorDDL},
			queries: map[string][]RegisterOption{
				"agg": {WithMode(ModeReeval), Isolated()},
			},
			feed: feedSensorRows("s", 200, 7, 5),
		},
	}
	for _, fc := range cases {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			fused := runFuseCase(t, fc, false)
			unfused := runFuseCase(t, fc, true)
			for name := range fc.queries {
				f, u := fused[name], unfused[name]
				if len(f) != len(u) {
					t.Fatalf("%s: fused %d rows, unfused %d rows", name, len(f), len(u))
				}
				for i := range f {
					if f[i] != u[i] {
						t.Fatalf("%s row %d: fused %q != unfused %q", name, i, f[i], u[i])
					}
				}
				if len(f) == 0 {
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
