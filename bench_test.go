package datacell

// One benchmark per experiment in DESIGN.md §5 (the demo scenarios E1–E7),
// plus ablation benches for the kernel design choices DESIGN.md calls out
// (bulk selection vs row-at-a-time, candidate-list pipelines, hash-join
// fast paths). The cmd/dcbench harness prints the corresponding tables;
// these benches expose the same measurements to `go test -bench`.
//
// Custom metrics: µs/slide is the paper's headline quantity (cost of one
// window evaluation); tuples/s is the ingestion throughput.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"datacell/internal/algebra"
	"datacell/internal/bat"
	"datacell/internal/expr"
	"datacell/internal/linearroad"
)

// feedSensor generates n (ts, k, v) tuples in batches.
func feedSensor(n, batch, nkeys int) []*bat.Chunk {
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
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
			ts[i] = int64(g)
			ks[i] = int64((g * 2654435761) % nkeys)
			if ks[i] < 0 {
				ks[i] += int64(nkeys)
			}
			vs[i] = float64(g%1000) * 0.5
		}
		out = append(out, &bat.Chunk{Schema: sch, Cols: []bat.Vector{ts, ks, vs}})
		pos += take
	}
	return out
}

// runWindowed processes the chunks through one registered query and
// reports µs/slide and tuples/s.
func runWindowed(b *testing.B, sql string, mode Mode, chunks []*bat.Chunk, tuples int) {
	b.Helper()
	b.ReportAllocs()
	var evals int64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		eng := New(&Options{Workers: 2})
		if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
			b.Fatal(err)
		}
		q, err := eng.Register("q", sql, &RegisterOptions{Mode: mode, NoChannel: true})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		for _, c := range chunks {
			if err := eng.AppendChunk("s", c); err != nil {
				b.Fatal(err)
			}
		}
		eng.Drain()
		wall += time.Since(start)
		evals += q.Stats().Evals
		eng.Close()
	}
	if evals > 0 {
		b.ReportMetric(float64(wall.Microseconds())/float64(evals), "µs/slide")
	}
	b.ReportMetric(float64(tuples)*float64(b.N)/wall.Seconds(), "tuples/s")
}

// BenchmarkE1ReevalVsIncremental is experiment E1: the two execution
// modes on a grouped sliding-window aggregate (window 16Ki, slide 2Ki).
func BenchmarkE1ReevalVsIncremental(b *testing.B) {
	const w, s = 16384, 2048
	const n = w * 3
	chunks := feedSensor(n, s, 16)
	sql := fmt.Sprintf(
		"SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE %d SLIDE %d] GROUP BY k", w, s)
	b.Run("reeval", func(b *testing.B) { runWindowed(b, sql, ModeReeval, chunks, n) })
	b.Run("incremental", func(b *testing.B) { runWindowed(b, sql, ModeIncremental, chunks, n) })
}

// BenchmarkE2WindowStepSweep is experiment E2: fixed window, sweeping the
// slide from 1/16 of the window up to tumbling.
func BenchmarkE2WindowStepSweep(b *testing.B) {
	const w = 8192
	for _, parts := range []int64{16, 4, 1} {
		s := w / parts
		chunks := feedSensor(w*3, int(s), 16)
		sql := fmt.Sprintf("SELECT k, sum(v) AS t FROM s [SIZE %d SLIDE %d] GROUP BY k", w, s)
		b.Run(fmt.Sprintf("slide_%d/reeval", s), func(b *testing.B) {
			runWindowed(b, sql, ModeReeval, chunks, w*3)
		})
		b.Run(fmt.Sprintf("slide_%d/incremental", s), func(b *testing.B) {
			runWindowed(b, sql, ModeIncremental, chunks, w*3)
		})
	}
}

// BenchmarkE3ComplexQueries is experiment E3: simple select-project
// pipelines vs windowed stream⋈stream joins, both modes.
func BenchmarkE3ComplexQueries(b *testing.B) {
	const w, s = 2048, 512
	const n = w * 3
	spa := fmt.Sprintf("SELECT k, v FROM s [SIZE %d SLIDE %d] WHERE v > 100.0", w, s)
	chunks := feedSensor(n, s, 64)
	b.Run("spa/reeval", func(b *testing.B) { runWindowed(b, spa, ModeReeval, chunks, n) })
	b.Run("spa/incremental", func(b *testing.B) { runWindowed(b, spa, ModeIncremental, chunks, n) })

	join := fmt.Sprintf(
		"SELECT s.v, r.v FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k",
		w, s, w, s)
	runJoin := func(b *testing.B, mode Mode) {
		b.ReportAllocs()
		// Sparse keys (≈ one match per key pair): probe/build work, which
		// the pair cache saves, dominates over output materialization.
		cs := feedSensor(n, s, w)
		cr := feedSensor(n, s, w)
		for i := 0; i < b.N; i++ {
			eng := New(&Options{Workers: 2})
			_, _ = eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
			_, _ = eng.Exec("CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)")
			if _, err := eng.Register("q", join, &RegisterOptions{Mode: mode, NoChannel: true}); err != nil {
				b.Fatal(err)
			}
			for j := range cs {
				_ = eng.AppendChunk("s", cs[j])
				_ = eng.AppendChunk("r", cr[j])
			}
			eng.Drain()
			eng.Close()
		}
	}
	b.Run("join/reeval", func(b *testing.B) { runJoin(b, ModeReeval) })
	b.Run("join/incremental", func(b *testing.B) { runJoin(b, ModeIncremental) })
}

// BenchmarkE4StreamTableJoin is experiment E4: a continuous query joining
// the stream with a persistent dimension table of increasing size.
func BenchmarkE4StreamTableJoin(b *testing.B) {
	const n = 16384
	chunks := feedSensor(n, 1024, 4096)
	for _, dim := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("dim_%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := New(&Options{Workers: 2})
				_, _ = eng.Exec("CREATE TABLE dim (k INT, grp INT)")
				_, _ = eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
				ks := make(bat.Ints, dim)
				gs := make(bat.Ints, dim)
				for j := range ks {
					ks[j] = int64(j)
					gs[j] = int64(j % 32)
				}
				_ = eng.AppendTable("dim", &bat.Chunk{
					Schema: bat.NewSchema([]string{"k", "grp"}, []bat.Kind{bat.Int, bat.Int}),
					Cols:   []bat.Vector{ks, gs},
				})
				if _, err := eng.Register("q", `
					SELECT d.grp, count(*) AS c FROM s [SIZE 4096 SLIDE 1024]
					JOIN dim d ON s.k = d.k GROUP BY d.grp`,
					&RegisterOptions{NoChannel: true}); err != nil {
					b.Fatal(err)
				}
				for _, c := range chunks {
					_ = eng.AppendChunk("s", c)
				}
				eng.Drain()
				eng.Close()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkE5QueryNetwork is experiment E5: scheduler scaling with the
// number of standing queries sharing one stream.
func BenchmarkE5QueryNetwork(b *testing.B) {
	const n = 8192
	chunks := feedSensor(n, 512, 16)
	for _, qn := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("queries_%d", qn), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := New(&Options{Workers: 4})
				_, _ = eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
				for j := 0; j < qn; j++ {
					sql := fmt.Sprintf(
						"SELECT k, count(*) AS n FROM s [SIZE 1024 SLIDE 256] GROUP BY k HAVING count(*) > %d", j%7)
					if _, err := eng.Register(fmt.Sprintf("q%03d", j), sql,
						&RegisterOptions{NoChannel: true}); err != nil {
						b.Fatal(err)
					}
				}
				for _, c := range chunks {
					_ = eng.AppendChunk("s", c)
				}
				eng.Drain()
				eng.Close()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(n)/float64(qn)*1e9, "ns/tuple/query")
		})
	}
}

// BenchmarkE6LinearRoad is experiment E6: the Linear Road query set over
// generated traffic, reporting achieved report rate.
func BenchmarkE6LinearRoad(b *testing.B) {
	cfg := linearroad.Config{
		Xways: 1, CarsPerXway: 500, DurationSec: 300,
		ReportEverySec: 30, AccidentProb: 0.005, Seed: 1,
	}
	chunks := linearroad.Generate(cfg)
	var reports int
	for _, c := range chunks {
		reports += c.Rows()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := New(&Options{Workers: 4})
		if _, err := eng.Exec(linearroad.CreateStreamSQL); err != nil {
			b.Fatal(err)
		}
		for name, sql := range map[string]string{
			"seg": linearroad.SegmentStatsSQL(),
			"cnt": linearroad.VehicleCountSQL(),
			"acc": linearroad.AccidentSQL(),
		} {
			if _, err := eng.Register(name, sql, &RegisterOptions{NoChannel: true}); err != nil {
				b.Fatal(err)
			}
		}
		for _, c := range chunks {
			_ = eng.AppendChunk("lr_pos", c)
		}
		eng.Drain()
		eng.AdvanceTime(int64(cfg.DurationSec+300) * 1_000_000)
		eng.Drain()
		eng.Close()
	}
	b.ReportMetric(float64(reports)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkE7AnalysisOverhead is experiment E7: the cost of the analysis
// pane's sampling relative to an unmonitored run.
func BenchmarkE7AnalysisOverhead(b *testing.B) {
	const n = 16384
	chunks := feedSensor(n, 512, 16)
	run := func(b *testing.B, sample bool) {
		for i := 0; i < b.N; i++ {
			eng := New(&Options{Workers: 2})
			_, _ = eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
			if _, err := eng.Register("q",
				"SELECT k, avg(v) AS m FROM s [SIZE 2048 SLIDE 512] GROUP BY k",
				&RegisterOptions{NoChannel: true}); err != nil {
				b.Fatal(err)
			}
			for j, c := range chunks {
				_ = eng.AppendChunk("s", c)
				if sample && j%4 == 0 {
					_ = eng.Stats()
				}
			}
			eng.Drain()
			eng.Close()
		}
	}
	b.Run("monitored", func(b *testing.B) { run(b, true) })
	b.Run("unmonitored", func(b *testing.B) { run(b, false) })
}

// --- Ablation benches: kernel design choices -----------------------------

// BenchmarkAblationSelect compares the bulk selection kernel against
// row-at-a-time evaluation of the same predicate — the columnar
// bulk-processing choice the architecture rests on.
func BenchmarkAblationSelect(b *testing.B) {
	const n = 1 << 16
	xs := make(bat.Ints, n)
	for i := range xs {
		xs[i] = int64(i % 1000)
	}
	b.Run("bulk", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			_ = algebra.Select(xs, nil, algebra.LT, bat.IntValue(500))
		}
	})
	b.Run("row_at_a_time", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			var out algebra.Sel
			for j := 0; j < n; j++ {
				if xs.Get(j).Compare(bat.IntValue(500)) < 0 {
					out = append(out, int32(j))
				}
			}
			_ = out
		}
	})
}

// BenchmarkAblationPredicate compares the candidate-list AND pipeline
// against the boolean-vector fallback for a conjunctive range predicate.
func BenchmarkAblationPredicate(b *testing.B) {
	const n = 1 << 16
	xs := make(bat.Ints, n)
	for i := range xs {
		xs[i] = int64(i % 1000)
	}
	c := &bat.Chunk{
		Schema: bat.NewSchema([]string{"a"}, []bat.Kind{bat.Int}),
		Cols:   []bat.Vector{xs},
	}
	col := &expr.Col{Idx: 0, K: bat.Int, Name: "a"}
	pred := &expr.Logic{Op: expr.And,
		L: &expr.Cmp{Op: algebra.GE, L: col, R: &expr.Const{V: bat.IntValue(100)}},
		R: &expr.Cmp{Op: algebra.LE, L: col, R: &expr.Const{V: bat.IntValue(400)}},
	}
	b.Run("candidate_pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = expr.EvalPred(pred, c, nil)
		}
	})
	b.Run("boolean_vector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bv := pred.Eval(c, nil).(bat.Bools)
			var out algebra.Sel
			for j, v := range bv {
				if v {
					out = append(out, int32(j))
				}
			}
			_ = out
		}
	})
}

// BenchmarkAblationHashJoin compares the single-int-key fast path against
// the composite-key encoding on identical data.
func BenchmarkAblationHashJoin(b *testing.B) {
	const n = 1 << 14
	l := make(bat.Ints, n)
	r := make(bat.Ints, n)
	for i := range l {
		l[i] = int64(i % 4096)
		r[i] = int64((i * 7) % 4096)
	}
	pad := make(bat.Strs, n) // second key column forcing the composite path
	b.Run("int_fast_path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = algebra.HashJoin([]bat.Vector{l}, []bat.Vector{r}, nil, nil)
		}
	})
	b.Run("composite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = algebra.HashJoin(
				[]bat.Vector{l, pad}, []bat.Vector{r, pad}, nil, nil)
		}
	})
}

// BenchmarkIngestion measures raw basket append throughput (receptor
// path) with one standing query.
func BenchmarkIngestion(b *testing.B) {
	chunks := feedSensor(1<<14, 1024, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := New(&Options{Workers: 2})
		_, _ = eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
		if _, err := eng.Register("q", "SELECT count(*) AS n FROM s [SIZE 4096 SLIDE 4096]",
			&RegisterOptions{NoChannel: true}); err != nil {
			b.Fatal(err)
		}
		for _, c := range chunks {
			_ = eng.AppendChunk("s", c)
		}
		eng.Drain()
		eng.Close()
	}
	b.ReportMetric(float64(1<<14)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkShardedIngestFire is the sharded-basket scaling benchmark:
// identical workload (parallel producers + a filtered grouped sliding-
// window aggregate) through 1-shard and 4-shard streams. The 4-shard run
// partitions appends across shard mutexes and executes the per-basic-
// window incremental pipelines of the shards concurrently, merging
// partials at epoch boundaries; on a 4+ core host it should sustain ≥2×
// the 1-shard tuples/s. TestShardedMatchesSingleBasket pins that the
// merged results are identical (order-insensitive).
func BenchmarkShardedIngestFire(b *testing.B) {
	const (
		producers = 4
		n         = 1 << 17
		batch     = 2048
		nkeys     = 512
	)
	perProd := feedSensor(n/producers, batch, nkeys)
	sql := "SELECT k, sum(v) AS s, count(*) AS c FROM s [SIZE 16384 SLIDE 4096] WHERE v > 50.0 GROUP BY k"
	for _, shards := range []int{1, 4} {
		ddl := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"
		if shards > 1 {
			ddl += fmt.Sprintf(" SHARD %d KEY k", shards)
		}
		b.Run(fmt.Sprintf("shards_%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := New(&Options{Workers: 4})
				if _, err := eng.Exec(ddl); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Register("q", sql,
					&RegisterOptions{Mode: ModeIncremental, NoChannel: true}); err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, c := range perProd {
							_ = eng.AppendChunk("s", c)
						}
					}()
				}
				wg.Wait()
				eng.Drain()
				eng.Close()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkSharedSubtail is the shared-operator-DAG scaling benchmark:
// Q=16 standing queries over one stream whose pipelines share a heavy
// common prefix — a selective filter plus a grouped partial aggregate —
// and diverge only in their post-merge HAVING thresholds. The "memo" run
// resolves the prefix through the group's shared DAG (one evaluation per
// sealed basic window for all 16 members); "nomemo" makes every member
// evaluate it privately, which is exactly the PR-2 grouped baseline. The
// acceptance floor is memo ≥ 1.5× nomemo tuples/s — the DAG removes
// 15/16ths of the per-basic-window pipeline work, so the win holds even
// on a single core. TestSharedSubtailEquivalence pins that both paths
// produce byte-identical results.
func BenchmarkSharedSubtail(b *testing.B) {
	const (
		n     = 1 << 16
		batch = 2048
		nkeys = 16
		qn    = 16
	)
	chunks := feedSensor(n, batch, nkeys)
	for _, noMemo := range []bool{false, true} {
		label := "memo"
		if noMemo {
			label = "nomemo"
		}
		b.Run(fmt.Sprintf("%s/q_%d", label, qn), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := New(&Options{Workers: 4})
				if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < qn; j++ {
					sql := fmt.Sprintf(
						"SELECT k, sum(v) AS s, count(*) AS c FROM s [SIZE 8192 SLIDE 2048] WHERE v > 100.0 GROUP BY k HAVING count(*) > %d", j%7)
					if _, err := eng.Register(fmt.Sprintf("q%02d", j), sql,
						&RegisterOptions{Mode: ModeIncremental, NoChannel: true, NoMemo: noMemo}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, c := range chunks {
					_ = eng.AppendChunk("s", c)
				}
				eng.Drain()
				b.StopTimer()
				if i == 0 {
					if g := eng.Groups(); len(g) == 1 {
						hits, misses := g[0].MemoHits, g[0].MemoMisses
						if noMemo && (hits != 0 || misses != 0) {
							b.Fatalf("nomemo run used the DAG: hits=%d misses=%d", hits, misses)
						}
						if !noMemo && hits == 0 {
							b.Fatal("memo run recorded no hits")
						}
						b.ReportMetric(100*g[0].MemoHitRate(), "memo_hit_%")
					}
				}
				eng.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkSharedMerge16 is the shared-merge scaling benchmark: Q=16
// IDENTICAL sliding-window members — same filter, same grouped partial
// aggregate, same HAVING — forming one merge class. The "sharedmerge"
// run evaluates the full-window merge and the post-merge HAVING fragment
// once per sealed window for all 16 (the other 15 hit the merged-view
// memo); the "nosharedmerge" ablation keeps the pipeline DAG but merges
// per member — exactly the PR-3 grouped baseline, where each of the 16
// re-merges its own ring of shared partials. Many grouping keys make the
// merge stage heavy, so the win isolates what sharing past the merge
// boundary buys even on one core. TestSharedMergeOncePerWindow pins that
// both paths produce byte-identical results and that the class performs
// exactly one merge per sealed window.
func BenchmarkSharedMerge16(b *testing.B) {
	const (
		n     = 1 << 16
		batch = 2048
		nkeys = 2048
		qn    = 16
	)
	chunks := feedSensor(n, batch, nkeys)
	sql := "SELECT k, sum(v) AS s, count(*) AS c FROM s [SIZE 16384 SLIDE 2048] WHERE v > 50.0 GROUP BY k HAVING count(*) > 2"
	for _, noSharedMerge := range []bool{false, true} {
		label := "sharedmerge"
		if noSharedMerge {
			label = "nosharedmerge"
		}
		b.Run(fmt.Sprintf("%s/q_%d", label, qn), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := New(&Options{Workers: 4})
				if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < qn; j++ {
					if _, err := eng.Register(fmt.Sprintf("q%02d", j), sql,
						&RegisterOptions{Mode: ModeIncremental, NoChannel: true,
							NoSharedMerge: noSharedMerge}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, c := range chunks {
					_ = eng.AppendChunk("s", c)
				}
				eng.Drain()
				b.StopTimer()
				if i == 0 {
					if g := eng.Groups(); len(g) == 1 {
						if noSharedMerge && (g[0].MergeHits != 0 || g[0].MergeMisses != 0) {
							b.Fatalf("ablation run used the merge class: %+v", g[0])
						}
						if !noSharedMerge && g[0].MergeHits == 0 {
							b.Fatal("shared-merge run recorded no merge hits")
						}
						b.ReportMetric(100*g[0].MergeHitRate(), "merge_hit_%")
					}
				}
				eng.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkJoinShared16 is the join-tail-sharing benchmark: 16 identical
// grouped sliding-window joins over two streams, once through one join
// group (shared pair cache, join merge class, post-merge trie — the pair
// merge and grouped HAVING tail evaluate once per sealed window for the
// whole class) and once isolated (every member owns a private join group
// and repeats both). dcbench tracks the same pair as the
// joinshared16_vs_isolated16 derived ratio, floored ≥1.5× on multi-core
// runners.
func BenchmarkJoinShared16(b *testing.B) {
	const (
		n     = 1 << 14
		batch = 2048
		nkeys = 256
		qn    = 16
	)
	sChunks := feedSensor(n, batch, nkeys)
	rChunks := feedSensor(n, batch, nkeys)
	sql := "SELECT s.k, count(*) AS c, sum(s.v) AS sv FROM s [SIZE 4096 SLIDE 1024], r [SIZE 4096 SLIDE 1024] WHERE s.k = r.k GROUP BY s.k HAVING count(*) > 2"
	for _, isolated := range []bool{false, true} {
		label := "shared"
		if isolated {
			label = "isolated"
		}
		b.Run(fmt.Sprintf("%s/q_%d", label, qn), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := New(&Options{Workers: 4})
				for _, ddl := range []string{
					"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)",
					"CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)",
				} {
					if _, err := eng.Exec(ddl); err != nil {
						b.Fatal(err)
					}
				}
				for j := 0; j < qn; j++ {
					if _, err := eng.Register(fmt.Sprintf("q%02d", j), sql,
						&RegisterOptions{Mode: ModeIncremental, NoChannel: true,
							Isolated: isolated}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for c := range sChunks {
					_ = eng.AppendChunk("s", sChunks[c])
					_ = eng.AppendChunk("r", rChunks[c])
				}
				eng.Drain()
				b.StopTimer()
				if i == 0 && !isolated {
					if groups := eng.Groups(); len(groups) != 1 {
						b.Fatalf("shared run formed %d groups, want 1", len(groups))
					} else if g := groups[0]; g.MergeHits == 0 || g.PostHits == 0 {
						b.Fatalf("shared join run recorded no tail sharing: %+v", g)
					} else {
						b.ReportMetric(100*g.MergeHitRate(), "merge_hit_%")
						b.ReportMetric(100*g.PostHitRate(), "post_hit_%")
					}
				}
				eng.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(2*n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkQueryGroupFanout is the shared multi-query scaling benchmark:
// Q ∈ {1, 4, 16} continuous queries over one stream, once through the
// shared execution group (the stream is drained and sliced once, member
// tails fan out) and once isolated (every query keeps its own cursors and
// slicers — the pre-group engine). Grouped cost should be sub-linear in
// Q: at Q=16 on a multi-core host, grouped throughput should be ≥3× the
// isolated baseline. The equivalence tests in group_test.go pin that both
// paths produce identical results.
func BenchmarkQueryGroupFanout(b *testing.B) {
	const (
		n     = 1 << 16
		batch = 2048
		nkeys = 256
	)
	chunks := feedSensor(n, batch, nkeys)
	for _, qn := range []int{1, 4, 16} {
		for _, isolated := range []bool{false, true} {
			label := "grouped"
			if isolated {
				label = "isolated"
			}
			b.Run(fmt.Sprintf("%s/q_%d", label, qn), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					// Setup (engine, registrations) and teardown stay outside
					// the timed region — like the dcbench harness — so the
					// tuples/s reflects ingest+fire only and stays comparable
					// across Q.
					b.StopTimer()
					eng := New(&Options{Workers: 4})
					if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
						b.Fatal(err)
					}
					for j := 0; j < qn; j++ {
						// An alert-style standing query per member: selective
						// filter + count, thresholds varying per query. The
						// tails are cheap, so the benchmark isolates what
						// grouping amortizes — the per-query drain/slice/merge
						// front end.
						sql := fmt.Sprintf(
							"SELECT count(*) AS n FROM s [SIZE 8192 SLIDE 2048] WHERE v > %d.0",
							400+(j%8)*12)
						if _, err := eng.Register(fmt.Sprintf("q%02d", j), sql,
							&RegisterOptions{Mode: ModeIncremental, NoChannel: true, Isolated: isolated}); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					for _, c := range chunks {
						_ = eng.AppendChunk("s", c)
					}
					eng.Drain()
					b.StopTimer()
					eng.Close()
					b.StartTimer()
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
				b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(n)/float64(qn)*1e9, "ns/tuple/query")
			})
		}
	}
}

// wideStream builds the fused-scan benchmark stream: (ts, k, v) plus
// payloadCols float payload columns, so per-operator intermediate chunks
// — what the fused executor never materializes — carry real copy cost.
func wideStream(n, batch, nkeys, payloadCols int) (ddl string, chunks []*bat.Chunk) {
	names := []string{"ts", "k", "v"}
	kinds := []bat.Kind{bat.Time, bat.Int, bat.Float}
	ddl = "CREATE STREAM w (ts TIMESTAMP, k INT, v FLOAT"
	for p := 1; p <= payloadCols; p++ {
		names = append(names, fmt.Sprintf("p%d", p))
		kinds = append(kinds, bat.Float)
		ddl += fmt.Sprintf(", p%d FLOAT", p)
	}
	ddl += ")"
	sch := bat.NewSchema(names, kinds)
	for pos := 0; pos < n; {
		take := batch
		if pos+take > n {
			take = n - pos
		}
		cols := make([]bat.Vector, len(names))
		ts := make(bat.Times, take)
		ks := make(bat.Ints, take)
		vs := make(bat.Floats, take)
		for i := 0; i < take; i++ {
			g := pos + i
			ts[i] = int64(g)
			ks[i] = int64((g * 2654435761) % nkeys)
			if ks[i] < 0 {
				ks[i] += int64(nkeys)
			}
			vs[i] = float64(g%1000) * 0.5
		}
		cols[0], cols[1], cols[2] = ts, ks, vs
		for p := 3; p < len(cols); p++ {
			ps := make(bat.Floats, take)
			for i := 0; i < take; i++ {
				ps[i] = float64((pos+i+p)%977) * 0.25
			}
			cols[p] = ps
		}
		chunks = append(chunks, &bat.Chunk{Schema: sch, Cols: cols})
		pos += take
	}
	return ddl, chunks
}

// BenchmarkFusedScan is the fused-tail-executor benchmark: eight
// isolated incremental filtered grouped aggregates (thresholds varying
// per query) over one wide stream, fused (lazy selection views,
// slice-time predicate pushdown, cardinality-hinted hash aggregation —
// the default) vs chunked (NoFuse: a materialized intermediate chunk
// per operator). Isolated members each own their slicers and tails, so
// the fused work scales with Q while the shared ingest copy amortizes.
// The dcbench floor is fused ≥ 1.3× chunked tuples/s on every machine
// class; TestNoFuseAblationEquivalence pins that both paths produce
// byte-identical results.
func BenchmarkFusedScan(b *testing.B) {
	const (
		n     = 1 << 18
		batch = 8192
		nkeys = 64
	)
	ddl, chunks := wideStream(n, batch, nkeys, 16)
	for _, noFuse := range []bool{false, true} {
		label := "fused"
		if noFuse {
			label = "chunked"
		}
		noFuse := noFuse
		b.Run(label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := New(&Options{Workers: 1})
				if _, err := eng.Exec(ddl); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 8; j++ {
					sql := fmt.Sprintf(
						"SELECT k, sum(v) AS s, count(*) AS n FROM w [SIZE 8192 SLIDE 2048] WHERE v > %d.0 GROUP BY k", 300+j*25)
					opts := []RegisterOption{WithMode(ModeIncremental), Isolated(), NoChannel()}
					if noFuse {
						opts = append(opts, NoFuse())
					}
					if _, err := eng.RegisterQuery(fmt.Sprintf("q%d", j), sql, opts...); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, c := range chunks {
					_ = eng.Append("w", c)
				}
				eng.Drain()
				b.StopTimer()
				eng.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkHashAggPresize isolates the hash-aggregate pre-sizing win:
// algebra.Group grows its group table from the fixed 64-slot default,
// while GroupHint pre-sizes it from the observed cardinality — exactly
// what the factory feeds back from each pipeline's previous window. The
// composite case groups on three int columns, Linear Road's
// (xway, dir, seg) key.
func BenchmarkHashAggPresize(b *testing.B) {
	const (
		rows   = 1 << 15
		groups = 4096
	)
	ks := make(bat.Ints, rows)
	for i := range ks {
		ks[i] = int64((i * 2654435761) % groups)
		if ks[i] < 0 {
			ks[i] += groups
		}
	}
	// (xway, dir, seg) = 4 × 2 × 512 = 4096 combinations of the same
	// group index.
	xway, dir, seg := make(bat.Ints, rows), make(bat.Ints, rows), make(bat.Ints, rows)
	for i, k := range ks {
		xway[i], dir[i], seg[i] = k/1024, (k/512)%2, k%512
	}
	for _, shape := range []struct {
		label string
		keys  []bat.Vector
	}{{"int", []bat.Vector{ks}}, {"xway_dir_seg", []bat.Vector{xway, dir, seg}}} {
		for _, cfg := range []struct {
			label string
			hint  int
		}{{"default", 0}, {"presized", groups}} {
			keys, hint := shape.keys, cfg.hint
			b.Run(shape.label+"/"+cfg.label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g := algebra.GroupHint(keys, nil, rows, hint)
					if g.N != groups {
						b.Fatalf("got %d groups, want %d", g.N, groups)
					}
				}
				b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}

// BenchmarkPlanCache measures registration cost through the plan cache:
// warm registers one SQL text repeatedly (every registration past the
// first skips parse/bind/optimize/decompose), cold gives each
// registration a distinct threshold so every compile runs in full. The
// dcbench floor is warm ≥ 2× cold registrations/s.
func BenchmarkPlanCache(b *testing.B) {
	const regs = 512
	for _, warm := range []bool{true, false} {
		label := "cold"
		if warm {
			label = "warm"
		}
		warm := warm
		b.Run(label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := New(&Options{Workers: 1})
				if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for j := 0; j < regs; j++ {
					thr := 100
					if !warm {
						thr = 100 + j
					}
					sql := fmt.Sprintf(
						"SELECT k, sum(v) AS s, count(*) AS c FROM s [SIZE 8192 SLIDE 2048] WHERE v > %d.0 GROUP BY k HAVING count(*) > 2", thr)
					if _, err := eng.RegisterQuery(fmt.Sprintf("q%04d", j), sql,
						WithMode(ModeIncremental), NoChannel()); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				eng.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(regs)*float64(b.N)/b.Elapsed().Seconds(), "registrations/s")
		})
	}
}
