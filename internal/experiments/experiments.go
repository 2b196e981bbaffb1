// Package experiments implements the reproduction harness: one function
// per experiment in DESIGN.md §5 (E1–E7), each regenerating the
// corresponding demo-scenario result as a printed table. The benchmark
// entry points in bench_test.go and the cmd/dcbench harness both drive
// these functions; EXPERIMENTS.md records the measured shapes against the
// paper's claims.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"datacell"
	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/factory"
	"datacell/internal/linearroad"
	"datacell/internal/monitor"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// sensorSchema is the synthetic workload layout shared by E1–E5 and E7.
func sensorSchema() bat.Schema {
	return bat.NewSchema(
		[]string{"ts", "k", "v"},
		[]bat.Kind{bat.Time, bat.Int, bat.Float},
	)
}

// sensorChunks generates n tuples of (ts, k, v) with nkeys distinct keys,
// in batches of batch rows. Values follow a deterministic pattern so runs
// are reproducible without RNG state in hot loops.
func sensorChunks(n, batch, nkeys int) []*bat.Chunk {
	sch := sensorSchema()
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
			ks[i] = int64(g*2654435761) % int64(nkeys)
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

// runResult is one measured query run.
type runResult struct {
	Wall     time.Duration
	Evals    int64
	TuplesIn int64
	RowsOut  int64
}

// usPerEval is the headline metric: microseconds of wall time per window
// evaluation (per slide).
func (r runResult) usPerEval() float64 {
	if r.Evals == 0 {
		return 0
	}
	return float64(r.Wall.Microseconds()) / float64(r.Evals)
}

// runQuery feeds chunks through a single registered query and measures
// wall time to fully drain the network. It collects garbage before the
// clock starts, so a collection owed by an earlier run is not charged to
// this one.
func runQuery(mode datacell.Mode, sql string, chunks []*bat.Chunk, extraDDL ...string) runResult {
	eng := datacell.New(&datacell.Options{Workers: 2})
	defer eng.Close()
	for _, ddl := range extraDDL {
		if _, err := eng.Exec(ddl); err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", ddl, err))
		}
	}
	if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
		panic(err)
	}
	q, err := eng.RegisterQuery("q", sql, datacell.WithMode(mode), datacell.NoChannel())
	if err != nil {
		panic(fmt.Sprintf("experiments: register %q: %v", sql, err))
	}
	runtime.GC()
	start := time.Now()
	for _, c := range chunks {
		if err := eng.Append("s", c); err != nil {
			panic(err)
		}
	}
	eng.Drain()
	wall := time.Since(start)
	st := q.Stats()
	return runResult{Wall: wall, Evals: st.Evals, TuplesIn: st.TuplesIn, RowsOut: st.RowsOut}
}

// modeLegs is how many timed runs of each mode E1 and E2 take. The modes
// alternate leg by leg, so drift over the sweep lands on both alike.
const modeLegs = 5

// compareModes runs sql over chunks modeLegs times in each mode,
// alternating, and returns each mode's median µs per slide and the
// incremental run's evaluation count.
func compareModes(sql string, chunks []*bat.Chunk) (reUs, incUs float64, evals int64) {
	re := make([]float64, modeLegs)
	inc := make([]float64, modeLegs)
	for i := range re {
		re[i] = runQuery(datacell.ModeReeval, sql, chunks).usPerEval()
		r := runQuery(datacell.ModeIncremental, sql, chunks)
		inc[i], evals = r.usPerEval(), r.Evals
	}
	return median(re), median(inc), evals
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// E1ReevalVsIncremental sweeps the window size with a fixed size/slide
// ratio and compares the two execution modes — the demo's "Simple
// Re-evaluation vs Incremental" scenario. Expected shape: incremental wins
// and the gap grows with the window size (re-evaluation is O(W) per slide,
// incremental is O(s + merge)). Each cell is the median of modeLegs
// alternating runs.
func E1ReevalVsIncremental(sizes []int64, parts int64) *Table {
	t := &Table{
		Title: "E1: re-evaluation vs incremental, per-slide cost",
		Header: []string{"window", "slide", "reeval µs/slide", "incr µs/slide",
			"speedup", "evals"},
	}
	for _, w := range sizes {
		s := w / parts
		n := int(w * 3)
		chunks := sensorChunks(n, int(s), 16)
		sql := fmt.Sprintf(
			"SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE %d SLIDE %d] GROUP BY k", w, s)
		re, inc, evals := compareModes(sql, chunks)
		speedup := 0.0
		if inc > 0 {
			speedup = re / inc
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(w), fmt.Sprint(s),
			fmt.Sprintf("%.1f", re),
			fmt.Sprintf("%.1f", inc),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprint(evals),
		})
	}
	return t
}

// E2SlideSweep fixes the window size and sweeps the slide — the demo's
// "Window Sizes" scenario. Expected shape: the incremental advantage is
// largest for small slides (many basic windows reused) and vanishes as the
// slide approaches the window (tumbling windows, where both modes do the
// same work). Each cell is the median of modeLegs alternating runs.
func E2SlideSweep(size int64, parts []int64) *Table {
	t := &Table{
		Title: fmt.Sprintf("E2: slide sweep at window=%d", size),
		Header: []string{"slide", "w/s", "reeval µs/slide", "incr µs/slide",
			"speedup"},
	}
	for _, p := range parts {
		s := size / p
		n := int(size * 3)
		chunks := sensorChunks(n, int(s), 16)
		sql := fmt.Sprintf(
			"SELECT k, sum(v) AS s FROM s [SIZE %d SLIDE %d] GROUP BY k", size, s)
		re, inc, _ := compareModes(sql, chunks)
		speedup := 0.0
		if inc > 0 {
			speedup = re / inc
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(s), fmt.Sprint(p),
			fmt.Sprintf("%.1f", re),
			fmt.Sprintf("%.1f", inc),
			fmt.Sprintf("%.2fx", speedup),
		})
	}
	return t
}

// E3QueryComplexity compares simple select-project-aggregate plans with
// complex (join) plans under both modes — the demo's "Complex Queries"
// scenario. The join runs on two lockstep streams; its incremental form
// caches per-basic-window-pair join results.
func E3QueryComplexity(size, slide int64) *Table {
	t := &Table{
		Title:  "E3: simple vs complex (join) continuous queries",
		Header: []string{"query", "reeval µs/slide", "incr µs/slide", "speedup"},
	}
	n := int(size * 3)

	type tc struct {
		name string
		sql  string
		two  bool
	}
	// Join workloads use sparse keys (≈ one match per key pair) so probe
	// and build work — the cost the pair cache saves — dominates over
	// materializing the join output, which both modes must produce.
	cases := []tc{
		{"select-project", fmt.Sprintf(
			"SELECT k, v FROM s [SIZE %d SLIDE %d] WHERE v > 450.0", size, slide), false},
		{"grouped aggregate", fmt.Sprintf(
			"SELECT k, sum(v) AS t, min(v) AS lo, max(v) AS hi FROM s [SIZE %d SLIDE %d] GROUP BY k",
			size, slide), false},
		{"stream join", fmt.Sprintf(
			"SELECT s.v, r.v FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k",
			size, slide, size, slide), true},
		{"join + aggregate", fmt.Sprintf(
			"SELECT s.k, count(*) AS n FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k GROUP BY s.k",
			size, slide, size, slide), true},
	}
	for _, c := range cases {
		var re, inc runResult
		if c.two {
			re = runTwoStream(datacell.ModeReeval, c.sql, n, int(slide), int(size))
			inc = runTwoStream(datacell.ModeIncremental, c.sql, n, int(slide), int(size))
		} else {
			chunks := sensorChunks(n, int(slide), 64)
			re = runQuery(datacell.ModeReeval, c.sql, chunks)
			inc = runQuery(datacell.ModeIncremental, c.sql, chunks)
		}
		speedup := 0.0
		if inc.usPerEval() > 0 {
			speedup = re.usPerEval() / inc.usPerEval()
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%.1f", re.usPerEval()),
			fmt.Sprintf("%.1f", inc.usPerEval()),
			fmt.Sprintf("%.2fx", speedup),
		})
	}
	return t
}

// runTwoStream drives a two-stream query with interleaved appends.
func runTwoStream(mode datacell.Mode, sql string, n, batch, nkeys int) runResult {
	eng := datacell.New(&datacell.Options{Workers: 2})
	defer eng.Close()
	for _, ddl := range []string{
		"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)",
		"CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)",
	} {
		if _, err := eng.Exec(ddl); err != nil {
			panic(err)
		}
	}
	q, err := eng.RegisterQuery("q", sql, datacell.WithMode(mode), datacell.NoChannel())
	if err != nil {
		panic(fmt.Sprintf("experiments: register %q: %v", sql, err))
	}
	chunksS := sensorChunks(n, batch, nkeys)
	chunksR := sensorChunks(n, batch, nkeys)
	start := time.Now()
	for i := range chunksS {
		if err := eng.Append("s", chunksS[i]); err != nil {
			panic(err)
		}
		if err := eng.Append("r", chunksR[i]); err != nil {
			panic(err)
		}
	}
	eng.Drain()
	wall := time.Since(start)
	st := q.Stats()
	return runResult{Wall: wall, Evals: st.Evals, TuplesIn: st.TuplesIn, RowsOut: st.RowsOut}
}

// E4StreamTableJoin measures the "two query paradigms" scenario: a
// continuous stream query joining a persistent dimension table, swept over
// the table size. Expected shape: throughput degrades mildly with table
// size (hash build over the snapshot), and the stream-only baseline bounds
// it from above.
func E4StreamTableJoin(dimSizes []int, tuples int) *Table {
	t := &Table{
		Title:  "E4: continuous stream ⋈ persistent table",
		Header: []string{"dim rows", "mode", "ktuples/s", "µs/slide"},
	}
	const size, slide = 4096, 1024
	chunks := sensorChunks(tuples, slide, 4096)
	// The baseline groups into the same cardinality (32 groups) as the
	// join query so the aggregation work is comparable.
	base := fmt.Sprintf(
		"SELECT k %% 32 AS g, count(*) AS n FROM s [SIZE %d SLIDE %d] GROUP BY k %% 32", size, slide)
	r := runQuery(datacell.ModeIncremental, base, chunks)
	t.Rows = append(t.Rows, []string{"(none)", "stream-only",
		fmt.Sprintf("%.0f", float64(r.TuplesIn)/r.Wall.Seconds()/1e3),
		fmt.Sprintf("%.1f", r.usPerEval())})

	for _, dn := range dimSizes {
		ddl := []string{"CREATE TABLE dim (k INT, grp INT)"}
		sql := fmt.Sprintf(`SELECT d.grp, count(*) AS n
			FROM s [SIZE %d SLIDE %d] JOIN dim d ON s.k = d.k GROUP BY d.grp`,
			size, slide)
		res := runStreamTable(sql, chunks, ddl, dn)
		t.Rows = append(t.Rows, []string{fmt.Sprint(dn), "stream⋈table",
			fmt.Sprintf("%.0f", float64(res.TuplesIn)/res.Wall.Seconds()/1e3),
			fmt.Sprintf("%.1f", res.usPerEval())})
	}
	return t
}

func runStreamTable(sql string, chunks []*bat.Chunk, ddl []string, dimRows int) runResult {
	eng := datacell.New(&datacell.Options{Workers: 2})
	defer eng.Close()
	for _, d := range ddl {
		if _, err := eng.Exec(d); err != nil {
			panic(err)
		}
	}
	if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
		panic(err)
	}
	// Bulk-load the dimension table (keys cover the stream's key space).
	sch := bat.NewSchema([]string{"k", "grp"}, []bat.Kind{bat.Int, bat.Int})
	ks := make(bat.Ints, dimRows)
	gs := make(bat.Ints, dimRows)
	for i := range ks {
		ks[i] = int64(i)
		gs[i] = int64(i % 32)
	}
	dimChunk := &bat.Chunk{Schema: sch, Cols: []bat.Vector{ks, gs}}
	if err := eng.Append("dim", dimChunk); err != nil {
		panic(err)
	}
	q, err := eng.RegisterQuery("q", sql, datacell.NoChannel())
	if err != nil {
		panic(err)
	}
	start := time.Now()
	for _, c := range chunks {
		if err := eng.Append("s", c); err != nil {
			panic(err)
		}
	}
	eng.Drain()
	wall := time.Since(start)
	st := q.Stats()
	return runResult{Wall: wall, Evals: st.Evals, TuplesIn: st.TuplesIn, RowsOut: st.RowsOut}
}

// E5QueryNetwork scales the number of standing queries sharing one stream
// — the multi-query processing the paper's introduction calls out and
// Figure 3's query network visualizes. Expected shape: total work grows
// linearly with the query count while per-query cost stays flat (shared
// baskets, independent factories).
func E5QueryNetwork(counts []int, tuples int) *Table {
	t := &Table{
		Title:  "E5: scheduler scaling with standing queries",
		Header: []string{"queries", "ktuples/s (stream)", "µs/tuple/query", "total evals"},
	}
	for _, qn := range counts {
		eng := datacell.New(&datacell.Options{Workers: 4})
		if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
			panic(err)
		}
		qs := make([]*datacell.Query, qn)
		for i := 0; i < qn; i++ {
			sql := fmt.Sprintf(
				"SELECT k, count(*) AS n FROM s [SIZE 1024 SLIDE 256] GROUP BY k HAVING count(*) > %d", i%7)
			q, err := eng.RegisterQuery(fmt.Sprintf("q%03d", i), sql, datacell.NoChannel())
			if err != nil {
				panic(err)
			}
			qs[i] = q
		}
		chunks := sensorChunks(tuples, 512, 16)
		start := time.Now()
		for _, c := range chunks {
			if err := eng.Append("s", c); err != nil {
				panic(err)
			}
		}
		eng.Drain()
		wall := time.Since(start)
		var evals int64
		for _, q := range qs {
			evals += q.Stats().Evals
		}
		perTupleQuery := float64(wall.Microseconds()) / float64(tuples) / float64(qn)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(qn),
			fmt.Sprintf("%.0f", float64(tuples)/wall.Seconds()/1e3),
			fmt.Sprintf("%.3f", perTupleQuery),
			fmt.Sprint(evals),
		})
		eng.Close()
	}
	return t
}

// E6LinearRoad runs the Linear Road query set at increasing scale (the
// benchmark's L factor) and reports achieved input rate and response
// times against the ≤5 s constraint — the claim inherited from the EDBT'09
// paper.
func E6LinearRoad(xways []int, durationSec int) *Table {
	t := &Table{
		Title: "E6: Linear Road response times",
		Header: []string{"L", "reports", "wall", "krep/s", "p99 latency",
			"worst", "≤5s"},
	}
	for _, L := range xways {
		eng := datacell.New(&datacell.Options{Workers: 4})
		if _, err := eng.Exec(linearroad.CreateStreamSQL); err != nil {
			panic(err)
		}
		seg, err := eng.RegisterQuery("seg_stats", linearroad.SegmentStatsSQL())
		if err != nil {
			panic(err)
		}
		if _, err := eng.RegisterQuery("accidents", linearroad.AccidentSQL(),
			datacell.NoChannel()); err != nil {
			panic(err)
		}
		cfg := linearroad.Config{
			Xways: L, CarsPerXway: 500, DurationSec: durationSec,
			ReportEverySec: 30, AccidentProb: 0.005, Seed: int64(L),
		}
		chunks := linearroad.Generate(cfg)
		var reports int64
		start := time.Now()
		for _, c := range chunks {
			if err := eng.Append("lr_pos", c); err != nil {
				panic(err)
			}
			reports += int64(c.Rows())
		}
		eng.Drain()
		eng.AdvanceTime(int64(durationSec+300) * 1_000_000)
		eng.Drain()
		wall := time.Since(start)

		var lat []int64
	drain:
		for {
			select {
			case r := <-seg.Out():
				lat = append(lat, r.Meta.LatencyUsec)
			default:
				break drain
			}
		}
		ok, worst := linearroad.CheckResponse(lat)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(L), fmt.Sprint(reports), wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(reports)/wall.Seconds()/1e3),
			fmt.Sprintf("%dµs", monitor.Percentile(lat, 99)),
			fmt.Sprintf("%dµs", worst),
			fmt.Sprint(ok),
		})
		eng.Close()
	}
	return t
}

// E7Analysis reproduces the demo's analysis pane (Figure 4): it runs a
// monitored workload, samples the network periodically, and renders the
// per-interval input rates, evaluation rates and latencies.
func E7Analysis(tuples, intervals int) (*Table, string) {
	eng := datacell.New(&datacell.Options{Workers: 2})
	defer eng.Close()
	if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
		panic(err)
	}
	q, err := eng.RegisterQuery("watch",
		"SELECT k, avg(v) AS m FROM s [SIZE 2048 SLIDE 512] GROUP BY k",
		datacell.NoChannel())
	if err != nil {
		panic(err)
	}
	col := monitor.NewCollector(func() ([]basket.Stats, []factory.Stats) {
		st := eng.Stats()
		return st.Baskets, st.Queries
	})
	chunks := sensorChunks(tuples, 512, 16)
	per := len(chunks) / intervals
	if per == 0 {
		per = 1
	}
	start := time.Now()
	col.Sample(0)
	for i, c := range chunks {
		if err := eng.Append("s", c); err != nil {
			panic(err)
		}
		if (i+1)%per == 0 {
			eng.Drain()
			col.Sample(time.Since(start).Microseconds())
		}
	}
	eng.Drain()
	col.Sample(time.Since(start).Microseconds())

	t := &Table{
		Title:  "E7: analysis pane — per-interval rates for query 'watch'",
		Header: []string{"t (s)", "in tup/s", "evals/s", "avg latency µs"},
	}
	for _, r := range col.QueryRates("watch") {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", float64(r.ToUsec)/1e6),
			fmt.Sprintf("%.0f", r.TuplesInSec),
			fmt.Sprintf("%.1f", r.EvalsSec),
			fmt.Sprintf("%.1f", r.AvgLatency),
		})
	}
	_ = q
	return t, col.AnalysisString()
}
