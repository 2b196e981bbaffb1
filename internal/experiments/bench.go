package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"datacell"
)

// BenchResult is one measured benchmark configuration — the JSON unit of
// the CI bench trajectory (BENCH_N.json artifacts).
type BenchResult struct {
	Name         string  `json:"name"`
	Tuples       int     `json:"tuples"`
	WallSec      float64 `json:"wall_sec"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
}

// BenchReport is the dcbench -bench output: the environment, every
// configuration's throughput, and the derived headline ratios.
type BenchReport struct {
	SchemaVersion int                `json:"schema_version"`
	NumCPU        int                `json:"num_cpu"`
	GoMaxProcs    int                `json:"gomaxprocs"`
	Quick         bool               `json:"quick"`
	Results       []BenchResult      `json:"results"`
	Derived       map[string]float64 `json:"derived"`
}

// ShardedIngestFire measures the PR-1 scaling benchmark outside the
// testing harness: parallel producers feeding a filtered grouped
// sliding-window aggregate through an n-tuple stream with the given shard
// count. It mirrors BenchmarkShardedIngestFire in bench_test.go.
func ShardedIngestFire(shards, producers, n, batch, nkeys int) BenchResult {
	ddl := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"
	if shards > 1 {
		ddl += fmt.Sprintf(" SHARD %d KEY k", shards)
	}
	sql := "SELECT k, sum(v) AS s, count(*) AS c FROM s [SIZE 16384 SLIDE 4096] WHERE v > 50.0 GROUP BY k"
	perProd := sensorChunks(n/producers, batch, nkeys)

	eng := datacell.New(&datacell.Options{Workers: 4})
	defer eng.Close()
	if _, err := eng.Exec(ddl); err != nil {
		panic(err)
	}
	if _, err := eng.RegisterQuery("q", sql,
		datacell.WithMode(datacell.ModeIncremental), datacell.NoChannel()); err != nil {
		panic(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range perProd {
				_ = eng.Append("s", c)
			}
		}()
	}
	wg.Wait()
	eng.Drain()
	wall := time.Since(start)
	return BenchResult{
		Name:         fmt.Sprintf("sharded_ingest_fire/shards_%d", shards),
		Tuples:       n,
		WallSec:      wall.Seconds(),
		TuplesPerSec: float64(n) / wall.Seconds(),
	}
}

// QueryGroupFanout measures the PR-2 scaling benchmark: Q alert-style
// standing queries (selective filter + count, per-query thresholds) over
// one stream, grouped (one shared drain/slice/merge, per-query tails) or
// isolated (every query its own cursors and slicers). It mirrors
// BenchmarkQueryGroupFanout in bench_test.go.
func QueryGroupFanout(queries int, isolated bool, n, batch, nkeys int) BenchResult {
	chunks := sensorChunks(n, batch, nkeys)
	eng := datacell.New(&datacell.Options{Workers: 4})
	defer eng.Close()
	if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
		panic(err)
	}
	for j := 0; j < queries; j++ {
		sql := fmt.Sprintf(
			"SELECT count(*) AS n FROM s [SIZE 8192 SLIDE 2048] WHERE v > %d.0", 400+(j%8)*12)
		opts := []datacell.RegisterOption{datacell.WithMode(datacell.ModeIncremental), datacell.NoChannel()}
		if isolated {
			opts = append(opts, datacell.Isolated())
		}
		if _, err := eng.RegisterQuery(fmt.Sprintf("q%02d", j), sql, opts...); err != nil {
			panic(err)
		}
	}
	start := time.Now()
	for _, c := range chunks {
		_ = eng.Append("s", c)
	}
	eng.Drain()
	wall := time.Since(start)
	label := "grouped"
	if isolated {
		label = "isolated"
	}
	return BenchResult{
		Name:         fmt.Sprintf("query_group_fanout/%s/q_%d", label, queries),
		Tuples:       n,
		WallSec:      wall.Seconds(),
		TuplesPerSec: float64(n) / wall.Seconds(),
	}
}

// SharedSubtail measures the PR-3 shared-operator-DAG benchmark: Q
// standing queries over one stream sharing a heavy common prefix — a
// selective filter plus a grouped partial aggregate — and diverging only
// in their post-merge HAVING thresholds. With the memo (the default) the
// group evaluates the prefix once per sealed basic window; with noMemo
// every member evaluates it privately, which is exactly the PR-2 grouped
// baseline. It mirrors BenchmarkSharedSubtail in bench_test.go.
func SharedSubtail(queries int, noMemo bool, n, batch, nkeys int) BenchResult {
	chunks := sensorChunks(n, batch, nkeys)
	eng := datacell.New(&datacell.Options{Workers: 4})
	defer eng.Close()
	if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
		panic(err)
	}
	for j := 0; j < queries; j++ {
		sql := fmt.Sprintf(
			"SELECT k, sum(v) AS s, count(*) AS c FROM s [SIZE 8192 SLIDE 2048] WHERE v > 100.0 GROUP BY k HAVING count(*) > %d", j%7)
		opts := []datacell.RegisterOption{datacell.WithMode(datacell.ModeIncremental), datacell.NoChannel()}
		if noMemo {
			opts = append(opts, datacell.NoMemo())
		}
		if _, err := eng.RegisterQuery(fmt.Sprintf("q%02d", j), sql, opts...); err != nil {
			panic(err)
		}
	}
	start := time.Now()
	for _, c := range chunks {
		_ = eng.Append("s", c)
	}
	eng.Drain()
	wall := time.Since(start)
	label := "memo"
	if noMemo {
		label = "nomemo"
	}
	return BenchResult{
		Name:         fmt.Sprintf("shared_subtail/%s/q_%d", label, queries),
		Tuples:       n,
		WallSec:      wall.Seconds(),
		TuplesPerSec: float64(n) / wall.Seconds(),
	}
}

// SharedMerge measures the PR-4 shared-merge benchmark: Q IDENTICAL
// sliding-window queries — same filter, same grouped partial aggregate,
// same HAVING — forming one merge class. With the shared merge (the
// default) the group evaluates the full-window merge and the post-merge
// HAVING fragment once per sealed window for the whole class; with
// noSharedMerge each member re-merges its own ring of shared partials,
// which is exactly the PR-3 grouped baseline. It mirrors
// BenchmarkSharedMerge16 in bench_test.go.
func SharedMerge(queries int, noSharedMerge bool, n, batch, nkeys int) BenchResult {
	chunks := sensorChunks(n, batch, nkeys)
	eng := datacell.New(&datacell.Options{Workers: 4})
	defer eng.Close()
	if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
		panic(err)
	}
	sql := "SELECT k, sum(v) AS s, count(*) AS c FROM s [SIZE 16384 SLIDE 2048] WHERE v > 50.0 GROUP BY k HAVING count(*) > 2"
	for j := 0; j < queries; j++ {
		opts := []datacell.RegisterOption{datacell.WithMode(datacell.ModeIncremental), datacell.NoChannel()}
		if noSharedMerge {
			opts = append(opts, datacell.NoSharedMerge())
		}
		if _, err := eng.RegisterQuery(fmt.Sprintf("q%02d", j), sql, opts...); err != nil {
			panic(err)
		}
	}
	start := time.Now()
	for _, c := range chunks {
		_ = eng.Append("s", c)
	}
	eng.Drain()
	wall := time.Since(start)
	label := "sharedmerge"
	if noSharedMerge {
		label = "nosharedmerge"
	}
	return BenchResult{
		Name:         fmt.Sprintf("shared_merge/%s/q_%d", label, queries),
		Tuples:       n,
		WallSec:      wall.Seconds(),
		TuplesPerSec: float64(n) / wall.Seconds(),
	}
}

// JoinShared measures the PR-9 join-tail-sharing benchmark: Q IDENTICAL
// grouped sliding-window joins — same predicate, same grouped aggregate,
// same HAVING — over two streams. Shared (the default) all Q members
// join one group: one pair cache computes each (left, right) window pair
// once and the post-merge trie evaluates the grouped tail once for the
// whole merge class. Isolated every member owns a private join group, so
// the pair merge and the tail run Q times per sealed window. It mirrors
// BenchmarkJoinShared16 in bench_test.go.
func JoinShared(queries int, isolated bool, n, batch, nkeys int) BenchResult {
	sChunks := sensorChunks(n, batch, nkeys)
	rChunks := sensorChunks(n, batch, nkeys)
	eng := datacell.New(&datacell.Options{Workers: 4})
	defer eng.Close()
	for _, ddl := range []string{
		"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)",
		"CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)",
	} {
		if _, err := eng.Exec(ddl); err != nil {
			panic(err)
		}
	}
	sql := "SELECT s.k, count(*) AS c, sum(s.v) AS sv FROM s [SIZE 4096 SLIDE 1024], r [SIZE 4096 SLIDE 1024] WHERE s.k = r.k GROUP BY s.k HAVING count(*) > 2"
	for j := 0; j < queries; j++ {
		opts := []datacell.RegisterOption{datacell.WithMode(datacell.ModeIncremental), datacell.NoChannel()}
		if isolated {
			opts = append(opts, datacell.Isolated())
		}
		if _, err := eng.RegisterQuery(fmt.Sprintf("q%02d", j), sql, opts...); err != nil {
			panic(err)
		}
	}
	start := time.Now()
	for i := range sChunks {
		_ = eng.Append("s", sChunks[i])
		_ = eng.Append("r", rChunks[i])
	}
	eng.Drain()
	wall := time.Since(start)
	label := "shared"
	if isolated {
		label = "isolated"
	}
	return BenchResult{
		Name:         fmt.Sprintf("join_shared/%s/q_%d", label, queries),
		Tuples:       2 * n,
		WallSec:      wall.Seconds(),
		TuplesPerSec: float64(2*n) / wall.Seconds(),
	}
}

// PlanCacheBench measures the PR-10 registration-storm benchmark: regs
// shared-group registrations on one stream, timed over the registration
// loop only (no data flows). Warm registers the identical SQL text every
// time — past the first compile each registration is a plan-cache hit
// that skips parse, bind, optimize and decompose and goes straight to
// wiring. Cold gives every registration a distinct threshold, so each
// compile runs in full — the pre-cache behaviour. Separate engines per
// run keep cache states independent. Tuples counts registrations, so
// TuplesPerSec is registrations per second. It mirrors
// BenchmarkPlanCache in bench_test.go.
func PlanCacheBench(warm bool, regs int) BenchResult {
	eng := datacell.New(&datacell.Options{Workers: 1})
	defer eng.Close()
	if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
		panic(err)
	}
	start := time.Now()
	for j := 0; j < regs; j++ {
		thr := 100
		if !warm {
			thr = 100 + j
		}
		sql := fmt.Sprintf(
			"SELECT k, sum(v) AS s, count(*) AS c FROM s [SIZE 8192 SLIDE 2048] WHERE v > %d.0 GROUP BY k HAVING count(*) > 2", thr)
		if _, err := eng.RegisterQuery(fmt.Sprintf("q%04d", j), sql,
			datacell.WithMode(datacell.ModeIncremental), datacell.NoChannel()); err != nil {
			panic(err)
		}
	}
	wall := time.Since(start)
	label := "cold"
	if warm {
		label = "warm"
	}
	return BenchResult{
		Name:         fmt.Sprintf("plan_cache/%s/q_%d", label, regs),
		Tuples:       regs,
		WallSec:      wall.Seconds(),
		TuplesPerSec: float64(regs) / wall.Seconds(),
	}
}

// CIBench runs the CI benchmark suite — sharded ingest at 1 and 4 shards,
// query-group fan-out at Q ∈ {1,4,16} grouped and isolated, and the
// shared-sub-tail memo ablation at Q=16 — and derives the headline ratios
// the bench trajectory tracks:
//
//	shard4_vs_shard1:        4-shard ingest throughput / 1-shard (≥0.9
//	                         asserted on multi-core CI runners)
//	grouped16_vs_isolated16: shared-group throughput at Q=16 / isolated
//	                         baseline (floor 1.5; target ≥3 multi-core)
//	memo16_vs_nomemo16:      shared-sub-tail throughput at Q=16 with the
//	                         operator DAG / without (floor 1.5)
//	sharedmerge16_vs_nosharedmerge16: 16 identical members with the
//	                         group-owned merge ring + post-merge trie /
//	                         without (per-member merges; floor 1.5)
//	joinshared16_vs_isolated16: 16 identical grouped two-stream joins in
//	                         one join group (shared pair cache + join
//	                         merge class + post-merge trie) / 16 isolated
//	                         twins each owning a private join group.
//	                         Floored ≥1.5× on multi-core runners,
//	                         report-only on 1-core containers.
//	fabric_direct_vs_local:  16 grouped queries over a 4-shard stream run
//	                         through the shard fabric (coordinator + 2
//	                         loopback workers, one link each carrying
//	                         batched delta/dict wire frames) / entirely
//	                         in-process. Floored ≥1× on multi-core
//	                         runners, report-only on 1-core containers.
//	plancache_ratio:         512 shared-group registrations of identical
//	                         SQL text (warm: plan-cache hits skip parse/
//	                         bind/optimize/decompose) / 512 with distinct
//	                         thresholds (cold: every compile in full).
//	                         Floored ≥2× on every machine class.
//	codec_delta_ratio / codec_dict_ratio: deterministic bytes-per-row
//	                         reduction of the v2 chunk codec on linearroad-
//	                         shaped columns (monotone ints; low-cardinality
//	                         strings). Floored at 2× everywhere.
//	snapshot_overhead:       the same fabric workload with workers taking
//	                         periodic consistent snapshots / without.
//	                         Tracked report-only; expected near 1.0× (the
//	                         checkpoint copies state off the sealing path).
//	multitenant_queries_per_core / multitenant_p99_seal_usec /
//	multitenant_register_per_sec: the
//	                         multi-tenant standing-query harness (10⁴
//	                         templated queries across 16 tenants; 1024
//	                         across 8 in quick mode) — registered queries
//	                         per scheduler core, the p99 window-seal
//	                         latency, and the registration-storm rate
//	                         (plan-cache warm path: few distinct texts
//	                         across 10⁴ registrations). Report-only
//	                         capacity metrics; they feed no floor or gate.
//
// match, when non-empty, is a regular expression selecting the benchmark
// configurations to run by name; derived ratios whose inputs were skipped
// are omitted.
func CIBench(quick bool, match string) *BenchReport {
	var matchRe *regexp.Regexp
	if match != "" {
		matchRe = regexp.MustCompile(match)
	}
	want := func(name string) bool {
		return matchRe == nil || matchRe.MatchString(name)
	}
	n, batch, nkeys := 1<<17, 2048, 512
	fanN := 1 << 16
	subN := 1 << 16
	if quick {
		// The sub-tail pair stays at full size: it is cheap (tens of ms)
		// and feeds a floor assertion, so the extra windows buy stability.
		n, fanN = 1<<16, 1<<15
	}
	rep := &BenchReport{
		SchemaVersion: 1,
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Quick:         quick,
		Derived:       map[string]float64{},
	}
	byName := map[string]BenchResult{}
	add := func(r BenchResult) {
		rep.Results = append(rep.Results, r)
		byName[r.Name] = r
	}
	// Configurations that feed CI gates (-assert-floors, the ±tol band)
	// take the best of n samples: a single run on a shared runner is too
	// noisy to fail a build on.
	bestOf := func(n int, run func() BenchResult) BenchResult {
		best := run()
		for i := 1; i < n; i++ {
			if r := run(); r.TuplesPerSec > best.TuplesPerSec {
				best = r
			}
		}
		return best
	}
	for _, shards := range []int{1, 4} {
		shards := shards
		if !want(fmt.Sprintf("sharded_ingest_fire/shards_%d", shards)) {
			continue
		}
		add(bestOf(3, func() BenchResult { return ShardedIngestFire(shards, 4, n, batch, nkeys) }))
	}
	for _, q := range []int{1, 4, 16} {
		for _, isolated := range []bool{false, true} {
			label := "grouped"
			if isolated {
				label = "isolated"
			}
			if want(fmt.Sprintf("query_group_fanout/%s/q_%d", label, q)) {
				add(QueryGroupFanout(q, isolated, fanN, batch, 256))
			}
		}
	}
	for _, noMemo := range []bool{false, true} {
		label := "memo"
		if noMemo {
			label = "nomemo"
		}
		name := fmt.Sprintf("shared_subtail/%s/q_16", label)
		if !want(name) {
			continue
		}
		// Few groups: the shared prefix (filter + per-window aggregation)
		// dominates and the per-member merge stays cheap — the workload
		// shape the memo is for.
		noMemo := noMemo
		add(bestOf(2, func() BenchResult { return SharedSubtail(16, noMemo, subN, batch, 16) }))
	}
	for _, noSharedMerge := range []bool{false, true} {
		label := "sharedmerge"
		if noSharedMerge {
			label = "nosharedmerge"
		}
		name := fmt.Sprintf("shared_merge/%s/q_16", label)
		if !want(name) {
			continue
		}
		// Many grouping keys make the merge stage heavy — the workload
		// shape the group-owned merge ring is for.
		noSharedMerge := noSharedMerge
		add(bestOf(2, func() BenchResult { return SharedMerge(16, noSharedMerge, subN, batch, 2048) }))
	}
	for _, isolated := range []bool{false, true} {
		label := "shared"
		if isolated {
			label = "isolated"
		}
		name := fmt.Sprintf("join_shared/%s/q_16", label)
		if !want(name) {
			continue
		}
		// Moderate key cardinality keeps each sealed (left, right) window
		// pair productive, so the per-member pair merges and grouped tails
		// the isolated baseline repeats 16× dominate its runtime — the
		// workload shape the shared pair cache and join merge class are
		// for. The pair stays at full size in quick mode: it feeds a floor
		// and a run is tens of windows either way.
		isolated := isolated
		add(bestOf(2, func() BenchResult { return JoinShared(16, isolated, 1<<14, batch, 256) }))
	}
	for _, warm := range []bool{true, false} {
		label := "cold"
		if warm {
			label = "warm"
		}
		name := fmt.Sprintf("plan_cache/%s/q_%d", label, 512)
		if !want(name) {
			continue
		}
		warm := warm
		add(bestOf(3, func() BenchResult { return PlanCacheBench(warm, 512) }))
	}
	for _, cfg := range []struct {
		workers int
		snap    bool
	}{{0, false}, {2, false}, {2, true}} {
		label := "local"
		if cfg.workers > 0 {
			label = fmt.Sprintf("fabric%d", cfg.workers)
			if cfg.snap {
				label += "snap"
			}
		}
		name := fmt.Sprintf("fabric_fanout/%s/q_16", label)
		if !want(name) {
			continue
		}
		// fabric2 runs the batched-wire path and feeds
		// fabric_direct_vs_local — floored ≥1× on multi-core runners,
		// report-only on 1-core containers where the loopback fabric
		// shares the local engine's only CPU. fabric2snap feeds the
		// report-only snapshot_overhead, the periodic-checkpoint cost.
		cfg := cfg
		run := func() BenchResult { return FabricFanout(16, cfg.workers, fanN, batch, 256) }
		if cfg.snap {
			run = func() BenchResult { return FabricFanoutSnap(16, cfg.workers, fanN, batch, 256) }
		}
		add(bestOf(2, run))
	}
	mtTenants, mtQueries := 16, 10000
	if quick {
		mtTenants, mtQueries = 8, 1024
	}
	if mtName := fmt.Sprintf("multitenant/t_%d/q_%d", mtTenants, mtQueries); want(mtName) {
		mt := MultiTenant(mtTenants, mtQueries, 1<<14, 2048)
		add(mt.Result)
		rep.Derived["multitenant_queries_per_core"] = mt.QueriesPerCore
		rep.Derived["multitenant_p99_seal_usec"] = mt.P99SealUsec
		rep.Derived["multitenant_register_per_sec"] = mt.RegisterPerSec
	}
	ratio := func(key, num, den string) {
		d, okD := byName[den]
		n, okN := byName[num]
		if !okD || !okN || d.TuplesPerSec == 0 {
			return
		}
		rep.Derived[key] = n.TuplesPerSec / d.TuplesPerSec
	}
	ratio("shard4_vs_shard1",
		"sharded_ingest_fire/shards_4", "sharded_ingest_fire/shards_1")
	ratio("grouped16_vs_isolated16",
		"query_group_fanout/grouped/q_16", "query_group_fanout/isolated/q_16")
	ratio("grouped4_vs_isolated4",
		"query_group_fanout/grouped/q_4", "query_group_fanout/isolated/q_4")
	ratio("memo16_vs_nomemo16",
		"shared_subtail/memo/q_16", "shared_subtail/nomemo/q_16")
	ratio("sharedmerge16_vs_nosharedmerge16",
		"shared_merge/sharedmerge/q_16", "shared_merge/nosharedmerge/q_16")
	ratio("joinshared16_vs_isolated16",
		"join_shared/shared/q_16", "join_shared/isolated/q_16")
	ratio("plancache_ratio",
		"plan_cache/warm/q_512", "plan_cache/cold/q_512")
	ratio("fabric_direct_vs_local",
		"fabric_fanout/fabric2/q_16", "fabric_fanout/local/q_16")
	ratio("snapshot_overhead",
		"fabric_fanout/fabric2snap/q_16", "fabric_fanout/fabric2/q_16")
	if want("codec_ratios") {
		// Deterministic bytes-per-row reductions of the v2 wire codec on
		// linearroad-shaped columns; floored at 2× on every machine class.
		for k, v := range CodecRatios(4096) {
			rep.Derived[k] = v
		}
	}
	return rep
}

// String renders the report as an aligned table with the derived ratios.
func (r *BenchReport) String() string {
	t := &Table{
		Title:  fmt.Sprintf("CI bench (cpus=%d quick=%v)", r.NumCPU, r.Quick),
		Header: []string{"benchmark", "tuples", "wall", "ktuples/s"},
	}
	for _, res := range r.Results {
		t.Rows = append(t.Rows, []string{
			res.Name, fmt.Sprint(res.Tuples),
			fmt.Sprintf("%.3fs", res.WallSec),
			fmt.Sprintf("%.0f", res.TuplesPerSec/1e3),
		})
	}
	var b strings.Builder
	b.WriteString(t.String())
	keys := make([]string, 0, len(r.Derived))
	for k := range r.Derived {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "derived %-26s = %.2fx\n", k, r.Derived[k])
	}
	return b.String()
}

// WriteJSON writes the report to path.
func (r *BenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchReport loads a BENCH_*.json report.
func ReadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &BenchReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// trackedDerived are the headline ratios the regression gate protects:
// machine-relative, so comparable across runner generations (absolute
// tuples/s are not).
var trackedDerived = []string{"shard4_vs_shard1", "grouped16_vs_isolated16",
	"memo16_vs_nomemo16", "sharedmerge16_vs_nosharedmerge16",
	"joinshared16_vs_isolated16", "plancache_ratio",
	"codec_delta_ratio", "codec_dict_ratio"}

// GateBenchReports is the regression gate over the bench trajectory: the
// tracked derived ratios of the current report must stay within the
// tolerance band of the previous report's (a ratio dropping more than tol
// fails; rises and new metrics never do). It gates on derived ratios
// rather than raw throughput because BENCH_*.json points come from
// different machines — a committed dev-container seed vs a CI runner —
// where absolute tuples/s differ wildly. The ratios themselves still
// shift with core count (parallel baselines speed up), so when the two
// reports disagree on NumCPU the gate degrades to report-only: the
// ±tol band is only meaningful within one machine class. ok reports
// whether the gate passed; the string explains per metric.
func GateBenchReports(prev, cur *BenchReport, tol float64) (string, bool) {
	var b strings.Builder
	ok := true
	enforced := prev.NumCPU == cur.NumCPU
	fmt.Fprintf(&b, "bench gate (tolerance ±%.0f%%):\n", tol*100)
	if !enforced {
		fmt.Fprintf(&b, "  report-only: machine class changed (prev %d CPUs, cur %d) — ratios are not comparable within ±%.0f%%\n",
			prev.NumCPU, cur.NumCPU, tol*100)
	}
	for _, key := range trackedDerived {
		p, havePrev := prev.Derived[key]
		c, haveCur := cur.Derived[key]
		switch {
		case !havePrev && !haveCur:
			continue
		case !havePrev:
			fmt.Fprintf(&b, "  %-26s new        = %.2fx\n", key, c)
		case !haveCur:
			fmt.Fprintf(&b, "  %-26s MISSING    (prev %.2fx)\n", key, p)
			ok = ok && !enforced
		case p <= 0:
			fmt.Fprintf(&b, "  %-26s prev empty (cur %.2fx)\n", key, c)
		case c < p*(1-tol):
			fmt.Fprintf(&b, "  %-26s REGRESSED  %.2fx -> %.2fx (floor %.2fx)\n",
				key, p, c, p*(1-tol))
			ok = ok && !enforced
		default:
			fmt.Fprintf(&b, "  %-26s ok         %.2fx -> %.2fx\n", key, p, c)
		}
	}
	return strings.TrimRight(b.String(), "\n"), ok
}

// CompareBenchReports renders a previous-vs-current comparison table —
// the report-only trajectory step of the CI bench job. Ratios above 1
// mean the current run is faster.
func CompareBenchReports(prev, cur *BenchReport) string {
	t := &Table{
		Title:  "bench trajectory: current vs previous",
		Header: []string{"benchmark", "prev ktuples/s", "cur ktuples/s", "ratio"},
	}
	prevBy := map[string]BenchResult{}
	for _, r := range prev.Results {
		prevBy[r.Name] = r
	}
	for _, r := range cur.Results {
		p, ok := prevBy[r.Name]
		if !ok {
			t.Rows = append(t.Rows, []string{r.Name, "(new)",
				fmt.Sprintf("%.0f", r.TuplesPerSec/1e3), "-"})
			continue
		}
		ratio := 0.0
		if p.TuplesPerSec > 0 {
			ratio = r.TuplesPerSec / p.TuplesPerSec
		}
		t.Rows = append(t.Rows, []string{r.Name,
			fmt.Sprintf("%.0f", p.TuplesPerSec/1e3),
			fmt.Sprintf("%.0f", r.TuplesPerSec/1e3),
			fmt.Sprintf("%.2fx", ratio)})
	}
	return t.String()
}
