// Command dcbench regenerates the paper's experiments (DESIGN.md §5,
// E1–E7) and prints one table per experiment — the reproduction harness
// behind EXPERIMENTS.md. It doubles as the CI benchmark harness: -bench
// runs the sharded-ingest, query-group-fanout and shared-sub-tail scaling
// benchmarks (filter with -bench-match), emits a BENCH_N.json report for
// the bench trajectory, compares against a previous report (report-only,
// or as a ±tolerance regression gate with -gate), and asserts the scaling
// floors CI tracks.
//
// Usage:
//
//	dcbench                 # run every experiment at default scale
//	dcbench -exp e1,e3      # selected experiments
//	dcbench -quick          # small inputs (CI-sized)
//	dcbench -bench -bench-out BENCH_3.json [-bench-match 'shared_subtail'] [-assert-floors]
//	dcbench -compare BENCH_2.json -against BENCH_3.json [-gate] [-tol 0.10]
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"

	"datacell/internal/experiments"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiments: e1..e7 or all")
	quick := flag.Bool("quick", false, "reduced input sizes")
	bench := flag.Bool("bench", false, "run the CI scaling benchmarks instead of the experiments")
	benchOut := flag.String("bench-out", "", "with -bench: write the JSON report to this file")
	benchMatch := flag.String("bench-match", "",
		"with -bench: regexp selecting benchmark configurations by name (default all)")
	assertShards := flag.Bool("assert-shard-scaling", false,
		"with -bench: fail if 4-shard ingest is >10% slower than 1-shard (multi-core hosts only)")
	assertFloors := flag.Bool("assert-floors", false,
		"with -bench: assert the tracked scaling floors (shard4_vs_shard1 ≥ 0.9, fabric_direct_vs_local ≥ 1.0 and joinshared16_vs_isolated16 ≥ 1.5 on multi-core, grouped16_vs_isolated16 ≥ 1.5, memo16_vs_nomemo16 ≥ 1.5, sharedmerge16_vs_nosharedmerge16 ≥ 1.5, plancache_ratio ≥ 2.0, codec_delta_ratio and codec_dict_ratio ≥ 2.0)")
	compare := flag.String("compare", "", "previous BENCH_*.json to compare -against")
	against := flag.String("against", "", "current BENCH_*.json for -compare")
	history := flag.String("history", "",
		"render the bench trajectory in this directory of BENCH json points as markdown (floor breaches highlighted)")
	gate := flag.Bool("gate", false,
		"with -compare: fail if a tracked derived ratio regressed beyond the tolerance band")
	tol := flag.Float64("tol", 0.10, "with -gate: relative tolerance band")
	flag.Parse()

	if *history != "" {
		points, skipped, err := experiments.ReadBenchHistory(*history)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(experiments.HistoryMarkdown(points, skipped))
		return
	}

	if *compare != "" {
		prev, err := experiments.ReadBenchReport(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cur, err := experiments.ReadBenchReport(*against)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(experiments.CompareBenchReports(prev, cur))
		if *gate {
			report, ok := experiments.GateBenchReports(prev, cur, *tol)
			fmt.Println(report)
			if !ok {
				fmt.Fprintln(os.Stderr, "FAIL: bench regression gate")
				os.Exit(1)
			}
		}
		return
	}

	if *bench {
		if _, err := regexp.Compile(*benchMatch); err != nil {
			fmt.Fprintf(os.Stderr, "bad -bench-match: %v\n", err)
			os.Exit(1)
		}
		rep := experiments.CIBench(*quick, *benchMatch)
		fmt.Println(rep)
		if *benchOut != "" {
			if err := rep.WriteJSON(*benchOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *benchOut)
		}
		fail := false
		assertFloor := func(key string, floor float64, multiCoreOnly bool) {
			ratio, ok := rep.Derived[key]
			switch {
			case !ok:
				fmt.Printf("floor %s skipped: not measured this run\n", key)
			case multiCoreOnly && runtime.NumCPU() < 4:
				fmt.Printf("floor %s skipped: %d CPU(s); measured %.2fx\n",
					key, runtime.NumCPU(), ratio)
			case ratio < floor:
				fmt.Fprintf(os.Stderr, "FAIL: %s = %.2fx (floor %.2fx) on %d CPUs\n",
					key, ratio, floor, runtime.NumCPU())
				fail = true
			default:
				fmt.Printf("floor %s passed: %.2fx (floor %.2fx)\n", key, ratio, floor)
			}
		}
		if *assertShards || *assertFloors {
			assertFloor("shard4_vs_shard1", 0.9, true)
		}
		if *assertFloors {
			assertFloor("grouped16_vs_isolated16", 1.5, false)
			assertFloor("memo16_vs_nomemo16", 1.5, false)
			assertFloor("sharedmerge16_vs_nosharedmerge16", 1.5, false)
			// The join-tail win is CPU saved in the merge and tail stages;
			// on a 1-core container scheduler contention between the 16
			// isolated twins can mask it, so the floor gates only where
			// cores allow the baseline to actually run wide.
			assertFloor("joinshared16_vs_isolated16", 1.5, true)
			// The direct-receptor fabric must at least match local
			// throughput when cores allow real parallelism; on a 1-core
			// container the loopback fabric and the engine fight for the
			// same CPU, so the floor is skipped (report-only) there.
			assertFloor("fabric_direct_vs_local", 1.0, true)
			// The plan cache is a single-core win — fewer compiles — so
			// its floor holds on every machine class, 1-core CI containers
			// included.
			assertFloor("plancache_ratio", 2.0, false)
			// The codec ratios are deterministic byte counts — no machine
			// class caveat.
			assertFloor("codec_delta_ratio", 2.0, false)
			assertFloor("codec_dict_ratio", 2.0, false)
		}
		if fail {
			os.Exit(1)
		}
		return
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	run := func(name string) bool { return all || want[name] }
	any := false

	if run("e1") {
		any = true
		sizes := []int64{1024, 4096, 16384, 65536}
		if *quick {
			sizes = []int64{1024, 4096}
		}
		fmt.Println(experiments.E1ReevalVsIncremental(sizes, 8))
	}
	if run("e2") {
		any = true
		size := int64(32768)
		parts := []int64{64, 16, 4, 2, 1}
		if *quick {
			size, parts = 4096, []int64{16, 4, 1}
		}
		fmt.Println(experiments.E2SlideSweep(size, parts))
	}
	if run("e3") {
		any = true
		size, slide := int64(8192), int64(1024)
		if *quick {
			size, slide = 1024, 256
		}
		fmt.Println(experiments.E3QueryComplexity(size, slide))
	}
	if run("e4") {
		any = true
		dims := []int{1000, 10000, 100000, 1000000}
		tuples := 1 << 17
		if *quick {
			dims, tuples = []int{1000, 10000}, 1<<14
		}
		fmt.Println(experiments.E4StreamTableJoin(dims, tuples))
	}
	if run("e5") {
		any = true
		counts := []int{1, 4, 16, 64, 256}
		tuples := 1 << 16
		if *quick {
			counts, tuples = []int{1, 4, 16}, 1<<13
		}
		fmt.Println(experiments.E5QueryNetwork(counts, tuples))
	}
	if run("e6") {
		any = true
		xways := []int{1, 2, 4}
		dur := 600
		if *quick {
			xways, dur = []int{1}, 300
		}
		fmt.Println(experiments.E6LinearRoad(xways, dur))
	}
	if run("e7") {
		any = true
		tuples, intervals := 1<<17, 8
		if *quick {
			tuples, intervals = 1<<14, 4
		}
		table, analysis := experiments.E7Analysis(tuples, intervals)
		fmt.Println(table)
		fmt.Println("full analysis pane:")
		fmt.Println(analysis)
	}
	if !any {
		fmt.Fprintf(os.Stderr, "no such experiment %q (want e1..e7 or all)\n", *expFlag)
		os.Exit(1)
	}
}
