package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The bench-history satellite: the scheduled CI job downloads every
// per-SHA bench artifact (plus the committed BENCH_N.json seeds), drops
// them in one directory, and dcbench -history renders the trajectory —
// each tracked derived ratio per point, floor breaches highlighted — as a
// markdown table for the job summary.

// historyFloor describes one tracked ratio's gate floor for highlighting.
type historyFloor struct {
	key           string
	floor         float64
	multiCoreOnly bool // floor applies only on multi-core machines
}

// historyFloors mirrors dcbench -assert-floors (see docs/BENCHMARKS.md).
// snapshot_overhead is tracked report-only and so carries no floor.
var historyFloors = []historyFloor{
	{"shard4_vs_shard1", 0.9, true},
	{"grouped16_vs_isolated16", 1.5, false},
	{"memo16_vs_nomemo16", 1.5, false},
	{"sharedmerge16_vs_nosharedmerge16", 1.5, false},
	{"fabric_direct_vs_local", 1.0, true},
	{"snapshot_overhead", 0, false},
	{"codec_delta_ratio", 2.0, false},
	{"codec_dict_ratio", 2.0, false},
}

// HistoryPoint is one trajectory entry: a BENCH report plus its label
// (file name, conventionally <sortkey>_<sha>.json).
type HistoryPoint struct {
	Label  string
	Report *BenchReport
}

// ReadBenchHistory loads every *.json in dir as a BenchReport, sorted by
// file name — the caller names files so that lexicographic order is
// chronological (the CI job prefixes the artifact creation time).
// Unparseable files are skipped with a note rather than failing the whole
// trajectory: one corrupt artifact must not hide the rest.
func ReadBenchHistory(dir string) ([]HistoryPoint, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var points []HistoryPoint
	var skipped []string
	for _, n := range names {
		rep, err := ReadBenchReport(filepath.Join(dir, n))
		if err != nil || rep.SchemaVersion == 0 {
			skipped = append(skipped, n)
			continue
		}
		points = append(points, HistoryPoint{Label: strings.TrimSuffix(n, ".json"), Report: rep})
	}
	return points, skipped, nil
}

// HistoryMarkdown renders the bench trajectory as a markdown document:
// one row per point, one column per tracked derived ratio, floor breaches
// highlighted with the breach marker. Ratios are machine-relative, so the
// row also carries the machine class (CPU count) — breaches of multi-core-
// only floors on single-core points are annotated, not flagged.
func HistoryMarkdown(points []HistoryPoint, skipped []string) string {
	var b strings.Builder
	b.WriteString("## Bench trajectory\n\n")
	if len(points) == 0 {
		b.WriteString("no bench points found\n")
		return b.String()
	}
	b.WriteString("| point | cpus | quick |")
	for _, f := range historyFloors {
		fmt.Fprintf(&b, " %s |", f.key)
	}
	b.WriteString("\n|---|---|---|")
	for range historyFloors {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	breaches := 0
	for _, p := range points {
		quick := ""
		if p.Report.Quick {
			quick = "yes"
		}
		fmt.Fprintf(&b, "| %s | %d | %s |", p.Label, p.Report.NumCPU, quick)
		for _, f := range historyFloors {
			v, ok := p.Report.Derived[f.key]
			switch {
			case !ok:
				b.WriteString(" – |")
			case f.floor > 0 && v < f.floor && !(f.multiCoreOnly && p.Report.NumCPU < 4):
				breaches++
				fmt.Fprintf(&b, " ⚠️ **%.2fx** (floor %.1fx) |", v, f.floor)
			case f.floor > 0 && v < f.floor:
				fmt.Fprintf(&b, " %.2fx (floor n/a: %d cpu) |", v, p.Report.NumCPU)
			default:
				fmt.Fprintf(&b, " %.2fx |", v)
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\n%d point(s)", len(points))
	if breaches > 0 {
		fmt.Fprintf(&b, ", **%d floor breach(es)** ⚠️", breaches)
	} else {
		b.WriteString(", no floor breaches")
	}
	b.WriteString(". Ratios are machine-relative (see docs/BENCHMARKS.md); ")
	b.WriteString("snapshot_overhead is tracked report-only.\n")
	if len(skipped) > 0 {
		fmt.Fprintf(&b, "\nskipped unparseable: %s\n", strings.Join(skipped, ", "))
	}
	return b.String()
}
