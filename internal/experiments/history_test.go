package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeHistoryPoint(t *testing.T, dir, name string, rep *BenchReport) {
	t.Helper()
	if err := rep.WriteJSON(filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

func TestBenchHistoryMarkdown(t *testing.T) {
	dir := t.TempDir()
	writeHistoryPoint(t, dir, "0001_aaaa.json", &BenchReport{
		SchemaVersion: 1, NumCPU: 8,
		Derived: map[string]float64{
			"shard4_vs_shard1": 1.2, "grouped16_vs_isolated16": 3.4,
			"memo16_vs_nomemo16": 3.7, "sharedmerge16_vs_nosharedmerge16": 6.1,
			"fabric_direct_vs_local": 1.4, "snapshot_overhead": 0.97,
		},
	})
	// A breach point: grouped16 under its 1.5 floor.
	writeHistoryPoint(t, dir, "0002_bbbb.json", &BenchReport{
		SchemaVersion: 1, NumCPU: 8,
		Derived: map[string]float64{
			"shard4_vs_shard1": 1.1, "grouped16_vs_isolated16": 1.1,
		},
	})
	// Single-core point: the multi-core-only shard floor must not flag.
	writeHistoryPoint(t, dir, "0003_cccc.json", &BenchReport{
		SchemaVersion: 1, NumCPU: 1, Quick: true,
		Derived: map[string]float64{"shard4_vs_shard1": 0.8},
	})
	if err := os.WriteFile(filepath.Join(dir, "0000_garbage.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	points, skipped, err := ReadBenchHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3", len(points))
	}
	if len(skipped) != 1 || skipped[0] != "0000_garbage.json" {
		t.Fatalf("skipped = %v", skipped)
	}
	// Chronological by file name.
	if points[0].Label != "0001_aaaa" || points[2].Label != "0003_cccc" {
		t.Fatalf("order: %s .. %s", points[0].Label, points[2].Label)
	}

	md := HistoryMarkdown(points, skipped)
	for _, want := range []string{
		"| 0001_aaaa | 8 |",
		"1.40x",                     // fabric ratio above its floor rendered plainly
		"0.97x",                     // report-only snapshot overhead rendered plainly
		"⚠️ **1.10x** (floor 1.5x)", // grouped16 breach flagged
		"0.80x (floor n/a: 1 cpu)",  // multi-core-only floor annotated, not flagged
		"1 floor breach(es)",        // exactly the grouped16 one
		"skipped unparseable: 0000_garbage.json",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	if strings.Contains(md, "⚠️ **0.80x**") {
		t.Error("single-core point flagged against a multi-core-only floor")
	}
}

func TestBenchHistoryEmpty(t *testing.T) {
	md := HistoryMarkdown(nil, nil)
	if !strings.Contains(md, "no bench points") {
		t.Fatalf("empty history: %q", md)
	}
}
