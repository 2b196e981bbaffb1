package datacell

import (
	"sync/atomic"
	"testing"

	"datacell/internal/emitter"
	"datacell/internal/linearroad"
)

// TestLinearRoadEndToEnd drives the full Linear Road query set over the
// engine: segment statistics, vehicle counts and accident detection over
// generated traffic, checking the response-time constraint with a logical
// clock (arrival → evaluation in engine ticks).
func TestLinearRoadEndToEnd(t *testing.T) {
	var clock atomic.Int64
	e := New(&Options{Workers: 4, Now: func() int64 { return clock.Add(1) }})
	defer e.Close()

	if _, err := e.Exec(linearroad.CreateStreamSQL); err != nil {
		t.Fatal(err)
	}
	segStats, err := e.Register("seg_stats", linearroad.SegmentStatsSQL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	vcount, err := e.Register("veh_count", linearroad.VehicleCountSQL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	accidents, err := e.Register("accidents", linearroad.AccidentSQL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*Query{segStats, vcount, accidents} {
		if q.Mode() != "incremental" {
			t.Errorf("query %s mode = %s, want incremental", q.Name(), q.Mode())
		}
	}

	cfg := linearroad.Config{
		Xways: 1, CarsPerXway: 300, DurationSec: 600,
		ReportEverySec: 30, AccidentProb: 0.05, Seed: 11,
	}
	var pushed int64
	for _, c := range linearroad.Generate(cfg) {
		if err := e.Append("lr_pos", c); err != nil {
			t.Fatal(err)
		}
		pushed += int64(c.Rows())
	}
	e.Drain()
	// Close the trailing time buckets.
	e.AdvanceTime(int64(cfg.DurationSec+300) * 1_000_000)
	e.Drain()

	// Segment statistics: 5-min windows sliding per minute over 10
	// minutes → several evaluations with many segment groups.
	segRes := drainAll(segStats)
	if len(segRes) < 5 {
		t.Fatalf("segment stats evaluations = %d, want >= 5", len(segRes))
	}
	groups := 0
	for _, r := range segRes {
		groups += r.Chunk.Rows()
		for i := 0; i < r.Chunk.Rows(); i++ {
			row := r.Chunk.Row(i)
			if row[3].F < 0 || row[3].F > 100 {
				t.Errorf("avg speed out of range: %v", row[3])
			}
			// Toll formula consumes these outputs.
			_ = linearroad.Toll(row[3].F, row[4].I)
		}
	}
	if groups == 0 {
		t.Error("no segment groups reported")
	}

	if got := len(drainAll(vcount)); got < 5 {
		t.Errorf("vehicle count evaluations = %d", got)
	}

	// With a 5% accident probability some segment must trip the detector.
	accRes := drainAll(accidents)
	accRows := 0
	for _, r := range accRes {
		accRows += r.Chunk.Rows()
		for i := 0; i < r.Chunk.Rows(); i++ {
			if r.Chunk.Row(i)[3].I < 4 {
				t.Errorf("accident row below HAVING threshold: %v", r.Chunk.Row(i))
			}
		}
	}
	if accRows == 0 {
		t.Error("no accidents detected despite forced accident probability")
	}

	st := e.Stats()
	if st.Baskets[0].TotalIn != pushed {
		t.Errorf("basket in = %d, want %d", st.Baskets[0].TotalIn, pushed)
	}
}

func drainAll(q *Query) []emitter.Result {
	var out []emitter.Result
	for {
		select {
		case r, ok := <-q.Out():
			if !ok {
				return out
			}
			out = append(out, r)
		default:
			return out
		}
	}
}
