package linearroad

import (
	"testing"

	"datacell/internal/bat"
)

func TestGenerateShape(t *testing.T) {
	cfg := Config{
		Xways: 2, CarsPerXway: 50, DurationSec: 90,
		ReportEverySec: 30, AccidentProb: 0.05, Seed: 1,
	}
	chunks := Generate(cfg)
	if len(chunks) == 0 {
		t.Fatal("no chunks")
	}
	sch := Schema()
	var total int
	var lastTS int64 = -1
	sawXway := map[int64]bool{}
	for _, c := range chunks {
		if c.Schema.Width() != sch.Width() {
			t.Fatalf("schema width = %d", c.Schema.Width())
		}
		rows := c.Rows()
		total += rows
		for i := 0; i < rows; i++ {
			row := c.Row(i)
			ts := row[0].I
			if ts < lastTS {
				t.Fatalf("timestamps out of order: %d after %d", ts, lastTS)
			}
			speed := row[2].F
			if speed < 0 || speed > 100 {
				t.Errorf("speed out of range: %f", speed)
			}
			sawXway[row[3].I] = true
			seg := row[6].I
			if seg < 0 || seg >= Segments {
				t.Errorf("segment out of range: %d", seg)
			}
		}
		if rows > 0 {
			lastTS = c.Row(rows - 1)[0].I
		}
	}
	// Each car reports roughly every 30s over 90s → ~3 reports each.
	want := 2 * 50 * 3
	if total < want/2 || total > want*2 {
		t.Errorf("total reports = %d, want ≈%d", total, want)
	}
	if !sawXway[0] || !sawXway[1] {
		t.Errorf("xways seen = %v", sawXway)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationSec = 60
	cfg.CarsPerXway = 20
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Rows() != b[i].Rows() {
			t.Fatalf("chunk %d rows differ", i)
		}
		for r := 0; r < a[i].Rows(); r++ {
			ra, rb := a[i].Row(r), b[i].Row(r)
			for j := range ra {
				if ra[j].Compare(rb[j]) != 0 {
					t.Fatalf("chunk %d row %d col %d: %v vs %v", i, r, j, ra[j], rb[j])
				}
			}
		}
	}
}

func TestAccidentsProduceZeroSpeeds(t *testing.T) {
	cfg := Config{
		Xways: 1, CarsPerXway: 200, DurationSec: 300,
		ReportEverySec: 30, AccidentProb: 0.05, Seed: 3,
	}
	zero := 0
	for _, c := range Generate(cfg) {
		speeds := c.Cols[2].(bat.Floats)
		for _, s := range speeds {
			if s == 0 {
				zero++
			}
		}
	}
	if zero == 0 {
		t.Error("accident model produced no stopped reports")
	}
}

func TestToll(t *testing.T) {
	if got := Toll(50, 200); got != 0 {
		t.Errorf("fast segment toll = %f", got)
	}
	if got := Toll(30, 40); got != 0 {
		t.Errorf("empty segment toll = %f", got)
	}
	want := 0.02 * 50 * 50
	if got := Toll(30, 200); got != want {
		t.Errorf("toll = %f, want %f", got, want)
	}
}

func TestCheckResponse(t *testing.T) {
	ok, worst := CheckResponse([]int64{1000, 2000, 4_999_999})
	if !ok || worst != 4_999_999 {
		t.Errorf("CheckResponse = %v, %d", ok, worst)
	}
	ok, worst = CheckResponse([]int64{1000, 6_000_000})
	if ok || worst != 6_000_000 {
		t.Errorf("CheckResponse = %v, %d", ok, worst)
	}
	if ok, _ := CheckResponse(nil); !ok {
		t.Error("empty latencies should pass")
	}
}

func TestQuerySQLTexts(t *testing.T) {
	for _, q := range []string{SegmentStatsSQL(), VehicleCountSQL(), AccidentSQL(), CreateStreamSQL} {
		if q == "" {
			t.Error("empty SQL")
		}
	}
	if DefaultConfig().Summary() == "" {
		t.Error("empty summary")
	}
}
