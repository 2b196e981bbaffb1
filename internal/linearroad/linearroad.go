// Package linearroad implements a self-contained Linear Road workload: the
// stream benchmark the paper cites as evidence that DataCell "easily
// meet[s] the requirements of the Linear Road Benchmark in [16]". The
// original benchmark ships a closed traffic simulator and validator; this
// package generates the same *shape* of input — position reports from cars
// on L expressways with lane changes, speed variation and accidents — and
// defines the continuous-query set (segment statistics, toll basis,
// accident detection) in DataCell SQL, plus the ≤5 s response-time check.
//
// Substitution note (DESIGN.md): the authors used the official MIT data
// generator; we synthesize statistically similar traffic with a seeded
// RNG, which exercises the identical engine code paths (time windows,
// grouped aggregation, HAVING-based detection) and allows the same
// response-time constraint to be evaluated.
package linearroad

import (
	"fmt"
	"math/rand"
	"time"

	"datacell/internal/bat"
)

// Config sizes a Linear Road run. The L-rating of the original benchmark
// corresponds to Xways here: higher L means proportionally more input.
type Config struct {
	// Xways is the number of expressways (the benchmark's L factor).
	Xways int
	// CarsPerXway is the number of concurrently active vehicles per
	// expressway.
	CarsPerXway int
	// DurationSec is the simulated duration in seconds.
	DurationSec int
	// ReportEverySec is the per-car reporting period (the benchmark uses
	// 30 s).
	ReportEverySec int
	// AccidentProb is the per-car-per-report probability of becoming
	// stopped (speed 0) for a few minutes.
	AccidentProb float64
	// Seed makes runs reproducible.
	Seed int64
}

// Segments per expressway and direction, from the benchmark definition.
const Segments = 100

// Schema is the position-report stream layout:
// (ts, vid, speed, xway, lane, dir, seg, pos).
func Schema() bat.Schema {
	return bat.NewSchema(
		[]string{"ts", "vid", "speed", "xway", "lane", "dir", "seg", "pos"},
		[]bat.Kind{bat.Time, bat.Int, bat.Float, bat.Int, bat.Int, bat.Int, bat.Int, bat.Int},
	)
}

// car is one simulated vehicle.
type car struct {
	vid        int64
	xway       int
	dir        int
	lane       int
	pos        float64 // meters from segment 0 start
	speed      float64 // mph
	stoppedFor int     // remaining stopped reports (accident)
	nextReport int     // second of next report
}

// Generate produces the position-report stream as one chunk per simulated
// second (empty seconds are skipped). Timestamps are microseconds of
// simulated time from zero.
func Generate(cfg Config) []*bat.Chunk {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sch := Schema()
	var cars []*car
	vid := int64(0)
	for x := 0; x < cfg.Xways; x++ {
		for i := 0; i < cfg.CarsPerXway; i++ {
			vid++
			cars = append(cars, &car{
				vid:        vid,
				xway:       x,
				dir:        rng.Intn(2),
				lane:       1 + rng.Intn(3),
				pos:        rng.Float64() * Segments * 1760, // ~1 mile per segment, in yards
				speed:      40 + rng.Float64()*40,
				nextReport: rng.Intn(cfg.ReportEverySec),
			})
		}
	}

	var out []*bat.Chunk
	for sec := 0; sec < cfg.DurationSec; sec++ {
		chunk := bat.NewChunk(sch)
		for _, c := range cars {
			// Movement happens every simulated second.
			if c.stoppedFor > 0 {
				c.speed = 0
			} else {
				// Smooth speed variation within [20, 100].
				c.speed += (rng.Float64() - 0.5) * 4
				if c.speed < 20 {
					c.speed = 20
				}
				if c.speed > 100 {
					c.speed = 100
				}
			}
			c.pos += c.speed * 1760 / 3600 // yards per second at mph
			if c.pos >= Segments*1760 {
				c.pos -= Segments * 1760 // wrap around (car re-enters)
			}
			if sec < c.nextReport {
				continue
			}
			c.nextReport = sec + cfg.ReportEverySec
			// Accident lottery at report time.
			if c.stoppedFor == 0 && rng.Float64() < cfg.AccidentProb {
				c.stoppedFor = 4 + rng.Intn(4) // stopped for 4-7 reports
			} else if c.stoppedFor > 0 {
				c.stoppedFor--
			}
			if rng.Float64() < 0.1 {
				c.lane = 1 + rng.Intn(3)
			}
			seg := int64(c.pos / 1760)
			_ = chunk.AppendRow(
				bat.TimeValue(int64(sec)*1_000_000),
				bat.IntValue(c.vid),
				bat.FloatValue(c.speed),
				bat.IntValue(int64(c.xway)),
				bat.IntValue(int64(c.lane)),
				bat.IntValue(int64(c.dir)),
				bat.IntValue(seg),
				bat.IntValue(int64(c.pos)),
			)
		}
		if chunk.Rows() > 0 {
			out = append(out, chunk)
		}
	}
	return out
}

// CreateStreamSQL is the DDL for the position-report stream.
const CreateStreamSQL = `CREATE STREAM lr_pos (
	ts TIMESTAMP, vid INT, speed FLOAT, xway INT, lane INT, dir INT, seg INT, pos INT
)`

// SegmentStatsSQL is the benchmark's segment-statistics query: average
// speed per (xway, dir, seg) over a 5-minute window sliding every minute.
func SegmentStatsSQL() string {
	return `SELECT xway, dir, seg, avg(speed) AS avgspeed, count(*) AS reports
		FROM lr_pos [RANGE 300 SECONDS SLIDE 60 SECONDS ON ts]
		GROUP BY xway, dir, seg`
}

// VehicleCountSQL is the toll-basis query: report volume per segment over
// the last minute.
func VehicleCountSQL() string {
	return `SELECT xway, dir, seg, count(*) AS cars
		FROM lr_pos [RANGE 60 SECONDS SLIDE 60 SECONDS ON ts]
		GROUP BY xway, dir, seg`
}

// AccidentSQL detects accident segments: several zero-speed reports in the
// same segment within a 2-minute window sliding every 30 seconds.
func AccidentSQL() string {
	return `SELECT xway, dir, seg, count(*) AS stopped
		FROM lr_pos [RANGE 120 SECONDS SLIDE 30 SECONDS ON ts]
		WHERE speed = 0.0
		GROUP BY xway, dir, seg
		HAVING count(*) >= 4`
}

// Toll computes the benchmark's toll formula from segment statistics: no
// toll when the average speed is at least 40 mph or the segment is nearly
// empty; otherwise baseToll * (cars - 150)^2 with the benchmark's base of
// 0.02.
func Toll(avgSpeed float64, cars int64) float64 {
	if avgSpeed >= 40 || cars <= 50 {
		return 0
	}
	d := float64(cars - 150)
	return 0.02 * d * d
}

// ResponseConstraint is the benchmark's end-to-end deadline.
const ResponseConstraint = 5 * time.Second

// CheckResponse reports whether a set of response latencies (µs) meets
// the benchmark's constraint, together with the worst observed latency.
func CheckResponse(latencies []int64) (ok bool, worst int64) {
	for _, l := range latencies {
		if l > worst {
			worst = l
		}
	}
	return worst <= ResponseConstraint.Microseconds(), worst
}

// Summary renders a one-line description of a config, used by the bench
// harness tables.
func (c Config) Summary() string {
	return fmt.Sprintf("L=%d cars=%d dur=%ds report=%ds",
		c.Xways, c.Xways*c.CarsPerXway, c.DurationSec, c.ReportEverySec)
}
