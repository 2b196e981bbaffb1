package main

import (
	"math/rand"

	"datacell/internal/bat"
	"datacell/internal/linearroad"
)

// source is a streaming input generator: it builds each chunk on demand,
// so only the chunk being appended (and whatever the engine still holds)
// is live. The same seed yields the same chunk sequence, which is how the
// oracle regenerates the input after the timed phases.
type source interface {
	next() *bat.Chunk
}

// Sensor stream (ts, k, v): the fanout and fabric workloads.

const (
	sensorKeys = 64
	// Values are multiples of 1/4 in [0, 256): exact in binary, so a
	// window's sum is the same whatever order shards and basic windows
	// merge in.
	sensorValueSteps = 1024
	sensorValueUnit  = 0.25
)

func sensorSchema() bat.Schema {
	return bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
}

// sensorSource derives tuple g from (seed, g) alone, so it carries no RNG
// state: ts = g, k = hash mod 64, v = (hash' mod 1024) / 4.
type sensorSource struct {
	schema bat.Schema
	seed   uint64
	rows   int
	pos    int64 // global index of the next tuple
}

func newSensorSource(seed int64, rows int) *sensorSource {
	return &sensorSource{schema: sensorSchema(), seed: uint64(seed), rows: rows}
}

// splitmix64 is a stateless 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func sensorTuple(seed uint64, g int64) (k int64, v float64) {
	h := splitmix64(seed ^ uint64(g)*0xd1b54a32d192ed03)
	return int64(h % sensorKeys), float64((h>>32)%sensorValueSteps) * sensorValueUnit
}

func (s *sensorSource) next() *bat.Chunk {
	ts := make(bat.Times, s.rows)
	ks := make(bat.Ints, s.rows)
	vs := make(bat.Floats, s.rows)
	for i := range ts {
		g := s.pos + int64(i)
		ts[i] = g
		ks[i], vs[i] = sensorTuple(s.seed, g)
	}
	s.pos += int64(s.rows)
	return &bat.Chunk{Schema: s.schema, Cols: []bat.Vector{ts, ks, vs}}
}

// Linear Road position reports: the lroad workload. The shape follows
// linearroad.Generate — cars on L expressways reporting every 30 simulated
// seconds with lane changes, speed drift and accidents — but it streams,
// touching only the cars that report in a given second, and it quantizes
// speeds to halves of a mph so window sums are exact in binary.

const (
	lrXways        = 4
	lrCarsPerXway  = 1500
	lrReportPeriod = 30 // simulated seconds between a car's reports
	lrAccidentProb = 0.004
)

type lrCar struct {
	vid        int64
	xway, dir  int64
	lane       int64
	pos        float64 // yards from the start of segment 0
	speed      float64 // mph, a multiple of 0.5
	stoppedFor int     // remaining stopped reports (accident)
}

type lrSource struct {
	schema bat.Schema
	rng    *rand.Rand
	cars   []lrCar
	// byOffset lists the cars reporting at simulated seconds ≡ offset
	// (mod lrReportPeriod).
	byOffset [lrReportPeriod][]int
	sec      int64 // next simulated second
	secs     int   // simulated seconds per chunk
}

func newLRSource(seed int64, secsPerChunk int) *lrSource {
	s := &lrSource{schema: linearroad.Schema(), rng: rand.New(rand.NewSource(seed)), secs: secsPerChunk}
	for x := 0; x < lrXways; x++ {
		for i := 0; i < lrCarsPerXway; i++ {
			c := lrCar{
				vid:   int64(len(s.cars) + 1),
				xway:  int64(x),
				dir:   int64(s.rng.Intn(2)),
				lane:  int64(1 + s.rng.Intn(3)),
				pos:   s.rng.Float64() * linearroad.Segments * 1760,
				speed: float64(80 + s.rng.Intn(81)), // 40–80 mph in half-mph steps
			}
			c.speed /= 2
			off := s.rng.Intn(lrReportPeriod)
			s.byOffset[off] = append(s.byOffset[off], len(s.cars))
			s.cars = append(s.cars, c)
		}
	}
	return s
}

func (s *lrSource) next() *bat.Chunk {
	n := 0
	for d := 0; d < s.secs; d++ {
		n += len(s.byOffset[(s.sec+int64(d))%lrReportPeriod])
	}
	ts := make(bat.Times, 0, n)
	vid := make(bat.Ints, 0, n)
	speed := make(bat.Floats, 0, n)
	xway := make(bat.Ints, 0, n)
	lane := make(bat.Ints, 0, n)
	dir := make(bat.Ints, 0, n)
	seg := make(bat.Ints, 0, n)
	pos := make(bat.Ints, 0, n)
	for d := 0; d < s.secs; d++ {
		sec := s.sec + int64(d)
		for _, ci := range s.byOffset[sec%lrReportPeriod] {
			c := &s.cars[ci]
			if c.stoppedFor > 0 {
				c.speed = 0
			} else {
				c.speed += float64(s.rng.Intn(9)-4) * 0.5
				if c.speed < 20 {
					c.speed = 20
				}
				if c.speed > 100 {
					c.speed = 100
				}
			}
			c.pos += c.speed * 1760 / 3600 * lrReportPeriod
			if c.pos >= linearroad.Segments*1760 {
				c.pos -= linearroad.Segments * 1760
			}
			if c.stoppedFor == 0 && s.rng.Float64() < lrAccidentProb {
				c.stoppedFor = 4 + s.rng.Intn(4)
			} else if c.stoppedFor > 0 {
				c.stoppedFor--
			}
			if s.rng.Float64() < 0.1 {
				c.lane = int64(1 + s.rng.Intn(3))
			}
			ts = append(ts, sec*1_000_000)
			vid = append(vid, c.vid)
			speed = append(speed, c.speed)
			xway = append(xway, c.xway)
			lane = append(lane, c.lane)
			dir = append(dir, c.dir)
			seg = append(seg, int64(c.pos/1760))
			pos = append(pos, int64(c.pos))
		}
	}
	s.sec += int64(s.secs)
	return &bat.Chunk{Schema: s.schema, Cols: []bat.Vector{ts, vid, speed, xway, lane, dir, seg, pos}}
}
