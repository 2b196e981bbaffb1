package main

import (
	"fmt"
	"math"
	"strings"

	"datacell/internal/bat"
	"datacell/internal/emitter"
)

// The oracle checks every emitted result against a plain-Go reference
// computed from the regenerated input. Results are compared as
// order-independent digests: a result set's digest is the wrapping sum of
// one hash per row, over each column's kind and exact bits, so a single
// corrupted value, a missing or an extra row changes it.

const (
	tagInt   = 1
	tagFloat = 3
)

func hashCombine(h uint64, tag byte, bits uint64) uint64 {
	return splitmix64(h ^ uint64(tag)<<56 ^ splitmix64(bits))
}

const rowSeed = 0x6a09e667f3bcc908

// chunkDigest digests a result chunk as the engine emitted it. Every
// workload query returns only INT and FLOAT columns; ok is false for a
// chunk with any other column kind.
func chunkDigest(c *bat.Chunk) (sum uint64, rows int, ok bool) {
	rows = c.Rows()
	for i := 0; i < rows; i++ {
		h := uint64(rowSeed)
		for _, col := range c.Cols {
			switch v := col.(type) {
			case bat.Ints:
				h = hashCombine(h, tagInt, uint64(v[i]))
			case bat.Floats:
				h = hashCombine(h, tagFloat, math.Float64bits(v[i]))
			default:
				return 0, rows, false
			}
		}
		sum += splitmix64(h)
	}
	return sum, rows, true
}

// rowDigest accumulates reference rows into the same digest chunkDigest
// computes over an emitted chunk.
type rowDigest struct {
	sum  uint64
	rows int
	h    uint64
}

func (d *rowDigest) begin()          { d.h = rowSeed }
func (d *rowDigest) int(v int64)     { d.h = hashCombine(d.h, tagInt, uint64(v)) }
func (d *rowDigest) float(v float64) { d.h = hashCombine(d.h, tagFloat, math.Float64bits(v)) }
func (d *rowDigest) end()            { d.sum += splitmix64(d.h); d.rows++ }

// expected is the reference result of one window of one query.
type expected struct {
	digest uint64
	rows   int32
	gen    int64 // the window's last slide bucket (Meta.TriggerGen)
}

// resultLog records what one query emitted, in arrival order. It keeps
// digests rather than chunks so the log stays small next to the engine's
// own heap.
type resultLog struct {
	gen     []int64
	digest  []uint64
	rows    []int32
	recvNs  []int64 // receipt, ns since the run's epoch
	firedUs []int64 // Meta.FiredAt (engine clock, µs)
}

func (l *resultLog) add(r emitter.Result, recvNs int64) {
	d, n, ok := chunkDigest(r.Chunk)
	if !ok {
		n = -1 // a column kind no workload query returns: never matches
	}
	l.gen = append(l.gen, r.Meta.TriggerGen)
	l.digest = append(l.digest, d)
	l.rows = append(l.rows, int32(n))
	l.recvNs = append(l.recvNs, recvNs)
	l.firedUs = append(l.firedUs, r.Meta.FiredAt)
}

func (l *resultLog) bytes() int64 {
	return int64(cap(l.gen)+cap(l.digest)+cap(l.recvNs)+cap(l.firedUs))*8 + int64(cap(l.rows))*4
}

// verdict is the outcome of checking every query's log.
type verdict struct {
	attempted int64 // results the reference expects
	failed    int64 // missing, wrong or unexpected results
	problems  []string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.problems) < 12 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) String() string { return strings.Join(v.problems, "\n") }

// verify compares each query's log with the reference windows. A result
// is matched to its window by Meta.TriggerGen, the window's last slide.
// The run closes every window the reference lists (the runner drains and,
// for event-time windows, advances time past the input before verifying),
// so a window with no result is missing; results the emitter dropped
// surface here.
func verify(names []string, logs []*resultLog, want [][]expected) verdict {
	var v verdict
	for qi, l := range logs {
		exp := want[qi]
		v.attempted += int64(len(exp))
		byGen := make(map[int64]int, len(exp))
		for i, e := range exp {
			byGen[e.gen] = i
		}
		seen := make([]bool, len(exp))
		for i, g := range l.gen {
			j, ok := byGen[g]
			switch {
			case !ok:
				v.fail("%s: unexpected result gen=%d rows=%d", names[qi], g, l.rows[i])
			case seen[j]:
				v.fail("%s: duplicate result gen=%d", names[qi], g)
			default:
				seen[j] = true
				e := exp[j]
				if l.digest[i] != e.digest || l.rows[i] != e.rows {
					v.fail("%s: wrong result gen=%d: got rows=%d digest=%016x, want rows=%d digest=%016x",
						names[qi], g, l.rows[i], l.digest[i], e.rows, e.digest)
				}
			}
		}
		for j, ok := range seen {
			if !ok {
				v.fail("%s: missing result gen=%d", names[qi], exp[j].gen)
			}
		}
	}
	return v
}

// Reference evaluation. Inputs are cut into base buckets (4096 tuples for
// the sensor stream, 30 simulated seconds for Linear Road); every query's
// slide is a whole number of base buckets, so a window is a run of base
// bucket partials.

// refQuery is one query's reference: its window in base buckets and the
// digest of its result over a run of base-bucket partials.
type refQuery struct {
	slide, parts int // slide in base buckets; window = slide*parts base buckets
	eval         func(win []any) (uint64, int)
}

// reference folds a stream of base-bucket partials into expected windows.
type reference struct {
	queries []refQuery
	ring    []any // newest base buckets, oldest first
	span    int
	nBase   int64
	want    [][]expected
}

func newReference(qs []refQuery) *reference {
	r := &reference{queries: qs, want: make([][]expected, len(qs))}
	for _, q := range qs {
		if s := q.slide * q.parts; s > r.span {
			r.span = s
		}
	}
	return r
}

// push closes base bucket r.nBase with its partial and evaluates every
// window it completes.
func (r *reference) push(p any) {
	r.ring = append(r.ring, p)
	if len(r.ring) > r.span {
		r.ring = r.ring[1:]
	}
	r.nBase++
	for qi, q := range r.queries {
		if r.nBase%int64(q.slide) != 0 {
			continue
		}
		e := r.nBase/int64(q.slide) - 1 // slide bucket just completed
		if e < int64(q.parts-1) {
			continue
		}
		w := q.slide * q.parts
		d, n := q.eval(r.ring[len(r.ring)-w:])
		r.want[qi] = append(r.want[qi], expected{digest: d, rows: int32(n), gen: e})
	}
}

// Sensor stream reference: per base bucket, count and sum per (filter
// threshold, key).

type sensorPartial struct {
	cnt [][sensorKeys]int64
	sum [][sensorKeys]float64
}

// sensorQuery is SELECT k, count(*), sum(v) ... WHERE v > filter GROUP BY
// k HAVING count(*) > having.
type sensorQuery struct {
	filter, having int // indexes into sensorFilters / sensorHavings
}

var (
	sensorFilters = []float64{0, 32, 64, 96, 128, 160, 192, 224}
	sensorHavings = []int64{0, 64, 96, 128, 160, 176, 192, 224}
)

const (
	sensorSlide = 4096
	sensorParts = 4
)

func (q sensorQuery) sql() string {
	return fmt.Sprintf("SELECT k, count(*) AS n, sum(v) AS sv FROM s [SIZE %d SLIDE %d] WHERE v > %g GROUP BY k HAVING count(*) > %d",
		sensorSlide*sensorParts, sensorSlide, sensorFilters[q.filter], sensorHavings[q.having])
}

func (q sensorQuery) ref() refQuery {
	return refQuery{slide: 1, parts: sensorParts, eval: func(win []any) (uint64, int) {
		var d rowDigest
		for k := 0; k < sensorKeys; k++ {
			var n int64
			var s float64
			for _, p := range win {
				sp := p.(*sensorPartial)
				n += sp.cnt[q.filter][k]
				s += sp.sum[q.filter][k]
			}
			if n == 0 || n <= sensorHavings[q.having] {
				continue
			}
			d.begin()
			d.int(int64(k))
			d.int(n)
			d.float(s)
			d.end()
		}
		return d.sum, d.rows
	}}
}

// sensorReference regenerates the first tuples of the seed's sensor
// stream and returns the expected windows of each query.
func sensorReference(seed int64, tuples int64, qs []sensorQuery) [][]expected {
	refs := make([]refQuery, len(qs))
	for i, q := range qs {
		refs[i] = q.ref()
	}
	r := newReference(refs)
	for base := int64(0); (base+1)*sensorSlide <= tuples; base++ {
		p := &sensorPartial{
			cnt: make([][sensorKeys]int64, len(sensorFilters)),
			sum: make([][sensorKeys]float64, len(sensorFilters)),
		}
		for g := base * sensorSlide; g < (base+1)*sensorSlide; g++ {
			k, v := sensorTuple(uint64(seed), g)
			for f, thr := range sensorFilters {
				if v > thr {
					p.cnt[f][k]++
					p.sum[f][k] += v
				}
			}
		}
		r.push(p)
	}
	return r.want
}

// Linear Road reference: per 30-second base bucket, report count, speed
// sum and zero-speed count per (xway, dir, seg).

const (
	lrBaseSec = 30
	lrGroups  = lrXways * 2 * 100
)

type lrPartial struct {
	cnt, zero [lrGroups]int64
	sum       [lrGroups]float64
}

func lrGroup(g int) (xway, dir, seg int64) {
	return int64(g / 200), int64(g / 100 % 2), int64(g % 100)
}

// lrRefs returns the references of the three Linear Road queries in the
// order lrQueries registers them.
func lrRefs() []refQuery {
	segStats := refQuery{slide: 2, parts: 5, eval: func(win []any) (uint64, int) {
		var d rowDigest
		for g := 0; g < lrGroups; g++ {
			var n int64
			var s float64
			for _, p := range win {
				lp := p.(*lrPartial)
				n += lp.cnt[g]
				s += lp.sum[g]
			}
			if n == 0 {
				continue
			}
			x, dr, sg := lrGroup(g)
			d.begin()
			d.int(x)
			d.int(dr)
			d.int(sg)
			d.float(s / float64(n))
			d.int(n)
			d.end()
		}
		return d.sum, d.rows
	}}
	vehicleCount := refQuery{slide: 2, parts: 1, eval: func(win []any) (uint64, int) {
		var d rowDigest
		for g := 0; g < lrGroups; g++ {
			var n int64
			for _, p := range win {
				n += p.(*lrPartial).cnt[g]
			}
			if n == 0 {
				continue
			}
			x, dr, sg := lrGroup(g)
			d.begin()
			d.int(x)
			d.int(dr)
			d.int(sg)
			d.int(n)
			d.end()
		}
		return d.sum, d.rows
	}}
	accidents := refQuery{slide: 1, parts: 4, eval: func(win []any) (uint64, int) {
		var d rowDigest
		for g := 0; g < lrGroups; g++ {
			var z int64
			for _, p := range win {
				z += p.(*lrPartial).zero[g]
			}
			if z < 4 {
				continue
			}
			x, dr, sg := lrGroup(g)
			d.begin()
			d.int(x)
			d.int(dr)
			d.int(sg)
			d.int(z)
			d.end()
		}
		return d.sum, d.rows
	}}
	return []refQuery{segStats, vehicleCount, accidents}
}

// lrReference regenerates the seed's first chunks of position reports and
// returns the expected windows of each query for every base bucket below
// endSec (buckets past the data are empty, as after AdvanceTime).
func lrReference(seed int64, secsPerChunk int, chunks int64, endSec int64) [][]expected {
	r := newReference(lrRefs())
	src := newLRSource(seed, secsPerChunk)
	cur := &lrPartial{}
	base := int64(0)
	for i := int64(0); i < chunks; i++ {
		c := src.next()
		ts := c.Cols[0].(bat.Times)
		speed := c.Cols[2].(bat.Floats)
		xway, dir, seg := c.Cols[3].(bat.Ints), c.Cols[5].(bat.Ints), c.Cols[6].(bat.Ints)
		for j := range ts {
			b := ts[j] / (lrBaseSec * 1_000_000)
			for base < b {
				r.push(cur)
				cur = &lrPartial{}
				base++
			}
			g := xway[j]*200 + dir[j]*100 + seg[j]
			cur.cnt[g]++
			cur.sum[g] += speed[j]
			if speed[j] == 0 {
				cur.zero[g]++
			}
		}
	}
	for ; base < endSec/lrBaseSec; base++ {
		r.push(cur)
		cur = &lrPartial{}
	}
	return r.want
}
