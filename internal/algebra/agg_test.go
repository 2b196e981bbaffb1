package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datacell/internal/bat"
)

// refExtreme is the per-group minimum or maximum with explicit "seen"
// flags: the first qualifying row of a group initializes it, later rows
// replace it when strictly smaller (larger). extreme is checked against
// it.
func refExtreme[T int64 | float64 | string](xs []T, sel Sel, g Grouping, isMin bool) []T {
	out := make([]T, g.N)
	seen := make([]bool, g.N)
	k := 0
	eachSel(xs, sel, func(_ int32, x T) {
		gid := g.GIDs[k]
		k++
		switch {
		case !seen[gid]:
			out[gid], seen[gid] = x, true
		case isMin && x < out[gid], !isMin && x > out[gid]:
			out[gid] = x
		}
	})
	return out
}

// TestExtremeMatchesReference: min and max per group equal the seen-flag
// reference bit for bit — NaN and −0.0 floats included, where the first
// row of a group decides what comparisons cannot — for integer, float and
// string values, integer and string keys, with and without a selection.
func TestExtremeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2, math.Inf(1), math.Inf(-1)}
	strs := []string{"", "a", "b", "ab", "\x00"}
	for round := 0; round < 400; round++ {
		n := rng.Intn(48)
		var key bat.Vector
		if round%2 == 0 {
			ks := make(bat.Ints, n)
			for i := range ks {
				ks[i] = int64(rng.Intn(6))
			}
			key = ks
		} else {
			ks := make(bat.Strs, n)
			for i := range ks {
				ks[i] = strs[rng.Intn(len(strs))]
			}
			key = ks
		}
		is, fs, ss := make([]int64, n), make([]float64, n), make([]string, n)
		for i := 0; i < n; i++ {
			is[i] = int64(rng.Intn(21) - 10)
			fs[i] = floats[rng.Intn(len(floats))]
			ss[i] = strs[rng.Intn(len(strs))]
		}
		var sel Sel
		if rng.Intn(2) == 0 {
			sel = Sel{}
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		g := Group([]bat.Vector{key}, sel, n)
		for _, isMin := range []bool{true, false} {
			if got, want := extremeOf(is, sel, g, isMin), refExtreme(is, sel, g, isMin); !sameSlice(got, want, func(a, b int64) bool { return a == b }) {
				t.Fatalf("round %d ints min=%v: got %v, want %v", round, isMin, got, want)
			}
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if got, want := extremeOf(fs, sel, g, isMin), refExtreme(fs, sel, g, isMin); !sameSlice(got, want, same) {
				t.Fatalf("round %d floats min=%v: got %v, want %v", round, isMin, got, want)
			}
			if got, want := extremeOf(ss, sel, g, isMin), refExtreme(ss, sel, g, isMin); !sameSlice(got, want, func(a, b string) bool { return a == b }) {
				t.Fatalf("round %d strings min=%v: got %q, want %q", round, isMin, got, want)
			}
		}
		g.Release()
	}
}

// extremeOf runs extreme into a fresh result.
func extremeOf[T int64 | float64 | string](xs []T, sel Sel, g Grouping, isMin bool) []T {
	out := make([]T, g.N)
	extreme(out, xs, sel, g, isMin)
	return out
}

func sameSlice[T any](a, b []T, eq func(x, y T) bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestReleasePoisonsGrouping: a grouping's ids and representatives go
// back to their pools on Release, overwritten in test binaries, so a read
// after Release sees poisonPos rather than a plausible stale id.
func TestReleasePoisonsGrouping(t *testing.T) {
	g := Group([]bat.Vector{ints(3, 1, 3, 2)}, nil, 4)
	gids, repr := g.GIDs, g.Repr
	g.Release()
	if g.GIDs != nil || g.Repr != nil {
		t.Fatalf("Release left GIDs %v, Repr %v", g.GIDs, g.Repr)
	}
	for _, s := range [][]int32{gids, repr} {
		for i, x := range s {
			if x != poisonPos {
				t.Fatalf("released storage [%d] = %d, want poisonPos", i, x)
			}
		}
	}
}

// TestWithinMatchesOwnGrouping: aggregating a selection in the id space
// of a grouping of every row (Within), then keeping its groups in Order,
// equals grouping the selection itself — representatives, counts, sums
// and extremes bit for bit, NaN and −0.0 floats included — for empty,
// partial and full selections, in or out of the shared id order.
func TestWithinMatchesOwnGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 0.1, 0.7, -2.3, math.Inf(1)}
	for round := 0; round < 400; round++ {
		n := rng.Intn(64)
		ks, is, fs := make(bat.Ints, n), make(bat.Ints, n), make(bat.Floats, n)
		for i := 0; i < n; i++ {
			ks[i] = int64(rng.Intn(1 + round%9))
			is[i] = int64(rng.Intn(21) - 10)
			fs[i] = floats[rng.Intn(len(floats))]
		}
		sel := Sel{}
		keep := rng.Intn(4) // 0: no row, 3: every row
		for i := 0; i < n; i++ {
			if keep == 3 || keep > 0 && rng.Intn(3) < keep {
				sel = append(sel, int32(i))
			}
		}
		all := Group([]bat.Vector{ks}, nil, n)
		sub := all.Within(sel)
		own := Group([]bat.Vector{ks}, sel, n)
		if !selEqual(sub.Repr, own.Repr) {
			t.Fatalf("round %d: Within representatives %v, own %v", round, sub.Repr, own.Repr)
		}
		for _, c := range []struct {
			op AggOp
			v  bat.Vector
		}{{AggCount, nil}, {AggSum, is}, {AggSum, fs}, {AggMin, fs}, {AggMax, fs}, {AggMin, is}, {AggMax, is}} {
			got := Aggregate(c.op, c.v, sel, sub)
			if sub.Order != nil {
				got = Fetch(got, sub.Order)
			}
			want := Aggregate(c.op, c.v, sel, own)
			if fmt.Sprintf("%#v", floatBits(got)) != fmt.Sprintf("%#v", floatBits(want)) {
				t.Fatalf("round %d %s: Within %v, own %v", round, c.op, got, want)
			}
		}
		own.Release()
		sub.Release()
		all.Release()
	}
}

// floatBits renders a vector's floats as their bit patterns.
func floatBits(v bat.Vector) any {
	if fs, ok := v.(bat.Floats); ok {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	return v
}
