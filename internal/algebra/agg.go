package algebra

import (
	"fmt"

	"datacell/internal/bat"
)

// AggOp identifies an aggregate function. AVG is not listed: the planner
// rewrites avg(x) into sum(x)/count(x) so that every aggregate state is
// mergeable across basic windows, the property the paper's incremental
// sliding-window processing depends on (partials per basic window are
// merged; whole basic windows expire at once, so min/max need no
// invertibility).
type AggOp uint8

// The mergeable aggregate operators.
const (
	AggCount AggOp = iota
	AggSum
	AggMin
	AggMax
)

// String renders the SQL name.
func (op AggOp) String() string {
	switch op {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return "agg?"
}

// CountGroups counts qualifying rows per group.
func CountGroups(g Grouping) bat.Ints {
	out := make(bat.Ints, g.N)
	for _, gid := range g.GIDs {
		out[gid]++
	}
	return out
}

// SumGroups sums a value column per group. Int and Time inputs produce an
// Int sum; Float inputs a Float sum.
func SumGroups(v bat.Vector, sel Sel, g Grouping) bat.Vector {
	switch xs := v.(type) {
	case bat.Ints:
		return sumInt(xs, sel, g)
	case bat.Times:
		return sumInt(bat.AsInts(v), sel, g)
	case bat.Floats:
		out := make(bat.Floats, g.N)
		k := 0
		eachSel(xs, sel, func(_ int32, x float64) {
			out[g.GIDs[k]] += x
			k++
		})
		return out
	}
	panic(fmt.Sprintf("algebra: SumGroups on %s vector", v.Kind()))
}

func sumInt(xs []int64, sel Sel, g Grouping) bat.Ints {
	out := make(bat.Ints, g.N)
	k := 0
	eachSel(xs, sel, func(_ int32, x int64) {
		out[g.GIDs[k]] += x
		k++
	})
	return out
}

// MinGroups computes the per-group minimum of a value column.
func MinGroups(v bat.Vector, sel Sel, g Grouping) bat.Vector {
	return extremeGroups(v, sel, g, true)
}

// MaxGroups computes the per-group maximum of a value column.
func MaxGroups(v bat.Vector, sel Sel, g Grouping) bat.Vector {
	return extremeGroups(v, sel, g, false)
}

func extremeGroups(v bat.Vector, sel Sel, g Grouping, isMin bool) bat.Vector {
	switch xs := v.(type) {
	case bat.Ints:
		return bat.Ints(extreme(xs, sel, g, isMin))
	case bat.Times:
		return bat.Times(extreme(bat.AsInts(v), sel, g, isMin))
	case bat.Floats:
		return bat.Floats(extreme(xs, sel, g, isMin))
	case bat.Strs:
		return bat.Strs(extreme(xs, sel, g, isMin))
	}
	panic(fmt.Sprintf("algebra: min/max on %s vector", v.Kind()))
}

// extreme needs no per-group "seen" flags: groups are numbered in
// first-appearance order over the same qualifying rows it iterates, so a
// group's first row is exactly the one whose id is the next unseen one.
func extreme[T int64 | float64 | string](xs []T, sel Sel, g Grouping, isMin bool) []T {
	out := make([]T, g.N)
	k, next := 0, int32(0)
	eachSel(xs, sel, func(_ int32, x T) {
		gid := g.GIDs[k]
		k++
		if gid == next {
			out[gid] = x
			next++
			return
		}
		if isMin {
			if x < out[gid] {
				out[gid] = x
			}
		} else if x > out[gid] {
			out[gid] = x
		}
	})
	return out
}

// Aggregate applies one aggregate op to a value column under a grouping.
// For AggCount, v may be nil (count(*)).
func Aggregate(op AggOp, v bat.Vector, sel Sel, g Grouping) bat.Vector {
	switch op {
	case AggCount:
		return CountGroups(g)
	case AggSum:
		return SumGroups(v, sel, g)
	case AggMin:
		return MinGroups(v, sel, g)
	case AggMax:
		return MaxGroups(v, sel, g)
	}
	panic("algebra: unknown aggregate")
}

// MergeAgg combines two already-aggregated vectors element-wise according
// to the aggregate's merge rule (count/sum add; min/max take extremes).
// Both inputs are per-group results aligned on the same group order. It is
// used by the window merge stage when combining cached basic-window
// partials.
func MergeAgg(op AggOp, a, b bat.Vector) bat.Vector {
	switch op {
	case AggCount, AggSum:
		return addVec(a, b)
	case AggMin:
		return extremeVec(a, b, true)
	case AggMax:
		return extremeVec(a, b, false)
	}
	panic("algebra: unknown aggregate merge")
}

func addVec(a, b bat.Vector) bat.Vector {
	switch xs := a.(type) {
	case bat.Ints:
		ys := b.(bat.Ints)
		out := make(bat.Ints, len(xs))
		for i := range xs {
			out[i] = xs[i] + ys[i]
		}
		return out
	case bat.Floats:
		ys := b.(bat.Floats)
		out := make(bat.Floats, len(xs))
		for i := range xs {
			out[i] = xs[i] + ys[i]
		}
		return out
	}
	panic(fmt.Sprintf("algebra: MergeAgg add on %s", a.Kind()))
}

func extremeVec(a, b bat.Vector, isMin bool) bat.Vector {
	pick := func(cmp int) bool {
		if isMin {
			return cmp <= 0
		}
		return cmp >= 0
	}
	out := a.New(a.Len())
	for i := 0; i < a.Len(); i++ {
		va, vb := a.Get(i), b.Get(i)
		if pick(va.Compare(vb)) {
			out = out.Append(va)
		} else {
			out = out.Append(vb)
		}
	}
	return out
}
