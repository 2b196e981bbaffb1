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

// Aggregate applies one aggregate op to a value column under a grouping,
// one value per group of g's id space. For AggCount, v may be nil
// (count(*)). Int and Time inputs sum to an Int sum, Float inputs to a
// Float sum, and each group's sum accumulates in row order.
func Aggregate(op AggOp, v bat.Vector, sel Sel, g Grouping) bat.Vector {
	var out bat.Vector
	if op == AggCount || op == AggSum && v.Kind() == bat.Time {
		out = make(bat.Ints, g.N)
	} else {
		out = resultOf(v, g.N)
	}
	AggregateInto(out, op, v, sel, g)
	return out
}

// resultOf returns a zeroed vector of v's kind and length n.
func resultOf(v bat.Vector, n int) bat.Vector {
	switch v.(type) {
	case bat.Ints:
		return make(bat.Ints, n)
	case bat.Times:
		return make(bat.Times, n)
	case bat.Floats:
		return make(bat.Floats, n)
	case bat.Strs:
		return make(bat.Strs, n)
	}
	panic(fmt.Sprintf("algebra: aggregate of %s vector", v.Kind()))
}

// AggregateInto is Aggregate writing its g.N results over dst, a vector
// of the result's kind and length g.N; whatever dst held is overwritten.
// A caller that keeps only some of the groups — a grouping Within a
// selection — accumulates in pooled storage and copies out the groups it
// keeps.
func AggregateInto(dst bat.Vector, op AggOp, v bat.Vector, sel Sel, g Grouping) {
	switch op {
	case AggCount:
		out := dst.(bat.Ints)
		clear(out)
		if g.At != nil {
			for _, i := range g.At {
				out[g.GIDs[i]]++
			}
			return
		}
		for _, gid := range g.GIDs {
			out[gid]++
		}
	case AggSum:
		switch xs := v.(type) {
		case bat.Ints:
			sum(dst.(bat.Ints), xs, sel, g)
		case bat.Times:
			sum(dst.(bat.Ints), bat.AsInts(v), sel, g)
		case bat.Floats:
			sum(dst.(bat.Floats), xs, sel, g)
		default:
			panic(fmt.Sprintf("algebra: sum of %s vector", v.Kind()))
		}
	case AggMin, AggMax:
		isMin := op == AggMin
		switch xs := v.(type) {
		case bat.Ints:
			extreme(dst.(bat.Ints), xs, sel, g, isMin)
		case bat.Times:
			extreme(bat.AsInts(dst), bat.AsInts(v), sel, g, isMin)
		case bat.Floats:
			extreme(dst.(bat.Floats), xs, sel, g, isMin)
		case bat.Strs:
			extreme(dst.(bat.Strs), xs, sel, g, isMin)
		default:
			panic(fmt.Sprintf("algebra: min/max on %s vector", v.Kind()))
		}
	default:
		panic("algebra: unknown aggregate")
	}
}

// sum accumulates each group's values, in row order, over out.
func sum[T int64 | float64](out, xs []T, sel Sel, g Grouping) {
	clear(out)
	if g.At != nil {
		for _, i := range g.At {
			out[g.GIDs[i]] += xs[i]
		}
		return
	}
	k := 0
	eachSel(xs, sel, func(_ int32, x T) {
		out[g.GIDs[k]] += x
		k++
	})
}

// extreme needs no per-group "seen" flags: the groups appear over the
// rows it iterates in a known order — 0, 1, … for a Group result, Order
// for a grouping Within a selection — so a row is its group's first
// exactly when its group is the next one due. Groups that never appear
// keep whatever out held.
func extreme[T int64 | float64 | string](out, xs []T, sel Sel, g Grouping, isMin bool) {
	next := 0
	due := g.due(0)
	step := func(gid int32, x T) {
		if gid == due {
			out[gid] = x
			next++
			due = g.due(next)
			return
		}
		if isMin {
			if x < out[gid] {
				out[gid] = x
			}
		} else if x > out[gid] {
			out[gid] = x
		}
	}
	if g.At != nil {
		for _, i := range g.At {
			step(g.GIDs[i], xs[i])
		}
		return
	}
	k := 0
	eachSel(xs, sel, func(_ int32, x T) {
		step(g.GIDs[k], x)
		k++
	})
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
