package kernel

import (
	"math"
	"testing"

	"datacell/internal/algebra"
	"datacell/internal/bat"
	"datacell/internal/expr"
	"datacell/internal/plan"
)

// Sibling is one aggregate of a sibling set: a partial aggregate over the
// view an operator chain derives from a shared ancestor view, where the
// chain only restricts and re-indexes the ancestor's rows (filters and
// column-reference projections) and the aggregate's keys and arguments
// are column references. Its rows are then a selection of the ancestor's
// rows, and its keys and arguments columns of the ancestor: aggregates
// that group by the same ancestor columns can share one grouping of the
// ancestor's rows (AggregateSet).
type Sibling struct {
	agg   *plan.Aggregate
	steps []*Step
	keys  []int // the ancestor column of each key
	args  []int // the ancestor column of each aggregate's argument, −1 for none
}

// NewSibling compiles aggregate t over the view steps derive from an
// ancestor view. ok is false when a step is not a filter or a compiled
// column-reference projection, or a key or argument is computed.
func NewSibling(t *plan.Aggregate, steps []*Step) (s *Sibling, ok bool) {
	// cols maps the chain's current schema to the ancestor's columns; nil
	// is the identity.
	var cols []int
	ancestor := func(i int) int {
		if cols == nil {
			return i
		}
		return cols[i]
	}
	for _, st := range steps {
		switch {
		case st.cols != nil:
			next := make([]int, len(st.cols.idx))
			for i, j := range st.cols.idx {
				next[i] = ancestor(j)
			}
			cols = next
		case isFilter(st):
		default:
			return nil, false
		}
	}
	s = &Sibling{agg: t, steps: steps}
	for _, k := range t.Keys {
		c, ok := k.(*expr.Col)
		if !ok {
			return nil, false
		}
		s.keys = append(s.keys, ancestor(c.Idx))
	}
	for _, spec := range t.Aggs {
		j := -1
		if spec.Arg != nil {
			c, ok := spec.Arg.(*expr.Col)
			if !ok {
				return nil, false
			}
			j = ancestor(c.Idx)
		}
		s.args = append(s.args, j)
	}
	return s, true
}

func isFilter(st *Step) bool {
	_, ok := st.Op.(*plan.Filter)
	return ok
}

// Keys reports the ancestor columns the sibling groups by: siblings with
// equal keys may share a grouping.
func (s *Sibling) Keys() []int { return s.keys }

// AggregateSet evaluates sibling aggregates over their shared ancestor
// view v, which must not be multi-run (View.MultiRun), writing sibs[i]'s
// partial to out[i]: each partial is byte-identical to AggregateSteps of
// its own chain over v. Every sibling's chain runs into scratch
// selections that live for the call. Once the siblings' selections
// together cover at least 1.25× the ancestor's base rows — the rows a
// shared grouping groups, v's own selection included — those rows are
// grouped once, and every sibling aggregates in that grouping's id
// space, reading ids and values through its own selection
// (algebra.Grouping.Within). Its results are then compacted to the
// groups its selection reaches, in their first-appearance order over it
// — the order its own grouping would have numbered them in — and
// reordered only when that order is not the shared one. Below that
// coverage each sibling groups its own rows, as AggregateSteps does. All
// siblings must have equal Keys; hint pre-sizes the groupings.
//
// The coverage is where sharing starts to pay, as measured on 4096-row
// windows of 64 keys with 2 to 32 siblings (BenchmarkSiblingAggregates):
// grouping each sibling alone wins clearly when the filters keep few
// rows (by 16–48% when each reaches one group), the two are within about
// 10% of each other between 1× and 2× with the crossover near 1.1×, and
// sharing wins by 22–42% when the selections add up to many times the
// rows.
//
// The decision waits only until the coverage is reached, so at most the
// selections of the siblings before that point are held at once. shared
// reports whether the siblings shared a grouping.
func AggregateSet(sibs []*Sibling, v *View, hint int, out []*bat.Chunk) (shared bool) {
	if v.MultiRun() {
		panic("kernel: AggregateSet over a multi-run view")
	}
	as := aggScratches.Get().(*aggScratch)
	defer as.release()
	as.base = v.flat().Base
	rows := as.base.Rows()
	covered, grouped := 0, false
	var g algebra.Grouping
	pending := as.pending[:0]
	for i, s := range sibs {
		cs := chainScratches.Get().(*chainScratch)
		sv := cs.apply(s.steps, v)
		if grouped {
			out[i] = as.within(s, sv, &g)
			cs.release()
			continue
		}
		pending = append(pending, pendingSib{i: i, cs: cs, v: sv})
		if covered += sv.Rows(); covered < rows+rows/4 {
			continue
		}
		for _, k := range sibs[0].keys {
			as.keys = append(as.keys, as.base.Cols[k])
		}
		g = algebra.GroupHint(as.keys, nil, rows, hint)
		grouped = true
		for j, p := range pending {
			out[p.i] = as.within(sibs[p.i], p.v, &g)
			p.cs.release()
			pending[j] = pendingSib{}
		}
		pending = pending[:0]
	}
	for j, p := range pending {
		out[p.i] = Aggregate(sibs[p.i].agg, p.v, hint)
		p.cs.release()
		pending[j] = pendingSib{}
	}
	as.pending = pending[:0]
	g.Release()
	return grouped
}

// pendingSib is a sibling whose chain has run while the set has not yet
// decided whether to share a grouping: its view, and the scratch its
// selections live in.
type pendingSib struct {
	i  int
	cs *chainScratch
	v  *View
}

// within is sibling s's partial over view sv in the shared grouping g.
func (as *aggScratch) within(s *Sibling, sv *View, g *algebra.Grouping) *bat.Chunk {
	at := sv.Sel
	sub := g.Within(at)
	defer sub.Release()
	t := s.agg
	cols := make([]bat.Vector, 0, len(t.Keys)+len(t.Aggs))
	for _, kv := range as.keys {
		cols = append(cols, algebra.Fetch(kv, sub.Repr))
	}
	for j, spec := range t.Aggs {
		var arg bat.Vector
		if s.args[j] >= 0 {
			arg = as.base.Cols[s.args[j]]
		}
		if sub.Order == nil {
			cols = append(cols, algebra.Aggregate(spec.Op, arg, at, sub))
			continue
		}
		// Accumulate in the shared id space, then copy out the groups
		// present in their order.
		acc := as.accumulator(spec.Kind(), sub.N)
		algebra.AggregateInto(acc, spec.Op, arg, at, sub)
		cols = append(cols, algebra.Fetch(acc, sub.Order))
	}
	return &bat.Chunk{Schema: t.Out, Cols: cols}
}

// accumulator returns the call's shared-id accumulator of kind k with n
// values (contents unspecified). The box is kept, so a request of the
// length of the last one boxes no new slice header.
func (as *aggScratch) accumulator(k bat.Kind, n int) bat.Vector {
	v := as.acc[k]
	switch {
	case v == nil:
		v = resize(bat.NewVector(k, 0), n, 0)
	case v.Len() != n:
		v = resize(v, n, 0)
	}
	as.acc[k] = v
	return v
}

// poison is on in test binaries: pooled dense vectors are overwritten on
// release (NaN, sentinel integers, poison strings), so a result that
// kept one reads garbage and the equivalence tests catch it.
var poison = testing.Testing()

func poisonVector(v bat.Vector) {
	switch x := v.(type) {
	case bat.Ints:
		fill(x[:cap(x)], math.MinInt64+0x5eed)
	case bat.Times:
		fill(x[:cap(x)], math.MinInt64+0x5eed)
	case bat.Floats:
		fill(x[:cap(x)], math.NaN())
	case bat.Strs:
		fill(x[:cap(x)], "\x00released")
	case bat.Bools:
		fill(x[:cap(x)], true)
	}
}

func fill[T any](xs []T, v T) {
	for i := range xs {
		xs[i] = v
	}
}
