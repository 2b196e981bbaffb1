package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"datacell/internal/algebra"
	"datacell/internal/bat"
	"datacell/internal/expr"
	"datacell/internal/plan"
)

// TestAggregateSetMatchesSteps: every partial of a sibling set equals
// AggregateSteps of the sibling's own chain over the same view, byte for
// byte, for integer, time, string, composite and high-cardinality keys
// and every aggregate op. Chains keep no row, some rows, every row (with
// and without a filter), and re-index through a projection, whose key
// columns the set maps back to the ancestor's. A set whose selections
// cover the window one and a quarter times shares its grouping; one of
// selective chains, or one whose selections add up to exactly the
// window, groups each sibling alone.
// Results are re-checked after later calls reused (and, in a test binary,
// poisoned) the pooled groupings and accumulators.
func TestAggregateSetMatchesSteps(t *testing.T) {
	kinds := runsSchema.Kinds
	step := func(op plan.Node) Step { return CompileStep(plan.PipelineStep{Op: op}) }
	filter := func(pred expr.Expr) Step { return step(&plan.Filter{Pred: pred}) }
	ts, k, g, v := col(0, bat.Time), col(1, bat.Int), col(2, bat.Int), col(3, bat.Float)
	some, second := filter(cmp(algebra.GT, v, floatConst(0))), filter(cmp(algebra.LT, g, intConst(1000)))
	none, all := filter(cmp(algebra.LT, g, intConst(-5000))), filter(cmp(algebra.GE, ts, intConst(0)))
	few := filter(cmp(algebra.EQ, k, intConst(3)))
	// perm re-indexes the window's first five columns: after it, column i
	// is the window's column perm[i]. A chain through it aggregates the
	// same window columns at their new positions.
	perm := []int{4, 0, 3, 2, 1}
	var permExprs []expr.Expr
	var permOut bat.Schema
	for i, j := range perm {
		permExprs = append(permExprs, col(j, kinds[j]))
		permOut.Names = append(permOut.Names, fmt.Sprintf("p%d", i))
		permOut.Kinds = append(permOut.Kinds, kinds[j])
	}
	proj := step(&plan.Project{Exprs: permExprs, Out: permOut})
	permuted := func(c *expr.Col) expr.Expr {
		for i, j := range perm {
			if j == c.Idx {
				return col(i, c.K)
			}
		}
		panic("column not projected")
	}
	type chain struct {
		steps    []Step
		permuted bool // the chain ends behind proj
	}
	covering := []chain{{[]Step{some}, false}, {nil, false}, {[]Step{none}, false}, {[]Step{proj, second}, true},
		{[]Step{some, proj}, true}, {[]Step{all}, false}, {[]Step{all, second}, false}, {[]Step{few}, false}}
	selective := []chain{{[]Step{none}, false}, {[]Step{few}, false}, {[]Step{some, proj}, true}}
	// exact's selections add up to exactly the window's rows: too few
	// for a shared grouping to pay.
	exact := []chain{{[]Step{none}, false}, {nil, false}, {[]Step{none, proj}, true}}
	// agg aggregates by keys (window columns) with every op, through proj
	// when permuted.
	agg := func(keys []*expr.Col, permuted func(*expr.Col) expr.Expr) *plan.Aggregate {
		ref := func(c *expr.Col) expr.Expr { return c }
		if permuted != nil {
			ref = permuted
		}
		var ks []expr.Expr
		for _, c := range keys {
			ks = append(ks, ref(c))
		}
		return aggSpec(ks,
			plan.AggSpec{Op: algebra.AggCount}, plan.AggSpec{Op: algebra.AggSum, Arg: ref(v)},
			plan.AggSpec{Op: algebra.AggSum, Arg: ref(g)}, plan.AggSpec{Op: algebra.AggMax, Arg: ref(g)},
			plan.AggSpec{Op: algebra.AggMin, Arg: ref(v)}, plan.AggSpec{Op: algebra.AggMin, Arg: ref(col(4, bat.Str))},
			plan.AggSpec{Op: algebra.AggSum, Arg: ref(ts)}, plan.AggSpec{Op: algebra.AggMax, Arg: ref(ts)})
	}
	keySets := [][]*expr.Col{{k}, {ts}, {col(4, bat.Str)}, {k, col(4, bat.Str)}, {g}, {}}

	type result struct {
		got  *bat.Chunk
		want []byte
		what string
	}
	var results []result
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 6; round++ {
		c := randomWindow(rng, 100+rng.Intn(700))
		for ki, keys := range keySets {
			for si, chains := range [][]chain{covering, selective, exact} {
				sibs := make([]*Sibling, len(chains))
				aggs := make([]*plan.Aggregate, len(chains))
				steps := make([][]*Step, len(chains))
				for i, ch := range chains {
					if ch.permuted {
						aggs[i] = agg(keys, permuted)
					} else {
						aggs[i] = agg(keys, nil)
					}
					for j := range ch.steps {
						steps[i] = append(steps[i], &ch.steps[j])
					}
					s, ok := NewSibling(aggs[i], steps[i])
					if !ok {
						t.Fatalf("chain %d is not a sibling", i)
					}
					if i > 0 && fmt.Sprint(s.Keys()) != fmt.Sprint(sibs[0].Keys()) {
						t.Fatalf("chain %d maps its keys to %v, chain 0 to %v", i, s.Keys(), sibs[0].Keys())
					}
					sibs[i] = s
				}
				out := make([]*bat.Chunk, len(sibs))
				shared := AggregateSet(sibs, NewView(c), rng.Intn(64), out)
				if want := si == 0; shared != want {
					t.Fatalf("round %d keys %d set %d: shared %v, want %v", round, ki, si, shared, want)
				}
				for i := range sibs {
					want := AggregateSteps(aggs[i], steps[i], NewView(c), 0)
					what := fmt.Sprintf("round %d, keys %d, set %d, chain %d", round, ki, si, i)
					mustSameBytes(t, out[i], want, what)
					results = append(results, result{out[i], bat.MarshalChunk(nil, want), what})
				}
			}
		}
	}
	for _, r := range results {
		if !bytes.Equal(bat.MarshalChunk(nil, r.got), r.want) {
			t.Fatalf("%s: a later set evaluation changed this result: it references released scratch", r.what)
		}
	}
}

// TestNewSiblingRejectsComputed: a chain through a computed projection,
// a computed key or a computed argument cannot share a grouping.
func TestNewSiblingRejectsComputed(t *testing.T) {
	k, v := col(1, bat.Int), col(3, bat.Float)
	twice := &expr.Arith{Op: expr.Mul, L: v, R: floatConst(2)}
	computed := CompileStep(plan.PipelineStep{Op: &plan.Project{Exprs: []expr.Expr{k, twice},
		Out: bat.Schema{Names: []string{"k", "w"}, Kinds: []bat.Kind{bat.Int, bat.Float}}}})
	for what, tc := range map[string]struct {
		agg   *plan.Aggregate
		steps []*Step
	}{
		"computed projection": {aggSpec([]expr.Expr{col(0, bat.Int)}, plan.AggSpec{Op: algebra.AggCount}), []*Step{&computed}},
		"computed key":        {aggSpec([]expr.Expr{twice}, plan.AggSpec{Op: algebra.AggCount}), nil},
		"computed argument":   {aggSpec([]expr.Expr{k}, plan.AggSpec{Op: algebra.AggSum, Arg: twice}), nil},
	} {
		if _, ok := NewSibling(tc.agg, tc.steps); ok {
			t.Errorf("%s: accepted as a sibling", what)
		}
	}
}
