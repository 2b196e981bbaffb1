package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"datacell/internal/algebra"
	"datacell/internal/bat"
	"datacell/internal/expr"
	"datacell/internal/plan"
)

// runsSchema is the differential tests' raw window layout: every key
// family the grouping kernels specialize on (integer, time, float,
// string, bool) plus a float value column.
var runsSchema = bat.Schema{
	Names: []string{"ts", "k", "g", "v", "tag", "ok"},
	Kinds: []bat.Kind{bat.Time, bat.Int, bat.Int, bat.Float, bat.Str, bat.Bool},
}

// randomWindow builds an n-row chunk of runsSchema. Values are multiples
// of 0.1, which binary floating point cannot represent exactly, so any
// change in summation order shows up in the result bits.
func randomWindow(rng *rand.Rand, n int) *bat.Chunk {
	ts := make(bat.Times, n)
	ks := make(bat.Ints, n)
	gs := make(bat.Ints, n)
	vs := make(bat.Floats, n)
	tags := make(bat.Strs, n)
	oks := make(bat.Bools, n)
	for i := 0; i < n; i++ {
		ts[i] = int64(i) * 1000
		ks[i] = int64(rng.Intn(7))
		gs[i] = int64(rng.Intn(5000)) - 2500
		vs[i] = float64(rng.Intn(2000)-1000) * 0.1
		tags[i] = string(rune('a' + rng.Intn(5)))
		oks[i] = rng.Intn(3) == 0
	}
	return &bat.Chunk{Schema: runsSchema, Cols: []bat.Vector{ts, ks, gs, vs, tags, oks}}
}

// randomSplit cuts c into runs at random boundaries: views over c, some
// of them a single row, in order.
func randomSplit(rng *rand.Rand, c *bat.Chunk) *bat.Runs {
	r := bat.NewRuns(c.Schema)
	for lo := 0; lo < c.Rows(); {
		hi := lo + 1 + rng.Intn(1+c.Rows()/3)
		if rng.Intn(4) == 0 {
			hi = lo + 1
		}
		hi = min(hi, c.Rows())
		r.Append(c.Slice(lo, hi))
		lo = hi
	}
	return r
}

// mustSameBytes compares two chunks by their wire encoding — schema,
// kinds and every value bit.
func mustSameBytes(t *testing.T, got, want *bat.Chunk, what string) {
	t.Helper()
	g, w := bat.MarshalChunk(nil, got), bat.MarshalChunk(nil, want)
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: runs and concatenation differ\nruns:   %v\nconcat: %v", what, got, want)
	}
}

func aggSpec(keys []expr.Expr, aggs ...plan.AggSpec) *plan.Aggregate {
	a := &plan.Aggregate{Keys: keys, Aggs: aggs}
	for i, k := range keys {
		name := fmt.Sprintf("k%d", i)
		a.KeyNames = append(a.KeyNames, name)
		a.Out.Names = append(a.Out.Names, name)
		a.Out.Kinds = append(a.Out.Kinds, k.Kind())
	}
	for i := range aggs {
		aggs[i].Name = fmt.Sprintf("a%d", i)
		kind := bat.Int
		if aggs[i].Op != algebra.AggCount {
			kind = aggs[i].Arg.Kind()
			if aggs[i].Op == algebra.AggSum && kind == bat.Time {
				kind = bat.Int
			}
		}
		a.Out.Names = append(a.Out.Names, aggs[i].Name)
		a.Out.Kinds = append(a.Out.Kinds, kind)
	}
	return a
}

// TestRunBoundaryInvariance is the kernels' run-boundary contract: over a
// window split into runs at random boundaries, with and without
// selections, Filter, both Project forms, Aggregate (every AggOp, every
// key family, zero keys, empty selections), Distinct, Sort, Limit and
// Materialize are
// byte-identical to the same operators over bat.Concat of the runs.
// Run boundaries follow producer batch sizes and drain timing, so
// results must never depend on them.
func TestRunBoundaryInvariance(t *testing.T) {
	ts, k, g := col(0, bat.Time), col(1, bat.Int), col(2, bat.Int)
	v, tag, ok := col(3, bat.Float), col(4, bat.Str), col(5, bat.Bool)
	vTimes3 := &expr.Arith{Op: expr.Mul, L: v, R: floatConst(3)}
	kPlusG := &expr.Arith{Op: expr.Add, L: k, R: g}
	upper := &expr.Func{Name: "upper", Args: []expr.Expr{tag}, K: bat.Str}

	every := func(arg expr.Expr) []plan.AggSpec {
		return []plan.AggSpec{{Op: algebra.AggCount}, {Op: algebra.AggSum, Arg: arg},
			{Op: algebra.AggMin, Arg: arg}, {Op: algebra.AggMax, Arg: arg}}
	}
	aggs := map[string]*plan.Aggregate{
		"no_keys":       aggSpec(nil, every(v)...),
		"int_key":       aggSpec([]expr.Expr{k}, every(v)...),
		"int_key_ints":  aggSpec([]expr.Expr{k}, every(g)...),
		"wide_int_key":  aggSpec([]expr.Expr{g}, every(ts)...),
		"int_composite": aggSpec([]expr.Expr{k, ts}, every(v)...),
		"float_key":     aggSpec([]expr.Expr{v}, every(g)...),
		"str_key":       aggSpec([]expr.Expr{tag}, every(v)...),
		"str_min_max":   aggSpec([]expr.Expr{k}, plan.AggSpec{Op: algebra.AggMin, Arg: tag}, plan.AggSpec{Op: algebra.AggMax, Arg: tag}),
		"mixed_key":     aggSpec([]expr.Expr{tag, k, ok}, every(v)...),
		"bool_key":      aggSpec([]expr.Expr{ok}, every(v)...),
		"computed":      aggSpec([]expr.Expr{kPlusG, k}, every(vTimes3)...),
		"same_col_twice": aggSpec([]expr.Expr{k},
			plan.AggSpec{Op: algebra.AggSum, Arg: k}, plan.AggSpec{Op: algebra.AggMax, Arg: k}),
	}
	preds := map[string]expr.Expr{
		"none":     nil,
		"half":     cmp(algebra.GE, v, floatConst(0)),
		"sparse":   &expr.Logic{Op: expr.And, L: cmp(algebra.EQ, k, intConst(3)), R: cmp(algebra.LT, v, floatConst(50))},
		"or":       &expr.Logic{Op: expr.Or, L: cmp(algebra.EQ, tag, &expr.Const{V: bat.StrValue("b")}), R: cmp(algebra.GT, g, intConst(2000))},
		"not":      &expr.Logic{Op: expr.Not, L: cmp(algebra.LT, k, intConst(4))},
		"computed": cmp(algebra.GT, kPlusG, intConst(0)),
		"empty":    cmp(algebra.LT, k, intConst(0)),
	}
	projOut := bat.Schema{Names: []string{"v", "tag", "k"}, Kinds: []bat.Kind{bat.Float, bat.Str, bat.Int}}
	refs := []expr.Expr{v, tag, k}
	compOut := bat.Schema{Names: []string{"v3", "kg", "up"}, Kinds: []bat.Kind{bat.Float, bat.Int, bat.Str}}
	computed := []expr.Expr{vTimes3, kPlusG, upper}
	// The project-then-aggregate chains read the projected layouts.
	aggRefs := aggSpec([]expr.Expr{col(1, bat.Str), col(2, bat.Int)}, every(col(0, bat.Float))...)
	aggComp := aggSpec([]expr.Expr{col(2, bat.Str)}, every(col(0, bat.Float))...)

	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 40; iter++ {
		c := randomWindow(rng, []int{0, 1, 2, 17, 300, 1000}[iter%6])
		runs := randomSplit(rng, c)
		dense := runs.Concat()
		for pname, pred := range preds {
			view := func(base *View) *View {
				if pred == nil {
					return base
				}
				return Filter(pred, base)
			}
			rv, dv := view(RunsView(runs)), view(NewView(dense))
			what := fmt.Sprintf("iter %d (%d rows, %d runs) pred %s", iter, c.Rows(), len(runs.Chunks), pname)
			if rv.Rows() != dv.Rows() {
				t.Fatalf("%s: Rows %d, want %d", what, rv.Rows(), dv.Rows())
			}
			mustSameBytes(t, rv.Materialize(), dv.Materialize(), what+" materialize")
			for aname, a := range aggs {
				for _, hint := range []int{0, 3} {
					mustSameBytes(t, Aggregate(a, view(RunsView(runs)), hint),
						Aggregate(a, view(NewView(dense)), hint), what+" aggregate "+aname)
				}
			}
			rp, dp := Project(refs, projOut, view(RunsView(runs))), Project(refs, projOut, view(NewView(dense)))
			mustSameBytes(t, rp.Materialize(), dp.Materialize(), what+" project refs")
			mustSameBytes(t, Aggregate(aggRefs, Project(refs, projOut, view(RunsView(runs))), 0),
				Aggregate(aggRefs, dp, 0), what+" project refs → aggregate")
			rc, dc := Project(computed, compOut, view(RunsView(runs))), Project(computed, compOut, view(NewView(dense)))
			mustSameBytes(t, rc.Materialize(), dc.Materialize(), what+" project computed")
			mustSameBytes(t, Aggregate(aggComp, Project(computed, compOut, view(RunsView(runs))), 0),
				Aggregate(aggComp, dc, 0), what+" project computed → aggregate")
			// A second filter over the first composes per run.
			second := cmp(algebra.NE, k, intConst(1))
			mustSameBytes(t, Filter(second, view(RunsView(runs))).Materialize(),
				Filter(second, view(NewView(dense))).Materialize(), what+" filter∘filter")
			// A re-evaluated window reaches the row-reordering operators
			// as runs too.
			for _, op := range []plan.Node{&plan.Distinct{}, &plan.Limit{N: 5},
				&plan.Sort{Keys: []plan.SortSpec{{Col: 4}, {Col: 2, Desc: true}}}} {
				st := plan.PipelineStep{Op: op}
				mustSameBytes(t, ApplyStep(st, view(RunsView(runs))).Materialize(),
					ApplyStep(st, view(NewView(dense))).Materialize(), fmt.Sprintf("%s %T", what, op))
			}
		}
	}
}

// TestAggregateRunsOutputOutlivesScratch: a multi-run Aggregate gathers
// its keys and arguments into pooled scratch vectors and releases them on
// return, so its output must not alias them. Later calls that reuse (and
// overwrite) the scratch must leave earlier results intact.
func TestAggregateRunsOutputOutlivesScratch(t *testing.T) {
	k, v, tag, ts := col(1, bat.Int), col(3, bat.Float), col(4, bat.Str), col(0, bat.Time)
	agg := aggSpec([]expr.Expr{tag, k},
		plan.AggSpec{Op: algebra.AggSum, Arg: v}, plan.AggSpec{Op: algebra.AggMin, Arg: tag},
		plan.AggSpec{Op: algebra.AggMax, Arg: ts}, plan.AggSpec{Op: algebra.AggMax, Arg: &expr.Arith{Op: expr.Mul, L: v, R: floatConst(2)}})
	rng := rand.New(rand.NewSource(5))
	first := Aggregate(agg, RunsView(randomSplit(rng, randomWindow(rng, 500))), 0)
	want := bat.MarshalChunk(nil, first)
	for i := 0; i < 20; i++ {
		Aggregate(agg, RunsView(randomSplit(rng, randomWindow(rng, 500+i))), 0)
	}
	if !bytes.Equal(bat.MarshalChunk(nil, first), want) {
		t.Fatal("a later Aggregate over runs overwrote an earlier result: the output aliases pooled scratch")
	}
}

// TestRunsViewKeepsSizeClass: a view, single-run or not, stays one 64-byte
// allocation — the size class fanout-style single-run windows allocated
// before views could hold runs.
func TestRunsViewKeepsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(View{}); n > 64 {
		t.Fatalf("View is %d bytes; the runs must stay behind one pointer to keep the 64-byte size class", n)
	}
	c := testChunk(8)
	if v := RunsView(bat.NewRuns(c.Schema, c)); v.runs != nil || v.Base != c {
		t.Fatal("a single-run window is not a plain view over its chunk")
	}
}

// BenchmarkAggregateRuns groups a 4096-row filtered window on a 3-column
// integer key (the Linear Road (xway, dir, seg) shape) held as 1, 2 and
// 4 runs. One run reads the columns in place; more runs gather the key
// and argument columns first — B/op shows what that gather costs.
func BenchmarkAggregateRuns(b *testing.B) {
	const rows = 4096
	rng := rand.New(rand.NewSource(1))
	c := randomWindow(rng, rows)
	ts, ks, gs := c.Cols[0].(bat.Times), c.Cols[1].(bat.Ints), c.Cols[2].(bat.Ints)
	for i := 0; i < rows; i++ {
		ts[i], ks[i], gs[i] = int64(i%2), int64(i%4), int64(i/7%100)
	}
	agg := aggSpec([]expr.Expr{col(1, bat.Int), col(0, bat.Time), col(2, bat.Int)},
		plan.AggSpec{Op: algebra.AggCount}, plan.AggSpec{Op: algebra.AggSum, Arg: col(3, bat.Float)})
	pred := cmp(algebra.GE, col(3, bat.Float), floatConst(-50))
	for _, n := range []int{1, 2, 4} {
		runs := bat.NewRuns(c.Schema)
		for i := 0; i < n; i++ {
			runs.Append(c.Slice(i*rows/n, (i+1)*rows/n))
		}
		b.Run(fmt.Sprintf("runs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Aggregate(agg, Filter(pred, RunsView(runs)), 64)
			}
		})
	}
}

// TestAggregateStepsMatchesMemoizedChain: a fused chain's aggregate —
// its selections built in scratch and released on return — is
// byte-identical to Aggregate over the same chain applied step by step,
// over one run and over several, for one filter, two filters (the second
// reads the first's selection), filters around a column-reference
// projection, and filters keeping no, some and every row. Test binaries
// poison released scratch and every later call reuses it, so a release
// before the aggregate, or between steps, reads poison; and a result
// that still referenced a call's views or selections after it returned
// would change under the later calls, which the final comparison of
// every result catches.
func TestAggregateStepsMatchesMemoizedChain(t *testing.T) {
	ts, k, g, v, tag := col(0, bat.Time), col(1, bat.Int), col(2, bat.Int), col(3, bat.Float), col(4, bat.Str)
	agg := aggSpec([]expr.Expr{k, tag},
		plan.AggSpec{Op: algebra.AggCount}, plan.AggSpec{Op: algebra.AggSum, Arg: v},
		plan.AggSpec{Op: algebra.AggMax, Arg: g}, plan.AggSpec{Op: algebra.AggMin, Arg: ts})
	step := func(op plan.Node) Step { return CompileStep(plan.PipelineStep{Op: op}) }
	filter := func(pred expr.Expr) Step { return step(&plan.Filter{Pred: pred}) }
	some, second := filter(cmp(algebra.GT, v, floatConst(0))), filter(cmp(algebra.LT, g, intConst(1000)))
	none, all := filter(cmp(algebra.LT, g, intConst(-5000))), filter(cmp(algebra.GE, ts, intConst(0)))
	// Column 0 moves, so the map is not an identity; the aggregate's
	// columns keep their positions.
	proj := step(&plan.Project{Exprs: []expr.Expr{tag, k, g, v, tag}, Out: bat.Schema{
		Names: []string{"t0", "k", "g", "v", "tag"},
		Kinds: []bat.Kind{bat.Str, bat.Int, bat.Int, bat.Float, bat.Str}}})
	chains := [][]Step{{some}, {some, second}, {proj, some}, {some, proj, second}, {none}, {all}, {all, second}, {}}

	type result struct {
		got  *bat.Chunk
		want []byte
		what string
	}
	var results []result
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 8; round++ {
		c := randomWindow(rng, 200+rng.Intn(600))
		for ci, chain := range chains {
			for _, runs := range []bool{false, true} {
				in := func() *View {
					if runs {
						return RunsView(randomSplit(rng, c))
					}
					return NewView(c)
				}
				memo := in()
				steps := make([]*Step, len(chain))
				for i := range chain {
					memo = chain[i].Apply(memo, nil)
					steps[i] = &chain[i]
				}
				want := Aggregate(agg, memo, 0)
				got := AggregateSteps(agg, steps, in(), 0)
				what := fmt.Sprintf("round %d, chain %d, runs %v", round, ci, runs)
				mustSameBytes(t, got, want, what)
				results = append(results, result{got, bat.MarshalChunk(nil, want), what})
			}
		}
	}
	for _, r := range results {
		if !bytes.Equal(bat.MarshalChunk(nil, r.got), r.want) {
			t.Fatalf("%s: a later fused aggregate changed this result: it references released scratch", r.what)
		}
	}
}

// TestMaterializeStepsMatchesMemoizedChain: MaterializeSteps is
// byte-identical to applying the same compiled steps one by one and
// materializing the last view, for post-merge-shaped chains over a dense
// chunk — filters keeping none, some or every row, column-reference and
// computed projections, sorts, limits shorter and longer than the input,
// distinct. Every result is re-checked after later calls reused (and, in
// a test binary, poisoned) the pooled scratch, so a result that kept a
// scratch selection fails here.
func TestMaterializeStepsMatchesMemoizedChain(t *testing.T) {
	k, g, v, tag := col(1, bat.Int), col(2, bat.Int), col(3, bat.Float), col(4, bat.Str)
	step := func(op plan.Node) Step { return CompileStep(plan.PipelineStep{Op: op}) }
	filter := func(pred expr.Expr) Step { return step(&plan.Filter{Pred: pred}) }
	some, second := filter(cmp(algebra.GT, v, floatConst(0))), filter(cmp(algebra.LT, g, intConst(1000)))
	none, all := filter(cmp(algebra.LT, g, intConst(-5000))), filter(cmp(algebra.GE, col(0, bat.Time), intConst(0)))
	refs := step(&plan.Project{Exprs: []expr.Expr{tag, k, v}, Out: bat.Schema{
		Names: []string{"tag", "k", "v"}, Kinds: []bat.Kind{bat.Str, bat.Int, bat.Float}}})
	ident := step(&plan.Project{Exprs: []expr.Expr{col(0, bat.Time), k}, Out: bat.Schema{
		Names: []string{"ts", "k"}, Kinds: []bat.Kind{bat.Time, bat.Int}}})
	computed := step(&plan.Project{Exprs: []expr.Expr{k, &expr.Arith{Op: expr.Add, L: v, R: floatConst(1)}}, Out: bat.Schema{
		Names: []string{"k", "v1"}, Kinds: []bat.Kind{bat.Int, bat.Float}}})
	sorted := step(&plan.Sort{Keys: []plan.SortSpec{{Col: 2, Desc: true}, {Col: 0}}})
	short, long := step(&plan.Limit{N: 5}), step(&plan.Limit{N: 1 << 20})
	distinct := step(&plan.Distinct{})
	chains := [][]Step{
		{}, {some}, {none}, {all}, {some, second}, {some, refs}, {none, refs}, {all, refs},
		{all, ident}, {none, ident}, {some, computed}, {none, computed}, {some, refs, sorted},
		{some, refs, sorted, short}, {some, refs, long}, {long, some, refs}, {all, long, second},
		{some, refs, distinct}, {short, some},
	}

	type result struct {
		got  *bat.Chunk
		want []byte
		what string
	}
	var results []result
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 6; round++ {
		c := randomWindow(rng, 100+rng.Intn(400))
		for ci, chain := range chains {
			memo := NewView(c)
			steps := make([]*Step, len(chain))
			for i := range chain {
				memo = chain[i].Apply(memo, nil)
				steps[i] = &chain[i]
			}
			want := memo.Materialize()
			got := MaterializeSteps(steps, c)
			what := fmt.Sprintf("round %d, chain %d", round, ci)
			mustSameBytes(t, got, want, what)
			results = append(results, result{got, bat.MarshalChunk(nil, want), what})
		}
	}
	for _, r := range results {
		if !bytes.Equal(bat.MarshalChunk(nil, r.got), r.want) {
			t.Fatalf("%s: a later call changed this result: it references released scratch", r.what)
		}
	}

	// A chain that rejects every row and then re-indexes returns the
	// step's cached empty chunk, and a warm call allocates nothing else.
	c := randomWindow(rng, 256)
	empty := []*Step{&none, &refs}
	if got := MaterializeSteps(empty, c); got.Rows() != 0 || got != MaterializeSteps(empty, c) {
		t.Fatalf("empty result is not the step's cached chunk: %d rows", got.Rows())
	}
	if !raceEnabled {
		if b := minAllocBytes(func() { MaterializeSteps(empty, c) }); b != 0 {
			t.Errorf("warm empty MaterializeSteps allocated %.0f B, want 0", b)
		}
	}
}
