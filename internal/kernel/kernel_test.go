package kernel

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"datacell/internal/algebra"
	"datacell/internal/bat"
	"datacell/internal/expr"
	"datacell/internal/plan"
)

// testChunk builds a 4-column chunk (ts TIME, k INT, v FLOAT, tag STR)
// with deterministic contents.
func testChunk(n int) *bat.Chunk {
	sch := bat.Schema{
		Names: []string{"ts", "k", "v", "tag"},
		Kinds: []bat.Kind{bat.Time, bat.Int, bat.Float, bat.Str},
	}
	ts := make(bat.Times, n)
	ks := make(bat.Ints, n)
	vs := make(bat.Floats, n)
	ss := make(bat.Strs, n)
	for i := 0; i < n; i++ {
		ts[i] = int64(i)
		ks[i] = int64(i % 7)
		vs[i] = float64(i%13) * 0.25
		ss[i] = string(rune('a' + i%3))
	}
	return &bat.Chunk{Schema: sch, Cols: []bat.Vector{ts, ks, vs, ss}}
}

func col(idx int, k bat.Kind) *expr.Col              { return &expr.Col{Idx: idx, K: k} }
func intConst(v int64) *expr.Const                   { return &expr.Const{V: bat.IntValue(v)} }
func floatConst(v float64) *expr.Const               { return &expr.Const{V: bat.FloatValue(v)} }
func cmp(op algebra.CmpOp, l, r expr.Expr) *expr.Cmp { return &expr.Cmp{Op: op, L: l, R: r} }

func mustEqualChunks(t *testing.T, got, want *bat.Chunk, what string) {
	t.Helper()
	if got.Rows() != want.Rows() {
		t.Fatalf("%s: rows %d != %d", what, got.Rows(), want.Rows())
	}
	if !reflect.DeepEqual(got.Cols, want.Cols) {
		t.Fatalf("%s: columns differ\ngot  %v\nwant %v", what, got.Cols, want.Cols)
	}
}

func TestViewMaterializeLatches(t *testing.T) {
	c := testChunk(32)
	pred := cmp(algebra.LT, col(1, bat.Int), intConst(3))
	v := Filter(pred, NewView(c))

	want := algebra.FetchChunk(c, expr.EvalPred(pred, c, nil))
	got := v.Materialize()
	mustEqualChunks(t, got, want, "filter view")
	if v.Materialize() != got {
		t.Fatal("Materialize not latched: second call returned a new chunk")
	}
	if v.Rows() != want.Rows() {
		t.Fatalf("Rows() = %d, want %d", v.Rows(), want.Rows())
	}
}

func TestNilSelMaterializeIsIdentity(t *testing.T) {
	c := testChunk(8)
	if NewView(c).Materialize() != c {
		t.Fatal("nil-sel view must materialize to the base chunk itself")
	}
}

// TestFilterComposition proves the fusion identity: threading the
// selection through consecutive filters equals materializing after each.
func TestFilterComposition(t *testing.T) {
	c := testChunk(128)
	p1 := cmp(algebra.GE, col(2, bat.Float), floatConst(0.5))
	p2 := cmp(algebra.NE, col(1, bat.Int), intConst(4))

	fused := Filter(p2, Filter(p1, NewView(c))).Materialize()

	step1 := plan.ApplyStep(plan.PipelineStep{Op: &plan.Filter{Pred: p1}}, c)
	unfused := plan.ApplyStep(plan.PipelineStep{Op: &plan.Filter{Pred: p2}}, step1)
	mustEqualChunks(t, fused, unfused, "composed filters")
}

func TestProjectUnderSelection(t *testing.T) {
	c := testChunk(64)
	pred := cmp(algebra.GT, col(1, bat.Int), intConst(2))
	proj := &plan.Project{
		Exprs: []expr.Expr{col(1, bat.Int), col(2, bat.Float)},
		Out:   bat.Schema{Names: []string{"k", "v"}, Kinds: []bat.Kind{bat.Int, bat.Float}},
	}

	fused := Project(proj.Exprs, proj.Out, Filter(pred, NewView(c))).Materialize()

	filtered := plan.ApplyStep(plan.PipelineStep{Op: &plan.Filter{Pred: pred}}, c)
	unfused := plan.ApplyStep(plan.PipelineStep{Op: proj}, filtered)
	mustEqualChunks(t, fused, unfused, "project under sel")
}

// TestApplyStepFallback routes an operator the fused executor does not
// specialize (Limit) through the materialize-and-fall-back path.
func TestApplyStepFallback(t *testing.T) {
	c := testChunk(16)
	pred := cmp(algebra.LT, col(0, bat.Time), intConst(10))
	lim := plan.PipelineStep{Op: &plan.Limit{N: 3}}

	fused := ApplyStep(lim, Filter(pred, NewView(c))).Materialize()

	filtered := plan.ApplyStep(plan.PipelineStep{Op: &plan.Filter{Pred: pred}}, c)
	unfused := plan.ApplyStep(lim, filtered)
	mustEqualChunks(t, fused, unfused, "fallback step")
}

// TestAggregateMatchesRunAggregate is the pre-sizing correctness proof:
// for every hint, Aggregate over a (filtered) view equals RunAggregate
// over the materialized input — group order, representatives, sums.
func TestAggregateMatchesRunAggregate(t *testing.T) {
	aggSchema := bat.Schema{
		Names: []string{"k", "n", "s", "mx"},
		Kinds: []bat.Kind{bat.Int, bat.Int, bat.Float, bat.Float},
	}
	agg := &plan.Aggregate{
		Keys:     []expr.Expr{col(1, bat.Int)},
		KeyNames: []string{"k"},
		Aggs: []plan.AggSpec{
			{Op: algebra.AggCount, Name: "n"},
			{Op: algebra.AggSum, Arg: col(2, bat.Float), Name: "s"},
			{Op: algebra.AggMax, Arg: col(2, bat.Float), Name: "mx"},
		},
		Out: aggSchema,
	}
	pred := cmp(algebra.GE, col(2, bat.Float), floatConst(0.75))

	for _, rows := range []int{0, 1, 5, 333} {
		c := testChunk(rows)
		v := Filter(pred, NewView(c))
		want := plan.RunAggregate(agg, v.Materialize())
		for _, hint := range []int{0, -3, 1, 7, 4096} {
			// A fresh view per hint: the latched materialization must not
			// leak state between runs.
			got := Aggregate(agg, Filter(pred, NewView(c)), hint)
			mustEqualChunks(t, got, want, "aggregate")
		}
	}
}

// TestAggregateKeyShapes covers the grouping specializations — no keys
// (scalar aggregate), string key, int and string-mixed composites — and
// the key/argument access paths: column references read in place, and
// computed expressions (alone or mixed with column references) evaluate
// under the selection. Each shape runs over the whole chunk, a filtered
// view and a view that filters out every row.
func TestAggregateKeyShapes(t *testing.T) {
	c := testChunk(100)
	kPlus1 := &expr.Arith{Op: expr.Add, L: col(1, bat.Int), R: intConst(1)}
	vTimes2 := &expr.Arith{Op: expr.Mul, L: col(2, bat.Float), R: floatConst(2)}
	cases := []struct {
		name string
		agg  *plan.Aggregate
	}{
		{"no_keys", &plan.Aggregate{
			Aggs: []plan.AggSpec{{Op: algebra.AggCount, Name: "n"},
				{Op: algebra.AggMin, Arg: col(2, bat.Float), Name: "mn"}},
			Out: bat.Schema{Names: []string{"n", "mn"}, Kinds: []bat.Kind{bat.Int, bat.Float}},
		}},
		{"str_key", &plan.Aggregate{
			Keys: []expr.Expr{col(3, bat.Str)}, KeyNames: []string{"tag"},
			Aggs: []plan.AggSpec{{Op: algebra.AggSum, Arg: col(2, bat.Float), Name: "s"}},
			Out:  bat.Schema{Names: []string{"tag", "s"}, Kinds: []bat.Kind{bat.Str, bat.Float}},
		}},
		{"composite_key", &plan.Aggregate{
			Keys: []expr.Expr{col(1, bat.Int), col(3, bat.Str)}, KeyNames: []string{"k", "tag"},
			Aggs: []plan.AggSpec{{Op: algebra.AggCount, Name: "n"}},
			Out:  bat.Schema{Names: []string{"k", "tag", "n"}, Kinds: []bat.Kind{bat.Int, bat.Str, bat.Int}},
		}},
		{"int_composite_key", &plan.Aggregate{
			Keys: []expr.Expr{col(1, bat.Int), col(0, bat.Time)}, KeyNames: []string{"k", "ts"},
			Aggs: []plan.AggSpec{{Op: algebra.AggMax, Arg: col(2, bat.Float), Name: "mx"}},
			Out:  bat.Schema{Names: []string{"k", "ts", "mx"}, Kinds: []bat.Kind{bat.Int, bat.Time, bat.Float}},
		}},
		{"computed_key_and_arg", &plan.Aggregate{
			Keys: []expr.Expr{kPlus1}, KeyNames: []string{"k1"},
			Aggs: []plan.AggSpec{{Op: algebra.AggSum, Arg: vTimes2, Name: "s2"},
				{Op: algebra.AggMin, Arg: col(0, bat.Time), Name: "first"}},
			Out: bat.Schema{Names: []string{"k1", "s2", "first"}, Kinds: []bat.Kind{bat.Int, bat.Float, bat.Time}},
		}},
		{"mixed_keys", &plan.Aggregate{
			Keys: []expr.Expr{col(3, bat.Str), kPlus1}, KeyNames: []string{"tag", "k1"},
			Aggs: []plan.AggSpec{{Op: algebra.AggCount, Name: "n"},
				{Op: algebra.AggSum, Arg: col(1, bat.Int), Name: "sk"}},
			Out: bat.Schema{Names: []string{"tag", "k1", "n", "sk"}, Kinds: []bat.Kind{bat.Str, bat.Int, bat.Int, bat.Int}},
		}},
	}
	some := cmp(algebra.GE, col(2, bat.Float), floatConst(1.5))
	none := cmp(algebra.LT, col(1, bat.Int), intConst(0))
	for _, tc := range cases {
		views := map[string]func() *View{
			"all":      func() *View { return NewView(c) },
			"filtered": func() *View { return Filter(some, NewView(c)) },
			"empty":    func() *View { return Filter(none, NewView(c)) },
		}
		for vname, view := range views {
			want := plan.RunAggregate(tc.agg, view().Materialize())
			got := Aggregate(tc.agg, view(), 2)
			mustEqualChunks(t, got, want, tc.name+"/"+vname)
		}
	}
}

// TestAggregateReadsThroughSelection guards the copy-free access path:
// grouping a filtered view on column-reference keys and arguments must
// not copy any of those columns' surviving rows. What an aggregation
// legitimately allocates per qualifying row is its group-id vector (4
// bytes); one copied key or argument column alone would add 8 bytes per
// row, so the per-run bytes are bounded well below that.
func TestAggregateReadsThroughSelection(t *testing.T) {
	const rows = 1 << 15
	c := testChunk(rows)
	agg := &plan.Aggregate{
		Keys:     []expr.Expr{col(1, bat.Int), col(0, bat.Time)},
		KeyNames: []string{"k", "ts"},
		Aggs: []plan.AggSpec{
			{Op: algebra.AggCount, Name: "n"},
			{Op: algebra.AggSum, Arg: col(2, bat.Float), Name: "s"},
			{Op: algebra.AggMax, Arg: col(1, bat.Int), Name: "mx"},
		},
		Out: bat.Schema{Names: []string{"k", "ts", "n", "s", "mx"},
			Kinds: []bat.Kind{bat.Int, bat.Time, bat.Int, bat.Float, bat.Int}},
	}
	// Fold the (per-row distinct) timestamps into a small domain so the
	// composite key forms a few dozen groups.
	ts := c.Cols[0].(bat.Times)
	for i := range ts {
		ts[i] %= 8
	}
	v := Filter(cmp(algebra.GE, col(2, bat.Float), floatConst(1.5)), NewView(c))
	sel := v.Rows()
	if sel < rows/2 {
		t.Fatalf("filter kept %d of %d rows; the test needs most of them", sel, rows)
	}
	groups := Aggregate(agg, v, 0).Rows()

	// Each figure is the cheapest of several runs: the grouping's pooled
	// hash scratch is occasionally dropped (by a GC, or at random under
	// the race detector), and a run that re-creates it is not the steady
	// state being measured.
	const runs = 20
	run := func() { Aggregate(agg, v, groups) }
	allocs, bytes := math.Inf(1), math.Inf(1)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		allocs = math.Min(allocs, testing.AllocsPerRun(1, run))
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		bytes = math.Min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	// Allocations: three for the key list, output list and chunk; five
	// for the grouping (column list, slots, group hashes, group ids,
	// representatives); per output column its vector and interface box;
	// one more for max's seen mask. A key or argument copied through the
	// selection would add its own vector and box on top.
	if budget := float64(3 + 5 + 2*len(agg.Out.Names) + 1); allocs > budget {
		t.Errorf("Aggregate made %.0f allocations per run, budget %.0f", allocs, budget)
	}
	// Bytes: the group ids plus a generous fixed allowance for the
	// per-group outputs and table; one copied 8-byte column alone would
	// add 8 bytes per qualifying row.
	budget := float64(4*sel + 64*groups*len(agg.Out.Names) + 64<<10)
	if bytes > budget || budget >= float64(12*sel) {
		t.Errorf("Aggregate allocated %.0f B per run over %d qualifying rows (budget %.0f B)", bytes, sel, budget)
	}
}

func TestEmptyWindow(t *testing.T) {
	c := testChunk(0)
	pred := cmp(algebra.GT, col(1, bat.Int), intConst(0))
	v := Filter(pred, NewView(c))
	if v.Rows() != 0 {
		t.Fatalf("empty window filtered to %d rows", v.Rows())
	}
	m := v.Materialize()
	if m.Rows() != 0 {
		t.Fatalf("empty window materialized to %d rows", m.Rows())
	}
	proj := Project([]expr.Expr{col(1, bat.Int)},
		bat.Schema{Names: []string{"k"}, Kinds: []bat.Kind{bat.Int}}, v)
	if proj.Rows() != 0 {
		t.Fatal("projection of empty window not empty")
	}
}

// TestPrefilterEquivalence: pushing a filter prefix to slice time then
// running the chain with the prefix skipped equals running the full
// chain over raw data — the pushdown identity.
func TestPrefilterEquivalence(t *testing.T) {
	c := testChunk(256)
	p1 := cmp(algebra.LT, col(1, bat.Int), intConst(5))
	p2 := cmp(algebra.GE, col(2, bat.Float), floatConst(0.25))
	steps := []plan.PipelineStep{
		{Op: &plan.Filter{Pred: p1}},
		{Op: &plan.Filter{Pred: p2}},
	}
	agg := &plan.Aggregate{
		Keys: []expr.Expr{col(1, bat.Int)}, KeyNames: []string{"k"},
		Aggs: []plan.AggSpec{{Op: algebra.AggSum, Arg: col(2, bat.Float), Name: "s"}},
		Out:  bat.Schema{Names: []string{"k", "s"}, Kinds: []bat.Kind{bat.Int, bat.Float}},
	}

	full := &Pipeline{steps: steps, agg: agg, needOut: true}
	outFull, partFull := full.Run(c)

	pushed := &Pipeline{steps: steps, agg: agg, needOut: true}
	preds := pushed.LeadingFilters()
	if len(preds) != 2 {
		t.Fatalf("LeadingFilters = %d preds, want 2", len(preds))
	}
	pushed.SetSkip(len(preds))
	pre := Prefilter(preds)
	outPushed, partPushed := pushed.Run(pre(c))

	mustEqualChunks(t, outPushed, outFull, "pushed out")
	mustEqualChunks(t, partPushed, partFull, "pushed partial")
}

// TestLeadingFiltersStopAtNonFilter: only the filter prefix is eligible
// for pushdown; a projection ends it.
func TestLeadingFiltersStopAtNonFilter(t *testing.T) {
	p := &Pipeline{steps: []plan.PipelineStep{
		{Op: &plan.Filter{Pred: cmp(algebra.GT, col(1, bat.Int), intConst(1))}},
		{Op: &plan.Project{Exprs: []expr.Expr{col(1, bat.Int)},
			Out: bat.Schema{Names: []string{"k"}, Kinds: []bat.Kind{bat.Int}}}},
		{Op: &plan.Filter{Pred: cmp(algebra.LT, col(0, bat.Int), intConst(5))}},
	}}
	if got := len(p.LeadingFilters()); got != 1 {
		t.Fatalf("LeadingFilters = %d, want 1 (projection ends the prefix)", got)
	}
}

// TestRunNoOutForAggChains: with needOut unset, an aggregate chain skips
// materializing the pipeline output entirely.
func TestRunNoOutForAggChains(t *testing.T) {
	c := testChunk(64)
	agg := &plan.Aggregate{
		Keys: []expr.Expr{col(1, bat.Int)}, KeyNames: []string{"k"},
		Aggs: []plan.AggSpec{{Op: algebra.AggCount, Name: "n"}},
		Out:  bat.Schema{Names: []string{"k", "n"}, Kinds: []bat.Kind{bat.Int, bat.Int}},
	}
	kp := &Pipeline{steps: []plan.PipelineStep{
		{Op: &plan.Filter{Pred: cmp(algebra.LT, col(1, bat.Int), intConst(3))}},
	}, agg: agg}
	out, partial := kp.Run(c)
	if out != nil {
		t.Fatal("needOut=false aggregate chain materialized its output")
	}
	want := plan.RunAggregate(agg,
		plan.ApplyStep(plan.PipelineStep{Op: kp.steps[0].Op}, c))
	mustEqualChunks(t, partial, want, "partial without out")
}
