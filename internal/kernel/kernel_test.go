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

	step1 := refStep(plan.PipelineStep{Op: &plan.Filter{Pred: p1}}, c)
	dense := refStep(plan.PipelineStep{Op: &plan.Filter{Pred: p2}}, step1)
	mustEqualChunks(t, fused, dense, "composed filters")
}

func TestProjectUnderSelection(t *testing.T) {
	c := testChunk(64)
	pred := cmp(algebra.GT, col(1, bat.Int), intConst(2))
	proj := &plan.Project{
		Exprs: []expr.Expr{col(1, bat.Int), col(2, bat.Float)},
		Out:   bat.Schema{Names: []string{"k", "v"}, Kinds: []bat.Kind{bat.Int, bat.Float}},
	}

	fused := Project(proj.Exprs, proj.Out, Filter(pred, NewView(c))).Materialize()

	filtered := refStep(plan.PipelineStep{Op: &plan.Filter{Pred: pred}}, c)
	dense := refStep(plan.PipelineStep{Op: proj}, filtered)
	mustEqualChunks(t, fused, dense, "project under sel")
}

// TestCompiledProjectMatchesUnfused: a compiled column-reference
// projection over a filtered view (reordering and repeating columns)
// attaches its column map without building a chunk, and every consumer
// of the re-indexed view — Materialize, a further filter, an aggregate —
// reads exactly what the dense reference computes over the projected
// rows. With no selection the materialized chunk shares the base columns.
func TestCompiledProjectMatchesUnfused(t *testing.T) {
	c := testChunk(64)
	filter := plan.PipelineStep{Op: &plan.Filter{Pred: cmp(algebra.GT, col(1, bat.Int), intConst(2))}}
	proj := plan.PipelineStep{Op: &plan.Project{
		Exprs: []expr.Expr{col(2, bat.Float), col(1, bat.Int), col(2, bat.Float)},
		Out:   bat.Schema{Names: []string{"v", "k", "v2"}, Kinds: []bat.Kind{bat.Float, bat.Int, bat.Float}},
	}}
	fs, ps := CompileStep(filter), CompileStep(proj)
	var cell View
	v := ps.Apply(fs.Apply(NewView(c), nil), &cell)
	if v != &cell || v.proj == nil {
		t.Fatal("compiled projection of a single-run view did not re-index in place")
	}
	dense := refStep(proj, refStep(filter, c))
	mustEqualChunks(t, v.Materialize(), dense, "compiled project")

	pred := cmp(algebra.LT, col(0, bat.Float), floatConst(2))
	again := fs.Apply(ps.Apply(NewView(c), nil), nil)
	refilter := Filter(pred, again)
	mustEqualChunks(t, refilter.Materialize(),
		refStep(plan.PipelineStep{Op: &plan.Filter{Pred: pred}}, refStep(filter, refStep(proj, c))),
		"filter over re-indexed view")

	agg := &plan.Aggregate{
		Keys: []expr.Expr{col(1, bat.Int)}, KeyNames: []string{"k"},
		Aggs: []plan.AggSpec{{Op: algebra.AggSum, Arg: col(2, bat.Float), Name: "s"}},
		Out:  bat.Schema{Names: []string{"k", "s"}, Kinds: []bat.Kind{bat.Int, bat.Float}},
	}
	mustEqualChunks(t, Aggregate(agg, v, 0), refAggregate(agg, dense), "aggregate over re-indexed view")

	whole := ps.Apply(NewView(c), nil).Materialize()
	if firstFloat(whole.Cols[0]) != firstFloat(c.Cols[2]) {
		t.Fatal("re-indexing an unselected view copied a column")
	}
}

func firstFloat(v bat.Vector) *float64 { return &v.(bat.Floats)[0] }

// TestApplyStepFallback routes an operator that reads the materialized
// view (Limit) through ApplyStep.
func TestApplyStepFallback(t *testing.T) {
	c := testChunk(16)
	pred := cmp(algebra.LT, col(0, bat.Time), intConst(10))
	lim := plan.PipelineStep{Op: &plan.Limit{N: 3}}

	fused := ApplyStep(lim, Filter(pred, NewView(c))).Materialize()

	filtered := refStep(plan.PipelineStep{Op: &plan.Filter{Pred: pred}}, c)
	dense := refStep(lim, filtered)
	mustEqualChunks(t, fused, dense, "fallback step")
}

// TestAggregateMatchesRunAggregate is the pre-sizing correctness proof:
// for every hint, Aggregate over a (filtered) view equals the dense
// reference aggregate (refAggregate) over the materialized input — group
// order, representatives, sums.
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
		want := refAggregate(agg, v.Materialize())
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
			want := refAggregate(tc.agg, view().Materialize())
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

// TestRunNoOutForAggChains: with needOut unset, a compiled aggregate
// chain skips materializing the pipeline output entirely; with it set,
// Run returns both, each equal to the dense reference.
func TestRunNoOutForAggChains(t *testing.T) {
	c := testChunk(64)
	agg := &plan.Aggregate{
		Keys: []expr.Expr{col(1, bat.Int)}, KeyNames: []string{"k"},
		Aggs: []plan.AggSpec{{Op: algebra.AggCount, Name: "n"}},
		Out:  bat.Schema{Names: []string{"k", "n"}, Kinds: []bat.Kind{bat.Int, bat.Int}},
	}
	step := plan.PipelineStep{Op: &plan.Filter{Pred: cmp(algebra.LT, col(1, bat.Int), intConst(3))}}
	d := &plan.Decomposition{Pipelines: []*plan.Pipeline{{Steps: []plan.PipelineStep{step}}}, Agg: agg}
	wantOut := refStep(step, c)
	want := refAggregate(agg, wantOut)

	kp, ok := Compile(d, 0, d.Agg, false)
	if !ok {
		t.Fatal("Compile refused a linearized pipeline")
	}
	out, partial := kp.Run(c)
	if out != nil {
		t.Fatal("needOut=false aggregate chain materialized its output")
	}
	mustEqualChunks(t, partial, want, "partial without out")

	kp, _ = Compile(d, 0, d.Agg, true)
	out, partial = kp.Run(c)
	mustEqualChunks(t, out, wantOut, "out with needOut")
	mustEqualChunks(t, partial, want, "partial with out")

	kp, _ = Compile(d, 0, nil, false)
	out, partial = kp.Run(c)
	if partial != nil {
		t.Fatal("chain without an aggregate returned a partial")
	}
	mustEqualChunks(t, out, wantOut, "out without aggregate")
}

// minAllocBytes is the fewest bytes run allocated over several runs: a
// run that re-creates a pooled scratch buffer (dropped by a GC, or at
// random under the race detector) is not the steady state measured.
func minAllocBytes(run func()) float64 {
	bytes := math.Inf(1)
	var before, after runtime.MemStats
	for i := 0; i < 20; i++ {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		bytes = math.Min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return bytes
}

// TestFilterAllocatesSurvivorsOnly guards the predicated selection: a
// filter allocates its exactly sized candidate list (4 bytes per
// survivor) plus the view, with no growth slack, at every selectivity.
// The survivor counts keep 4 bytes per survivor at a whole size class.
// A filter keeping every row of an unselected view returns the view's
// rows with no selection and allocates no list.
func TestFilterAllocatesSurvivorsOnly(t *testing.T) {
	const rows = 1 << 15
	c := testChunk(rows)
	for _, keep := range []int64{0, 100, rows / 8, rows / 2, rows} {
		pred := cmp(algebra.LT, col(0, bat.Time), intConst(keep))
		v := NewView(c)
		f := Filter(pred, v)
		if got := f.Rows(); got != int(keep) {
			t.Fatalf("filter kept %d rows, want %d", got, keep)
		}
		list := 4 * keep
		if keep == rows {
			if f.Sel != nil {
				t.Fatalf("all-pass filter built a %d-entry selection, want none", len(f.Sel))
			}
			list = 0
		}
		bytes := minAllocBytes(func() { Filter(pred, v) })
		// The constant covers the View and size-class rounding of the
		// 400-byte list.
		if budget := float64(list + 256); bytes > budget {
			t.Errorf("Filter keeping %d of %d rows allocated %.0f B, budget %.0f B", keep, rows, bytes, budget)
		}
	}
}

// TestProjectColumnRefsCopyNothing: a projection of column references
// over a filtered view re-indexes the base columns instead of copying
// them, and materializes to exactly the dense chunk that evaluating each
// expression under the selection builds. Over an all-pass filter — one
// run or several — the projection still reads the base columns' own
// storage; so does a compiled identity projection, which also reuses the
// base's column slice, and its empty results share one chunk.
func TestProjectColumnRefsCopyNothing(t *testing.T) {
	const rows = 1 << 15
	c := testChunk(rows)
	exprs := []expr.Expr{col(2, bat.Float), col(1, bat.Int), col(3, bat.Str), col(1, bat.Int)}
	out := bat.Schema{Names: []string{"v", "k", "tag", "k2"},
		Kinds: []bat.Kind{bat.Float, bat.Int, bat.Str, bat.Int}}
	allPass := cmp(algebra.GE, col(2, bat.Float), floatConst(0))
	for name, v := range map[string]*View{
		"all":      NewView(c),
		"filtered": Filter(cmp(algebra.GE, col(2, bat.Float), floatConst(1.5)), NewView(c)),
		"empty":    Filter(cmp(algebra.LT, col(1, bat.Int), intConst(0)), NewView(c)),
		"all-pass": Filter(allPass, NewView(c)),
	} {
		if bytes := minAllocBytes(func() { Project(exprs, out, v) }); bytes > 1024 {
			t.Errorf("%s: column-reference Project allocated %.0f B over %d rows", name, bytes, v.Rows())
		}
		p := Project(exprs, out, v)
		if p.Rows() != v.Rows() {
			t.Fatalf("%s: projected view has %d rows, want %d", name, p.Rows(), v.Rows())
		}
		dense := make([]bat.Vector, len(exprs))
		for i, e := range exprs {
			dense[i] = e.Eval(v.Base, v.Sel)
		}
		got := p.Materialize()
		if !reflect.DeepEqual(got.Schema, out) {
			t.Fatalf("%s: schema %v, want %v", name, got.Schema, out)
		}
		mustEqualChunks(t, got, &bat.Chunk{Schema: out, Cols: dense}, name)
		if v.Sel == nil {
			for i, e := range exprs {
				if colData(got.Cols[i]) != colData(c.Cols[e.(*expr.Col).Idx]) {
					t.Errorf("%s: column %d of the projection does not share the base column's storage", name, i)
				}
			}
		}
	}

	// Several runs, every one passing the filter whole: the projected runs
	// keep no selection and read the runs' own columns.
	runs := bat.NewRuns(c.Schema, c.Slice(0, rows/3), c.Slice(rows/3, rows/2), c.Slice(rows/2, rows))
	p := Project(exprs, out, Filter(allPass, RunsView(runs)))
	for r, run := range p.runs.runs {
		if run.sel != nil {
			t.Fatalf("run %d: all-pass filter kept a %d-entry selection", r, len(run.sel))
		}
		for i, e := range exprs {
			if colData(run.c.Cols[i]) != colData(runs.Chunks[r].Cols[e.(*expr.Col).Idx]) {
				t.Errorf("run %d: column %d of the projection does not share the run's storage", r, i)
			}
		}
	}
	dense := make([]bat.Vector, len(exprs))
	for i, e := range exprs {
		dense[i] = e.Eval(c, nil)
	}
	mustEqualChunks(t, p.Materialize(), &bat.Chunk{Schema: out, Cols: dense}, "all-pass runs")

	// A compiled identity projection (a rename) over an all-pass filter
	// reuses the base's column slice; over an empty selection it returns
	// the step's one empty chunk.
	ident := CompileStep(plan.PipelineStep{Op: &plan.Project{
		Exprs: []expr.Expr{col(0, bat.Time), col(1, bat.Int)},
		Out:   bat.Schema{Names: []string{"t", "key"}, Kinds: []bat.Kind{bat.Time, bat.Int}},
	}})
	fs := CompileStep(plan.PipelineStep{Op: &plan.Filter{Pred: allPass}})
	got := ident.Apply(fs.Apply(NewView(c), nil), nil).Materialize()
	if &got.Cols[0] != &c.Cols[0] || len(got.Cols) != 2 || got.Rows() != rows {
		t.Error("identity projection over an all-pass filter did not reuse the base's column slice")
	}
	none := CompileStep(plan.PipelineStep{Op: &plan.Filter{Pred: cmp(algebra.LT, col(1, bat.Int), intConst(0))}})
	e1 := ident.Apply(none.Apply(NewView(c), nil), nil).Materialize()
	e2 := ident.Apply(none.Apply(NewView(testChunk(8)), nil), nil).Materialize()
	if e1 != e2 || e1.Rows() != 0 || !reflect.DeepEqual(e1.Schema, ident.cols.out) {
		t.Error("empty results of a compiled projection do not share its empty chunk")
	}
}

// colData is the address of a vector's first element: two vectors with
// the same colData share storage.
func colData(v bat.Vector) uintptr { return reflect.ValueOf(v).Pointer() }
