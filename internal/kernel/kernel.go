// Package kernel is DataCell's one plan evaluator: every operator of
// every plan — a per-basic-window pipeline, a post-merge fragment, a
// re-evaluated full window, a non-windowed batch, a one-time query —
// runs on the kernels here, over lazy views. The paper's two continuous
// modes differ only in what they feed a plan: re-evaluation (mode 1)
// feeds Run the whole window, incremental (mode 2) feeds each basic
// window to the plan's linearized chains (CompileStep), and then the
// merge of their intermediates to its post-merge chain. A chain evaluates
// in one of two ways over the same compiled steps: memoized step by step
// (Step.Apply, which the factory's shared tries latch per window), or in
// one call whose transient state is pooled (AggregateSteps,
// MaterializeSteps).
//
// The fusion mechanism is the candidate list (algebra.Sel). Every expr
// evaluator is dense-over-sel — e.Eval(c, sel) equals
// e.Eval(algebra.FetchChunk(c, sel), nil) by construction (a column
// reference IS a Fetch; compound expressions recurse and combine densely)
// — and expr.EvalPred returns absolute positions within sel, so
// consecutive filters compose by threading the selection instead of
// copying the survivors' columns. A chain therefore carries a View
// (base chunk + selection) and materializes at most once, at whichever
// point actually needs dense columns:
//
//   - Filter   composes the selection; nothing is copied. The selection
//     itself is built by the predicated select kernels, which allocate
//     exactly 4 bytes per survivor — nothing when every row of an
//     unselected run survives: the run then passes through with no
//     selection. A chain whose only reader is an aggregate
//     (AggregateSteps), or a single caller that wants its dense result
//     (MaterializeSteps), builds its selections in pooled scratch that
//     lives for that one call.
//   - Project  of column references only re-indexes the base columns
//     and keeps the selection: still a view, nothing is copied. A
//     compiled step (CompileStep) keeps the column map itself in the
//     view, so re-indexing allocates no chunk and a later Materialize is
//     one gather straight from the base columns — or, without a
//     selection, a chunk over the base's own columns, and for an empty
//     selection the step's one cached empty chunk (results are
//     immutable, so materialized chunks may alias). A projection with
//     computed expressions evaluates them under the selection into a
//     dense chunk.
//   - Aggregate reads column-reference keys and arguments in place
//     (base column + selection) and evaluates computed ones under the
//     selection — byte-identical to grouping the materialized input,
//     without building it or copying any column.
//   - Distinct, Sort, Limit and Join read materialized views: they
//     reorder or pair rows, so they need dense columns anyway.
//
// Sibling aggregates — aggregates over chains of filters and
// column-reference projections from one ancestor view that group by the
// same ancestor columns — evaluate together (AggregateSet) over a
// single-run ancestor. Once their selections cover 1.25× the ancestor's
// rows, those rows are grouped once, and each sibling aggregates in that
// grouping's shared id space: the aggregate kernels read ids by row
// position through the sibling's selection (algebra.Grouping.Within).
// Its results are then compacted to the groups its selection reaches, in
// their first-appearance order over it — copied out of a pooled
// accumulator, or used as they are when that order is the shared one.
// The bytes equal the sibling's own grouping.
//
// A view may also be a sequence of runs (RunsView): a sharded basic
// window is its shards' basket-segment runs in canonical order, and a
// re-evaluated window is its basic windows' runs, and the kernels read
// through them instead of copying them together first. Filter and
// column-reference Project map over the runs (one selection per run,
// still nothing copied) and a computed Project evaluates per run.
// Materialize gathers the runs' selected rows into one dense chunk, and
// Aggregate gathers only its key and argument columns, only at the
// selected rows, into pooled scratch vectors (they live for one call),
// then groups and aggregates them in one pass — one accumulation order,
// the one a concatenated window would have, so results never depend on
// where run boundaries fall (they follow producer batch sizes and drain
// timing). Every operator over runs is byte-identical to the same
// operator over bat.Concat of the runs.
//
// Merge is the incremental mode's merge of a window's cached partial
// aggregates, the same gather-group-aggregate over the partials as runs.
// Partials are immutable, so a merge copies nothing it would copy
// unchanged: when the oldest partial's rows are exactly the groups, the
// merged key columns are that partial's key columns, and over a single
// partial its counts, integer sums and min/max columns are too. Merged
// chunks may therefore share storage with partials, capped so that an
// append copies; whatever recycles a partial must account for the merged
// chunks that read it.
//
// Byte identity between the modes is the package's contract: the
// incremental-versus-re-evaluation matrix, the shared-merge and
// recycling suites and the fabric differential harness are its proof
// surface, and the package's tests check each kernel against a dense
// reference evaluator.
package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"datacell/internal/algebra"
	"datacell/internal/bat"
	"datacell/internal/expr"
	"datacell/internal/plan"
)

// View is a lazy chunk: a base chunk plus a candidate list restricting it
// (nil = all rows), or a sequence of such runs. Materialization is
// latched, so shared consumers (DAG memo cells) reconstruct the dense
// chunk at most once no matter how many member tails read it.
type View struct {
	Base *bat.Chunk
	Sel  algebra.Sel // nil selects every row of Base

	mu  sync.Mutex // serializes the first Materialize
	mat atomic.Pointer[bat.Chunk]
	// runs, when non-nil, makes the view a sequence of two or more runs
	// (Base, Sel and proj are then unused). Held behind one pointer so a
	// single-run view stays in its allocation size class.
	runs *runList
	// proj, when non-nil, re-indexes Base: the view's column i is
	// Base.Cols[proj.idx[i]], under the schema proj.out.
	proj *colMap
}

// colMap is a compiled column-reference projection. ident marks a map
// that keeps a prefix of its base's columns in place, and empty is the
// projection of zero rows: every empty result of the step shares it, as
// results are immutable.
type colMap struct {
	idx   []int
	out   bat.Schema
	ident bool
	empty *bat.Chunk
}

// reindex returns c's columns in the map's order as a chunk of the
// projected schema; no column data moves, and an identity map reuses c's
// column slice.
func (m *colMap) reindex(c *bat.Chunk) *bat.Chunk {
	if m.ident {
		n := len(m.idx)
		return &bat.Chunk{Schema: m.out, Cols: c.Cols[:n:n]}
	}
	cols := make([]bat.Vector, len(m.idx))
	for i, j := range m.idx {
		cols[i] = c.Cols[j]
	}
	return &bat.Chunk{Schema: m.out, Cols: cols}
}

// runList is a multi-run view's content: the runs in canonical order,
// each a chunk plus its own candidate list, and their common schema.
type runList struct {
	schema bat.Schema
	runs   []run
}

type run struct {
	c   *bat.Chunk
	sel algebra.Sel // nil selects every row of c
}

// NewView wraps an already-dense chunk.
func NewView(c *bat.Chunk) *View { return &View{Base: c} }

// RunsView wraps a run list without copying it. A single run is an
// ordinary view over that chunk, and no runs an empty chunk of the
// list's schema — exactly what bat.Concat of the runs would return.
func RunsView(r *bat.Runs) *View {
	switch len(r.Chunks) {
	case 0:
		return NewView(bat.NewChunk(r.Schema))
	case 1:
		return NewView(r.Chunks[0])
	}
	rl := &runList{schema: r.Schema, runs: make([]run, len(r.Chunks))}
	for i, c := range r.Chunks {
		rl.runs[i].c = c
	}
	return &View{runs: rl}
}

// MultiRun reports whether v reads a sequence of runs (RunsView) rather
// than one chunk.
func (v *View) MultiRun() bool { return v.runs != nil }

// Rows reports the view's logical row count without materializing.
func (v *View) Rows() int {
	if v.runs != nil {
		return v.runs.rows()
	}
	return algebra.SelLen(v.Sel, v.Base.Rows())
}

// Materialize reconstructs the dense chunk (late tuple reconstruction:
// one Fetch per column), caching the result. A nil selection returns the
// base chunk itself — exactly what FetchChunk would return. A multi-run view gathers every run's selected rows
// into one dense chunk, byte-identical to FetchChunk over the
// concatenated runs.
//
// A re-indexed view gathers each of its columns straight from the base
// column it maps to: one copy per column, byte-identical to FetchChunk
// over the re-indexed chunk.
func (v *View) Materialize() *bat.Chunk {
	if c := v.mat.Load(); c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.mat.Load(); c != nil {
		return c
	}
	var c *bat.Chunk
	switch {
	case v.runs != nil:
		c = v.runs.materialize()
	case v.proj != nil && v.Sel != nil && len(v.Sel) == 0:
		c = v.proj.empty
	case v.proj != nil && v.Sel != nil:
		cols := make([]bat.Vector, len(v.proj.idx))
		for i, j := range v.proj.idx {
			cols[i] = algebra.Fetch(v.Base.Cols[j], v.Sel)
		}
		c = &bat.Chunk{Schema: v.proj.out, Cols: cols}
	case v.proj != nil:
		c = v.proj.reindex(v.Base)
	default:
		c = algebra.FetchChunk(v.Base, v.Sel)
	}
	v.mat.Store(c)
	return c
}

// flat returns v without a column map: the base re-indexed into a chunk
// of the projected schema, under the same selection. Operators that
// evaluate expressions over the base read it.
func (v *View) flat() *View {
	if v.proj == nil {
		return v
	}
	return &View{Base: v.proj.reindex(v.Base), Sel: v.Sel}
}

// Filter composes a predicate into the view's selection — into each
// run's selection for a multi-run view. No column data moves: the
// returned view shares the input's chunks, and a run without a selection
// whose every row qualifies keeps no selection (expr.Restrict), so an
// all-pass filter builds no candidate list.
func Filter(pred expr.Expr, v *View) *View { return filter(pred, v, nil, nil) }

// filter is Filter building a single-run result in dst when dst is
// non-nil, and its selections in s when s is non-nil.
func filter(pred expr.Expr, v, dst *View, s *algebra.Scratch) *View {
	v = v.flat()
	if v.runs != nil {
		out := v.runs.derive(v.runs.schema)
		for i, r := range v.runs.runs {
			out.runs[i] = run{c: r.c, sel: expr.Restrict(pred, r.c, r.sel, s)}
		}
		return &View{runs: out}
	}
	if dst == nil {
		dst = new(View)
	}
	*dst = View{Base: v.Base, Sel: expr.Restrict(pred, v.Base, v.Sel, s)}
	return dst
}

// Project evaluates projection expressions under the view's selection.
// When every expression is a column reference the result is a view over
// the input's own base columns, re-indexed and still restricted by the
// input's selection: no column data moves, and materializing it later
// yields exactly the dense chunk the evaluating path builds. Otherwise
// the expressions evaluate under the selection into a dense output view
// — the point where a fused filter→…→project chain first touches column
// data, and only the columns the projection reads. A multi-run view
// projects run by run: re-indexed runs that keep their selections, or
// one dense evaluated run per input run.
func Project(exprs []expr.Expr, out bat.Schema, v *View) *View {
	v = v.flat()
	refs := colRefs(exprs)
	if v.runs != nil {
		rl := v.runs.derive(out)
		for i, r := range v.runs.runs {
			rl.runs[i].c = project(exprs, refs, out, r.c, r.sel)
			if refs {
				rl.runs[i].sel = r.sel
			}
		}
		return &View{runs: rl}
	}
	c := project(exprs, refs, out, v.Base, v.Sel)
	if refs {
		return &View{Base: c, Sel: v.Sel}
	}
	return NewView(c)
}

// project re-indexes c's columns when refs (every expression is a column
// reference; the result is still restricted by sel), and otherwise
// evaluates the expressions under sel into a dense chunk.
func project(exprs []expr.Expr, refs bool, out bat.Schema, c *bat.Chunk, sel algebra.Sel) *bat.Chunk {
	cols := make([]bat.Vector, len(exprs))
	if refs {
		for i, e := range exprs {
			cols[i] = c.Cols[e.(*expr.Col).Idx]
		}
	} else {
		for i, e := range exprs {
			cols[i] = e.Eval(c, sel)
		}
	}
	return &bat.Chunk{Schema: out, Cols: cols}
}

// colRefs reports whether exprs is a non-empty list of column references.
// An empty projection stays on the evaluating path: a chunk without
// columns has no rows, so it cannot carry a selection's row count.
func colRefs(exprs []expr.Expr) bool {
	for _, e := range exprs {
		if _, ok := e.(*expr.Col); !ok {
			return false
		}
	}
	return len(exprs) > 0
}

// AggregateSteps is Aggregate over the view that steps derive from v: the
// evaluation of an operator chain whose only reader is the aggregate. The
// chain's selections live only as long as the call — built in pooled
// scratch and handed back before it returns — which is safe because
// Aggregate keeps nothing of its input: keys are fetched at the group
// representatives and aggregates accumulate into fresh vectors.
func AggregateSteps(t *plan.Aggregate, steps []*Step, v *View, hint int) *bat.Chunk {
	cs := chainScratches.Get().(*chainScratch)
	defer cs.release()
	return Aggregate(t, cs.apply(steps, v), hint)
}

// MaterializeSteps is the dense result of steps applied to c: the
// evaluation of an operator chain whose only reader is the caller, such
// as a post-merge fragment no other query shares. Like AggregateSteps it
// builds the chain's views and selections in pooled scratch that lives
// only for the call; what it returns never references that scratch. The
// result is copied rows, a re-index of c (or c itself) when the chain
// keeps every row, or a compiled projection's cached empty chunk —
// byte-identical to materializing the step-by-step chain.
func MaterializeSteps(steps []*Step, c *bat.Chunk) *bat.Chunk {
	cs := chainScratches.Get().(*chainScratch)
	defer cs.release()
	cs.views[1] = View{Base: c}
	return cs.apply(steps, &cs.views[1]).Materialize()
}

// MaterializeView is MaterializeSteps over a view, such as a basic window
// held as runs (RunsView), read in place.
func MaterializeView(steps []*Step, v *View) *bat.Chunk {
	cs := chainScratches.Get().(*chainScratch)
	defer cs.release()
	return cs.apply(steps, v).Materialize()
}

// chainScratch is one AggregateSteps, MaterializeSteps or MaterializeView
// call's transient state: the chain's selections and the views single-run
// steps are built in, alternating. It is pooled, so a warm call allocates nothing for it,
// and emptied before it goes back, so the pool never keeps a window's
// data alive.
type chainScratch struct {
	sels  algebra.Scratch
	views [2]View
}

// apply runs steps over v, building single-run results in the scratch
// views, alternating, and selections in the scratch.
func (cs *chainScratch) apply(steps []*Step, v *View) *View {
	for i, st := range steps {
		v = st.apply(v, &cs.views[i%2], &cs.sels)
	}
	return v
}

var chainScratches = sync.Pool{New: func() any { return new(chainScratch) }}

func (cs *chainScratch) release() {
	cs.sels.Release()
	cs.views = [2]View{}
	chainScratches.Put(cs)
}

// Aggregate runs a partial (or full) grouped aggregation directly over
// the view. Column-reference keys and arguments are read in place — the
// base column plus the view's selection go straight to the grouping and
// the aggregate kernels, so no surviving-row copy is ever built for them;
// only computed expressions evaluate (densely) under the selection. The
// grouping hash table pre-sizes from hint (observed per-window
// cardinality; ≤ 0 falls back to the default). Output bytes equal the
// dense aggregate over the materialized view for every hint.
//
// Over a multi-run view the keys and arguments are first gathered into
// dense vectors — column references straight from each run at its
// selection, computed expressions evaluated per run — and grouped and
// aggregated once, in the concatenated window's row order.
func Aggregate(t *plan.Aggregate, v *View, hint int) *bat.Chunk {
	if v.runs != nil {
		return v.runs.aggregate(t, hint)
	}
	v = v.flat()
	// One selection governs every key column, so keys read in place only
	// when all of them are column references; otherwise all evaluate
	// densely.
	inPlace := len(t.Keys) == 0 || colRefs(t.Keys)
	keySel, keyRows := v.Sel, v.Base.Rows()
	if !inPlace {
		keySel, keyRows = nil, v.Rows()
	}
	keyVecs := make([]bat.Vector, len(t.Keys))
	for i, k := range t.Keys {
		if inPlace {
			keyVecs[i] = v.Base.Cols[k.(*expr.Col).Idx]
		} else {
			keyVecs[i] = k.Eval(v.Base, v.Sel)
		}
	}
	g := algebra.GroupHint(keyVecs, keySel, keyRows, hint)
	defer g.Release()
	cols := groupKeys(t, keyVecs, g)
	for _, spec := range t.Aggs {
		// The k-th qualifying row is the k-th row of the selection both
		// for in-place and for dense arguments, so each argument picks
		// its own access path independently of the keys.
		var arg bat.Vector
		var argSel algebra.Sel
		switch a := spec.Arg.(type) {
		case nil:
		case *expr.Col:
			arg, argSel = v.Base.Cols[a.Idx], v.Sel
		default:
			arg = a.Eval(v.Base, v.Sel)
		}
		cols = append(cols, algebra.Aggregate(spec.Op, arg, argSel, g))
	}
	return &bat.Chunk{Schema: t.Out, Cols: cols}
}

// groupKeys starts an aggregate's output columns with the group keys,
// reconstructed at each group's representative row.
func groupKeys(t *plan.Aggregate, keyVecs []bat.Vector, g algebra.Grouping) []bat.Vector {
	cols := make([]bat.Vector, 0, len(t.Keys)+len(t.Aggs))
	for _, kv := range keyVecs {
		cols = append(cols, algebra.Fetch(kv, g.Repr))
	}
	return cols
}

// derive returns an empty run list of the same length with schema.
func (rl *runList) derive(schema bat.Schema) *runList {
	return &runList{schema: schema, runs: make([]run, len(rl.runs))}
}

func (rl *runList) rows() int {
	n := 0
	for _, r := range rl.runs {
		n += algebra.SelLen(r.sel, r.c.Rows())
	}
	return n
}

// materialize gathers every run's selected rows into one dense chunk —
// one copy per column, byte-identical to FetchChunk over the runs'
// concatenation.
func (rl *runList) materialize() *bat.Chunk {
	rows := rl.rows()
	cols := make([]bat.Vector, len(rl.schema.Kinds))
	for i := range cols {
		cols[i] = resize(bat.NewVector(rl.runs[0].c.Cols[i].Kind(), 0), rows, 0)
		rl.fill(cols[i], i)
	}
	return &bat.Chunk{Schema: rl.schema, Cols: cols}
}

// fill writes column idx's selected rows of every run, in run order, over
// dst, which holds exactly that many rows.
func (rl *runList) fill(dst bat.Vector, idx int) {
	off := 0
	for _, r := range rl.runs {
		off = writeAt(dst, off, r.c.Cols[idx], r.sel)
	}
}

// writeAt writes src's rows at sel (every row when sel is nil) into dst
// from position off and returns the position after them. It unboxes dst
// in place, so the write boxes no new slice header; dst and src share a
// kind.
func writeAt(dst bat.Vector, off int, src bat.Vector, sel algebra.Sel) int {
	switch d := dst.(type) {
	case bat.Ints:
		return writeRows(d, off, src.(bat.Ints), sel)
	case bat.Times:
		return writeRows(d, off, src.(bat.Times), sel)
	case bat.Floats:
		return writeRows(d, off, src.(bat.Floats), sel)
	case bat.Strs:
		return writeRows(d, off, src.(bat.Strs), sel)
	case bat.Bools:
		return writeRows(d, off, src.(bat.Bools), sel)
	}
	panic(fmt.Sprintf("kernel: write into unknown vector %T", dst))
}

func writeRows[T any](dst []T, off int, src []T, sel algebra.Sel) int {
	if sel == nil {
		return off + copy(dst[off:], src)
	}
	for _, i := range sel {
		dst[off] = src[i]
		off++
	}
	return off
}

// aggregate is Aggregate over the runs: the key and argument columns are
// gathered densely (only those, only at the selected rows) and grouped and
// aggregated once, exactly as over the concatenated window.
func (rl *runList) aggregate(t *plan.Aggregate, hint int) *bat.Chunk {
	as := aggScratches.Get().(*aggScratch)
	defer as.release()
	return as.aggregate(t, rl, hint, false)
}

// Merge is the full-window aggregate over a window's partial aggregates,
// oldest first (nil entries are skipped): the decomposition's merge plan
// (plan.MergePlan) run over the partials as runs, byte-identical to the
// merge of their concatenation without building that chunk. The largest
// partial pre-sizes the grouping when it exceeds hint: the window has at
// least that many groups.
//
// Partials are immutable, so the merge copies nothing it would copy
// unchanged. When the first partial's rows are exactly the groups, in
// order — no later partial adds a group — the output's key columns are
// that partial's key columns; with a single partial, its merged counts
// and other integer sums and its min/max columns are shared too, as each
// group then merges one value. The merged chunk may therefore share
// storage with the partials (capped, so an append copies). Float sums are
// always recomputed: 0.0 + (−0.0) is +0.0, not the partial's value.
func Merge(merge *plan.Aggregate, parts []*bat.Chunk, hint int) *bat.Chunk {
	as := aggScratches.Get().(*aggScratch)
	defer as.release()
	rl := &as.parts
	for _, p := range parts {
		if p != nil {
			rl.runs = append(rl.runs, run{c: p})
			hint = max(hint, p.Rows())
		}
	}
	if len(rl.runs) == 0 {
		return Aggregate(merge, NewView(bat.NewChunk(merge.Out)), hint)
	}
	return as.aggregate(merge, rl, hint, true)
}

// aggScratch is one multi-run aggregate's or Merge's transient state: the
// merged partials' run list, the dense inputs and the key vectors. It is
// pooled, so a warm call allocates nothing for it, and emptied before it
// goes back, so the pool never keeps a window's data alive.
type aggScratch struct {
	parts runList
	in    denseInputs
	keys  []bat.Vector
	// A sibling set's state (AggregateSet): the ancestor's base chunk,
	// the siblings waiting for the sharing decision, and the shared-id
	// accumulators, one per kind.
	base    *bat.Chunk
	pending []pendingSib
	acc     [bat.Time + 1]bat.Vector
}

var aggScratches = sync.Pool{New: func() any { return new(aggScratch) }}

func (as *aggScratch) release() {
	clear(as.parts.runs)
	as.parts = runList{runs: as.parts.runs[:0]}
	as.in.release()
	as.in.rl = nil
	clear(as.keys)
	as.keys = as.keys[:0]
	as.base = nil
	if poison {
		for _, v := range as.acc {
			if v != nil {
				poisonVector(v)
			}
		}
	}
	aggScratches.Put(as)
}

// aggregate groups and aggregates rl's rows. With share (Merge's
// partials, which are immutable) it returns the first run's own columns
// wherever the result would copy them unchanged; see Merge.
func (as *aggScratch) aggregate(t *plan.Aggregate, rl *runList, hint int, share bool) *bat.Chunk {
	in := &as.in
	in.rl, in.rows = rl, rl.rows()
	for _, k := range t.Keys {
		as.keys = append(as.keys, in.of(k))
	}
	g := algebra.GroupHint(as.keys, nil, in.rows, hint)
	defer g.Release()
	first := rl.runs[0].c
	// Groups number in first-appearance order, so the representatives
	// ascend: the first run's rows are the groups exactly when there are
	// as many groups as it has rows and the last representative is its
	// last row.
	share = share && g.N == first.Rows() && (g.N == 0 || g.Repr[g.N-1] == int32(g.N-1))
	cols := make([]bat.Vector, 0, len(t.Keys)+len(t.Aggs))
	for i, kv := range as.keys {
		if c, ok := t.Keys[i].(*expr.Col); ok && share {
			cols = append(cols, capped(first.Cols[c.Idx]))
		} else {
			cols = append(cols, algebra.Fetch(kv, g.Repr))
		}
	}
	// The keys are copied out or shared: their scratch goes back before
	// the arguments are gathered, so keys and arguments never hold pooled
	// storage at the same time.
	in.release()
	single := share && len(rl.runs) == 1
	for _, spec := range t.Aggs {
		if single {
			if v := unchangedAgg(spec, first); v != nil {
				cols = append(cols, v)
				continue
			}
		}
		var arg bat.Vector
		if spec.Arg != nil {
			arg = in.of(spec.Arg)
		}
		cols = append(cols, algebra.Aggregate(spec.Op, arg, nil, g))
	}
	return &bat.Chunk{Schema: t.Out, Cols: cols}
}

// unchangedAgg returns c's argument column of spec when aggregating it
// over groups of one row each reproduces it exactly: an integer sum
// (0 + x is x) or a min/max. It is nil otherwise — for a float sum, whose
// −0.0 would become +0.0, and for a count.
func unchangedAgg(spec plan.AggSpec, c *bat.Chunk) bat.Vector {
	a, ok := spec.Arg.(*expr.Col)
	if !ok {
		return nil
	}
	v := c.Cols[a.Idx]
	switch spec.Op {
	case algebra.AggSum:
		if _, ok := v.(bat.Ints); !ok {
			return nil
		}
	case algebra.AggMin, algebra.AggMax:
	default:
		return nil
	}
	return capped(v)
}

// capped returns v without spare capacity, so that an append to a column
// the merged chunk shares copies instead of writing into storage its
// partial owns: v itself when it has none, which boxes no new slice
// header, and v[:n:n] otherwise.
func capped(v bat.Vector) bat.Vector {
	var spare bool
	switch x := v.(type) {
	case bat.Ints:
		spare = cap(x) > len(x)
	case bat.Times:
		spare = cap(x) > len(x)
	case bat.Floats:
		spare = cap(x) > len(x)
	case bat.Strs:
		spare = cap(x) > len(x)
	case bat.Bools:
		spare = cap(x) > len(x)
	}
	if spare {
		return v.Slice(0, v.Len())
	}
	return v
}

// denseInputs holds a multi-run Aggregate's keys and arguments as dense
// vectors over the runs' selected rows, in run order. They live for one
// call — the grouping and the aggregate kernels copy whatever they keep
// (keys through Fetch at the group representatives, results into fresh
// per-group vectors) — so their storage comes from, and goes back to,
// per-kind pools. A single run without a selection (a merge of one
// partial) is already dense: its columns are read in place.
type denseInputs struct {
	rl   *runList
	rows int
	vecs []denseVec // every vector handed out, for reuse and release
}

// denseVec is one dense input: a gathered column reference (col is its
// index) or an evaluated expression (col < 0).
type denseVec struct {
	col int
	b   *denseBuf
}

// of returns expression e as a dense vector: a column reference is
// gathered (once per column), anything else evaluates per run under the
// run's selection and the results are concatenated.
func (in *denseInputs) of(e expr.Expr) bat.Vector {
	if c, ok := e.(*expr.Col); ok {
		if len(in.rl.runs) == 1 && in.rl.runs[0].sel == nil {
			return in.rl.runs[0].c.Cols[c.Idx]
		}
		for _, d := range in.vecs {
			if d.col == c.Idx {
				return d.b.v
			}
		}
		b := getDense(in.rl.runs[0].c.Cols[c.Idx].Kind(), in.rows)
		in.rl.fill(b.v, c.Idx)
		in.vecs = append(in.vecs, denseVec{col: c.Idx, b: b})
		return b.v
	}
	var b *denseBuf
	off := 0
	for _, r := range in.rl.runs {
		part := e.Eval(r.c, r.sel)
		if b == nil {
			b = getDense(part.Kind(), in.rows)
		}
		off = writeAt(b.v, off, part, nil)
	}
	in.vecs = append(in.vecs, denseVec{col: -1, b: b})
	return b.v
}

// release hands every vector back to its pool; later calls to of gather
// afresh.
func (in *denseInputs) release() {
	for i, d := range in.vecs {
		putDense(d.b)
		in.vecs[i].b = nil
	}
	in.vecs = in.vecs[:0]
}

// denseBuf is a pooled dense input: its storage, boxed as the vector
// last handed out over it. A request of the same length — a merge of
// windows the size of the last ones — hands the box out as it is, so a
// warm call boxes no new slice header either.
type denseBuf struct{ v bat.Vector }

// densePools pools denseBufs by kind.
var densePools [bat.Time + 1]sync.Pool

// getDense returns a pooled vector of kind k and length n (contents
// unspecified), reusing pooled storage when it is large enough. Storage
// it has to allocate has room for n/16 more values, as the basket stores
// do: windows whose sizes jitter upwards then reuse it instead of
// reallocating it for each larger one.
func getDense(k bat.Kind, n int) *denseBuf {
	b, _ := densePools[k].Get().(*denseBuf)
	switch {
	case b == nil:
		b = &denseBuf{v: resize(bat.NewVector(k, 0), n, n/16)}
	case b.v.Len() != n:
		b.v = resize(b.v, n, n/16)
	}
	return b
}

// putDense hands b back to its pool. Test binaries first overwrite its
// storage with poison values, so that a result still reading it fails
// loudly instead of seeing a later window's rows.
func putDense(b *denseBuf) {
	if poison {
		poisonVector(b.v)
	}
	densePools[b.v.Kind()].Put(b)
}

// resize returns a vector of v's kind and length n over v's storage when
// it has room for n values (contents unspecified), over fresh zeroed
// storage with room for spare more otherwise.
func resize(v bat.Vector, n, spare int) bat.Vector {
	switch x := v.(type) {
	case bat.Ints:
		return bat.Ints(sized(x, n, spare))
	case bat.Times:
		return bat.Times(sized(x, n, spare))
	case bat.Floats:
		return bat.Floats(sized(x, n, spare))
	case bat.Strs:
		return bat.Strs(sized(x, n, spare))
	case bat.Bools:
		return bat.Bools(sized(x, n, spare))
	}
	panic(fmt.Sprintf("kernel: resize of unknown vector %T", v))
}

func sized[T any](s []T, n, spare int) []T {
	if cap(s) < n {
		return make([]T, n, n+spare)
	}
	return s[:n]
}

// Step is a linearized pipeline operator compiled for repeated
// evaluation: a column-reference projection carries its column map, so
// applying it to a single-run view re-indexes without building a chunk.
type Step struct {
	plan.PipelineStep
	cols *colMap // column-reference Project only
}

// CompileStep prepares s for Apply.
func CompileStep(s plan.PipelineStep) Step {
	st := Step{PipelineStep: s}
	if p, ok := s.Op.(*plan.Project); ok && colRefs(p.Exprs) {
		st.cols = &colMap{idx: make([]int, len(p.Exprs)), out: p.Out, ident: true, empty: bat.NewChunk(p.Out)}
		for i, e := range p.Exprs {
			j := e.(*expr.Col).Idx
			st.cols.idx[i] = j
			st.cols.ident = st.cols.ident && j == i
		}
	}
	return st
}

// Apply runs the step over v: ApplyStep, except that a compiled
// column-reference projection of a single-run view keeps the view's base
// and selection and only attaches its column map. A filter or such a
// projection over a single-run view is built in dst when dst is non-nil
// (an unused view the caller owns, such as a memo cell's), so it
// allocates nothing but the filter's selection — none when the filter
// keeps every row of an unselected run; other results are fresh views.
func (s *Step) Apply(v, dst *View) *View { return s.apply(v, dst, nil) }

// apply is Apply building filter selections in sc when sc is non-nil.
func (s *Step) apply(v, dst *View, sc *algebra.Scratch) *View {
	switch op := s.Op.(type) {
	case *plan.Filter:
		return filter(op.Pred, v, dst, sc)
	case *plan.Project:
		if s.cols != nil && v.runs == nil && v.proj == nil {
			if dst == nil {
				dst = new(View)
			}
			*dst = View{Base: v.Base, Sel: v.Sel, proj: s.cols}
			return dst
		}
	}
	return ApplyStep(s.PipelineStep, v)
}

// ApplyStep runs one linearized plan operator over a view. Filter,
// Project and Aggregate are the fused view kernels; Distinct, Sort and
// Limit read the materialized view (Limit passes a short enough view
// through untouched), and a static-table Join evaluates its table side
// with Run and joins it with the materialized stream side.
func ApplyStep(s plan.PipelineStep, v *View) *View {
	switch t := s.Op.(type) {
	case *plan.Filter:
		return Filter(t.Pred, v)
	case *plan.Project:
		return Project(t.Exprs, t.Out, v)
	case *plan.Aggregate:
		return NewView(Aggregate(t, v, 0))
	case *plan.Distinct:
		in := v.Materialize()
		g := algebra.Group(in.Cols, nil, in.Rows())
		out := algebra.FetchChunk(in, g.Repr)
		g.Release()
		return NewView(out)
	case *plan.Sort:
		return NewView(sortChunk(t, v.Materialize()))
	case *plan.Limit:
		if int64(v.Rows()) <= t.N {
			return v
		}
		return NewView(v.Materialize().Slice(0, int(t.N)))
	case *plan.Join:
		other := t.L
		if s.StreamLeft {
			other = t.R
		}
		o, err := Run(other, nil)
		if err != nil {
			return NewView(bat.NewChunk(t.Out))
		}
		l, r := o, v
		if s.StreamLeft {
			l, r = v, o
		}
		return NewView(JoinChunks(t, l.Materialize(), r.Materialize()))
	}
	return NewView(bat.NewChunk(s.Op.Schema()))
}

// Run evaluates a plan tree bottom-up: the one evaluator of every plan,
// continuous or one-time. leaves supplies the views its stream-scan and
// Merged leaves read (a missing entry reads as an empty chunk of the
// leaf's schema); table scans read their current snapshot. Unary
// operators run through ApplyStep, and a join joins its two
// materialized sides.
func Run(n plan.Node, leaves map[plan.Node]*View) (*View, error) {
	switch t := n.(type) {
	case *plan.ScanTable:
		return NewView(t.Table.Snapshot()), nil
	case *plan.ScanStream, *plan.Merged:
		if v := leaves[n]; v != nil {
			return v, nil
		}
		return NewView(bat.NewChunk(n.Schema())), nil
	case *plan.Join:
		l, err := Run(t.L, leaves)
		if err != nil {
			return nil, err
		}
		r, err := Run(t.R, leaves)
		if err != nil {
			return nil, err
		}
		return NewView(JoinChunks(t, l.Materialize(), r.Materialize())), nil
	case *plan.Filter, *plan.Project, *plan.Aggregate, *plan.Distinct, *plan.Sort, *plan.Limit:
		in, err := Run(n.Children()[0], leaves)
		if err != nil {
			return nil, err
		}
		return ApplyStep(plan.PipelineStep{Op: n}, in), nil
	}
	return nil, fmt.Errorf("kernel: cannot execute %T", n)
}

// JoinChunks joins two dense inputs: a hash join on the node's key
// columns (a nested-loop cross product when it has none), then its
// residual predicate. The window layer joins cached basic-window
// intermediates with it.
func JoinChunks(t *plan.Join, l, r *bat.Chunk) *bat.Chunk {
	var lout, rout []int32
	if len(t.LKeys) > 0 {
		lkeys := make([]bat.Vector, len(t.LKeys))
		rkeys := make([]bat.Vector, len(t.RKeys))
		for i := range t.LKeys {
			lkeys[i] = l.Cols[t.LKeys[i]]
			rkeys[i] = r.Cols[t.RKeys[i]]
		}
		lout, rout = algebra.HashJoin(lkeys, rkeys, nil, nil)
	} else {
		lout, rout = algebra.NestedLoopJoin(l.Rows(), r.Rows(), nil, nil,
			func(_, _ int32) bool { return true })
	}
	cols := make([]bat.Vector, 0, len(l.Cols)+len(r.Cols))
	for _, c := range l.Cols {
		cols = append(cols, algebra.Gather(c, lout))
	}
	for _, c := range r.Cols {
		cols = append(cols, algebra.Gather(c, rout))
	}
	out := &bat.Chunk{Schema: t.Out, Cols: cols}
	if t.Residual != nil {
		out = algebra.FetchChunk(out, expr.EvalPred(t.Residual, out, nil))
	}
	return out
}

// sortChunk orders a dense chunk by the node's sort keys.
func sortChunk(t *plan.Sort, in *bat.Chunk) *bat.Chunk {
	keys := make([]algebra.SortKey, len(t.Keys))
	for i, k := range t.Keys {
		keys[i] = algebra.SortKey{Col: in.Cols[k.Col], Desc: k.Desc}
	}
	idx := algebra.Order(keys, nil, in.Rows())
	cols := make([]bat.Vector, len(in.Cols))
	for i, c := range in.Cols {
		cols[i] = algebra.Gather(c, idx)
	}
	return &bat.Chunk{Schema: in.Schema, Cols: cols}
}

// CompileSteps compiles a linearized chain — a per-basic-window pipeline
// or a post-merge fragment — for AggregateSteps and MaterializeSteps.
func CompileSteps(steps []plan.PipelineStep) []*Step {
	out := make([]*Step, len(steps))
	for i, s := range steps {
		st := CompileStep(s)
		out[i] = &st
	}
	return out
}

// Pipeline is one decomposition pipeline compiled for the step kernels —
// AggregateSteps and MaterializeSteps, the evaluator every continuous
// query's private chains run — plus its optional partial-aggregate stage.
type Pipeline struct {
	steps []*Step
	agg   *plan.Aggregate
	// needOut materializes the pipeline output even when the aggregate
	// stage consumes the chain.
	needOut bool
}

// Compile compiles pipeline side of d (0, or 1 for a join's right side)
// and agg, the plan's partial-aggregate stage (nil for none); needOut
// asks Run to materialize the pipeline output for aggregate chains too.
// ok is always true: Decompose rejects a pipeline that does not
// linearize.
func Compile(d *plan.Decomposition, side int, agg *plan.Aggregate, needOut bool) (*Pipeline, bool) {
	return &Pipeline{steps: CompileSteps(d.Pipelines[side].Steps), agg: agg, needOut: needOut}, true
}

// Run evaluates the chain over one dense basic-window chunk. out is the
// pipeline output (nil when the chain ends in an aggregate and needOut is
// unset); partial is the partial aggregate (nil without one).
func (kp *Pipeline) Run(raw *bat.Chunk) (out, partial *bat.Chunk) {
	switch {
	case kp.agg == nil:
		return MaterializeSteps(kp.steps, raw), nil
	case kp.needOut:
		out = MaterializeSteps(kp.steps, raw)
		return out, Aggregate(kp.agg, NewView(out), 0)
	}
	return nil, AggregateSteps(kp.agg, kp.steps, NewView(raw), 0)
}
