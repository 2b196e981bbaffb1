// Package kernel is the fused vectorized tail executor: lazy chunked
// views composed by per-operator kernels, so a per-basic-window pipeline
// (filter → project → partial aggregate) runs as one pass over the bat
// vectors instead of materializing an intermediate chunk per operator.
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
//   - Filter   composes the selection; nothing is copied.
//   - Project  evaluates its expressions under the selection, producing a
//     dense chunk (the natural materialization point).
//   - Aggregate reads column-reference keys and arguments in place
//     (base column + selection) and evaluates computed ones under the
//     selection — byte-identical to plan.RunAggregate over the
//     materialized input, without building it or copying any column.
//   - Anything else (static-table joins, post-merge sorts) materializes
//     the view and falls back to plan.ApplyStep, so fused chains evaluate
//     exactly what the unfused executor would.
//
// Byte identity with the unfused path (plan.Exec / plan.ApplyStep) is the
// package's contract — the NoFuse ablation and the fabric differential
// harness are its proof surface.
package kernel

import (
	"sync"
	"sync/atomic"

	"datacell/internal/algebra"
	"datacell/internal/bat"
	"datacell/internal/expr"
	"datacell/internal/plan"
)

// View is a lazy chunk: a base chunk plus a candidate list restricting it
// (nil = all rows). Materialization is latched, so shared consumers (DAG
// memo cells) reconstruct the dense chunk at most once no matter how many
// member tails read it.
type View struct {
	Base *bat.Chunk
	Sel  algebra.Sel // nil selects every row of Base

	once sync.Once
	mat  *bat.Chunk
	done atomic.Bool // set once mat is built
}

// NewView wraps an already-dense chunk.
func NewView(c *bat.Chunk) *View { return &View{Base: c} }

// Rows reports the view's logical row count without materializing.
func (v *View) Rows() int { return algebra.SelLen(v.Sel, v.Base.Rows()) }

// Materialize reconstructs the dense chunk (late tuple reconstruction:
// one Fetch per column), caching the result. A nil selection returns the
// base chunk itself — exactly what the unfused executor's FetchChunk
// would have returned.
func (v *View) Materialize() *bat.Chunk {
	v.once.Do(func() {
		v.mat = algebra.FetchChunk(v.Base, v.Sel)
		v.done.Store(true)
	})
	return v.mat
}

// Materialized reports whether Materialize has run — whether any
// consumer needed this view's dense chunk.
func (v *View) Materialized() bool { return v.done.Load() }

// Filter composes a predicate into the view's selection. No column data
// moves: the returned view shares the input's base chunk.
func Filter(pred expr.Expr, v *View) *View {
	return &View{Base: v.Base, Sel: expr.EvalPred(pred, v.Base, v.Sel)}
}

// Project evaluates projection expressions under the view's selection,
// producing a dense output view. This is where a fused
// filter→…→project chain touches column data for the first time — and
// only the columns the projection actually reads.
func Project(exprs []expr.Expr, out bat.Schema, v *View) *View {
	cols := make([]bat.Vector, len(exprs))
	for i, e := range exprs {
		cols[i] = e.Eval(v.Base, v.Sel)
	}
	return NewView(&bat.Chunk{Schema: out, Cols: cols})
}

// Aggregate runs a partial (or full) grouped aggregation directly over
// the view. Column-reference keys and arguments are read in place — the
// base column plus the view's selection go straight to the grouping and
// the aggregate kernels, so no surviving-row copy is ever built for them;
// only computed expressions evaluate (densely) under the selection. The
// grouping hash table pre-sizes from hint (observed per-window
// cardinality; ≤ 0 falls back to the default). Output bytes equal
// plan.RunAggregate over the materialized view for every hint.
func Aggregate(t *plan.Aggregate, v *View, hint int) *bat.Chunk {
	// One selection governs every key column, so keys read in place only
	// when all of them are column references; otherwise all evaluate
	// densely.
	inPlace := true
	for _, k := range t.Keys {
		if _, ok := k.(*expr.Col); !ok {
			inPlace = false
		}
	}
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
	cols := make([]bat.Vector, 0, len(t.Keys)+len(t.Aggs))
	for _, kv := range keyVecs {
		cols = append(cols, algebra.Fetch(kv, g.Repr))
	}
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

// ApplyStep runs one linearized pipeline operator over a view, fusing
// where the operator admits it and falling back to the unfused
// plan.ApplyStep over the materialized view otherwise.
func ApplyStep(s plan.PipelineStep, v *View) *View {
	switch t := s.Op.(type) {
	case *plan.Filter:
		return Filter(t.Pred, v)
	case *plan.Project:
		return Project(t.Exprs, t.Out, v)
	case *plan.Aggregate:
		return NewView(Aggregate(t, v, 0))
	default:
		return NewView(plan.ApplyStep(s, v.Materialize()))
	}
}

// Pipeline is one compiled fused per-basic-window chain: the linearized
// operator steps of a decomposition pipeline plus its optional terminal
// partial-aggregate stage.
type Pipeline struct {
	steps []plan.PipelineStep
	agg   *plan.Aggregate
	// needOut materializes the pipeline output chunk even when a terminal
	// aggregate consumes the view directly. Single-stream aggregate plans
	// clear it: downstream only merges the partials, so the filtered
	// intermediate never needs reconstructing.
	needOut bool
	// skip counts leading Filter steps already applied at slice time
	// (predicate pushdown): the slicer dropped non-qualifying rows before
	// they entered the window, so the fused chain must not re-filter.
	skip int
	// hint remembers the newest observed aggregate output cardinality,
	// pre-sizing the next window's grouping hash table.
	hint atomic.Int64
}

// Compile linearizes a decomposition pipeline into a fused chain. side
// selects the pipeline (0, or 1 for a join's right side); the steps come
// from the decomposition's memoized linearization, so plan-cache-shared
// plans fingerprint once across registrations. agg is the plan's
// partial-aggregate stage (nil when the decomposition has none); needOut
// asks Run to materialize the pipeline output chunk even for aggregate
// chains. ok is false when the pipeline contains a shape PipelineSteps
// cannot linearize — the caller then keeps the unfused executor for this
// pipeline.
func Compile(d *plan.Decomposition, side int, agg *plan.Aggregate, needOut bool) (*Pipeline, bool) {
	steps, ok := d.StepsMemo(side)
	if !ok {
		return nil, false
	}
	return &Pipeline{steps: steps, agg: agg, needOut: needOut}, true
}

// LeadingFilters reports the predicates of the chain's leading Filter
// steps — the prefix eligible for slice-time predicate pushdown (they
// read only raw stream columns, by position in the chain).
func (kp *Pipeline) LeadingFilters() []expr.Expr {
	var preds []expr.Expr
	for _, s := range kp.steps {
		f, ok := s.Op.(*plan.Filter)
		if !ok {
			break
		}
		preds = append(preds, f.Pred)
	}
	return preds
}

// SetSkip marks the first n steps as already applied upstream (predicate
// pushdown into the slicer).
func (kp *Pipeline) SetSkip(n int) { kp.skip = n }

// Run evaluates the fused chain over one basic-window fragment. out is
// the pipeline output chunk (nil when the chain terminates in an
// aggregate and needOut is false); partial is the partial-aggregate chunk
// (nil when the chain has no aggregate stage). Both are byte-identical to
// the unfused executor's results over the same fragment.
func (kp *Pipeline) Run(raw *bat.Chunk) (out, partial *bat.Chunk) {
	v := NewView(raw)
	for _, s := range kp.steps[kp.skip:] {
		v = ApplyStep(s, v)
	}
	if kp.agg == nil {
		return v.Materialize(), nil
	}
	partial = Aggregate(kp.agg, v, int(kp.hint.Load()))
	kp.hint.Store(int64(partial.Rows()))
	if kp.needOut {
		out = v.Materialize()
	}
	return out, partial
}

// Prefilter builds the slice-time pushdown hook for a pushed filter
// prefix: it drops non-qualifying rows from a chunk slice before the
// slicer buffers it. Filtering commutes with the slicer's run-length
// concatenation (predicates are row-wise), so the sealed window equals
// the unfused window filtered — the pushdown equivalence.
func Prefilter(preds []expr.Expr) func(*bat.Chunk) *bat.Chunk {
	return func(c *bat.Chunk) *bat.Chunk {
		var sel algebra.Sel
		for _, p := range preds {
			sel = expr.EvalPred(p, c, sel)
		}
		return algebra.FetchChunk(c, sel)
	}
}
