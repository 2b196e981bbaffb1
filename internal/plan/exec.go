package plan

import (
	"fmt"

	"datacell/internal/algebra"
	"datacell/internal/bat"
	"datacell/internal/expr"
)

// Exec evaluates plans bottom-up, one materialized chunk per operator —
// the bulk processing model ("an efficient bulk processing model instead
// of the typical tuple-at-a-time volcano approach", paper §3). Stream and
// merged-intermediate leaves read from the injected input maps, which is
// how the factory layer feeds window contents and cached basic-window
// merges into plan fragments.
type Exec struct {
	// StreamInputs supplies the current batch/window contents per stream
	// scan. A missing entry yields an empty chunk.
	StreamInputs map[*ScanStream]*bat.Chunk
	// MergedInputs supplies the merged intermediate per Merged leaf.
	MergedInputs map[*Merged]*bat.Chunk
}

// Run evaluates the plan and returns the result chunk.
func (ex *Exec) Run(n Node) (*bat.Chunk, error) {
	switch t := n.(type) {
	case *ScanTable:
		return t.Table.Snapshot(), nil

	case *ScanStream:
		if c, ok := ex.StreamInputs[t]; ok && c != nil {
			return c, nil
		}
		return bat.NewChunk(t.Out), nil

	case *Merged:
		if c, ok := ex.MergedInputs[t]; ok && c != nil {
			return c, nil
		}
		return bat.NewChunk(t.Out), nil

	case *Filter:
		in, err := ex.Run(t.Child)
		if err != nil {
			return nil, err
		}
		sel := expr.EvalPred(t.Pred, in, nil)
		return algebra.FetchChunk(in, sel), nil

	case *Project:
		in, err := ex.Run(t.Child)
		if err != nil {
			return nil, err
		}
		cols := make([]bat.Vector, len(t.Exprs))
		for i, e := range t.Exprs {
			cols[i] = e.Eval(in, nil)
		}
		return &bat.Chunk{Schema: t.Out, Cols: cols}, nil

	case *Join:
		return ex.runJoin(t)

	case *Aggregate:
		in, err := ex.Run(t.Child)
		if err != nil {
			return nil, err
		}
		return RunAggregate(t, in), nil

	case *Distinct:
		in, err := ex.Run(t.Child)
		if err != nil {
			return nil, err
		}
		g := algebra.Group(in.Cols, nil, in.Rows())
		g.Release()
		return algebra.FetchChunk(in, g.Repr), nil

	case *Sort:
		in, err := ex.Run(t.Child)
		if err != nil {
			return nil, err
		}
		return RunSort(t, in), nil

	case *Limit:
		in, err := ex.Run(t.Child)
		if err != nil {
			return nil, err
		}
		if int64(in.Rows()) <= t.N {
			return in, nil
		}
		return in.Slice(0, int(t.N)), nil
	}
	return nil, fmt.Errorf("plan: cannot execute %T", n)
}

func (ex *Exec) runJoin(t *Join) (*bat.Chunk, error) {
	l, err := ex.Run(t.L)
	if err != nil {
		return nil, err
	}
	r, err := ex.Run(t.R)
	if err != nil {
		return nil, err
	}
	out := JoinChunks(t, l, r)
	return out, nil
}

// JoinChunks evaluates a join node against explicit input chunks. The
// window layer reuses it to join cached basic-window intermediates.
func JoinChunks(t *Join, l, r *bat.Chunk) *bat.Chunk {
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
		sel := expr.EvalPred(t.Residual, out, nil)
		out = algebra.FetchChunk(out, sel)
	}
	return out
}

// RunAggregate evaluates an Aggregate node over an input chunk. An empty
// input produces zero output rows (DataCell's windows emit nothing rather
// than NULL aggregates when no tuples qualify).
func RunAggregate(t *Aggregate, in *bat.Chunk) *bat.Chunk {
	keyVecs := make([]bat.Vector, len(t.Keys))
	for i, k := range t.Keys {
		keyVecs[i] = k.Eval(in, nil)
	}
	rows := in.Rows()
	g := algebra.Group(keyVecs, nil, rows)
	defer g.Release()
	cols := make([]bat.Vector, 0, len(t.Keys)+len(t.Aggs))
	for _, kv := range keyVecs {
		cols = append(cols, algebra.Fetch(kv, g.Repr))
	}
	for _, spec := range t.Aggs {
		var arg bat.Vector
		if spec.Arg != nil {
			arg = spec.Arg.Eval(in, nil)
		}
		cols = append(cols, algebra.Aggregate(spec.Op, arg, nil, g))
	}
	return &bat.Chunk{Schema: t.Out, Cols: cols}
}

// MergePlan derives the aggregate that merges t's partial results — the
// merge stage of the paper's incremental sliding-window processing: each
// basic window contributes one partial, and a slide merges the cached
// partials instead of recomputing the full window. Its input layout is
// t's output layout (keys, then aggregates): the group keys are the
// partials' first len(t.Keys) columns, and each aggregate reads its own
// partial column — counts and sums add up, mins and maxes take extremes.
// Its output schema is t's.
func MergePlan(t *Aggregate) *Aggregate {
	nk := len(t.Keys)
	col := func(i int) expr.Expr {
		return &expr.Col{Idx: i, K: t.Out.Kinds[i], Name: t.Out.Names[i]}
	}
	m := &Aggregate{Keys: make([]expr.Expr, nk), KeyNames: t.KeyNames, Aggs: make([]AggSpec, len(t.Aggs)), Out: t.Out}
	for i := range m.Keys {
		m.Keys[i] = col(i)
	}
	for i, spec := range t.Aggs {
		op := spec.Op
		if op == algebra.AggCount {
			op = algebra.AggSum // counts merge by summation
		}
		m.Aggs[i] = AggSpec{Op: op, Arg: col(nk + i), Name: spec.Name}
	}
	return m
}

// MergeAggregate merges already-aggregated partial results, concatenated
// into one chunk, with the unfused executor: RunAggregate of MergePlan.
func MergeAggregate(t *Aggregate, partials *bat.Chunk) *bat.Chunk {
	return RunAggregate(MergePlan(t), partials)
}

// RunSort evaluates a Sort node over an input chunk.
func RunSort(t *Sort, in *bat.Chunk) *bat.Chunk {
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
