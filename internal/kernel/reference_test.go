package kernel

import (
	"datacell/internal/algebra"
	"datacell/internal/bat"
	"datacell/internal/expr"
	"datacell/internal/plan"
)

// The dense reference the kernels are checked against: each operator
// evaluated over a materialized chunk, one fresh chunk per operator, with
// no selection threading, no column maps and no runs.

// refAggregate groups a dense chunk and aggregates every group. An empty
// input produces zero output rows.
func refAggregate(t *plan.Aggregate, in *bat.Chunk) *bat.Chunk {
	keyVecs := make([]bat.Vector, len(t.Keys))
	for i, k := range t.Keys {
		keyVecs[i] = k.Eval(in, nil)
	}
	g := algebra.Group(keyVecs, nil, in.Rows())
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

// refStep evaluates a Filter, Project or Limit step over a dense chunk.
func refStep(s plan.PipelineStep, in *bat.Chunk) *bat.Chunk {
	switch t := s.Op.(type) {
	case *plan.Filter:
		return algebra.FetchChunk(in, expr.EvalPred(t.Pred, in, nil))
	case *plan.Project:
		cols := make([]bat.Vector, len(t.Exprs))
		for i, e := range t.Exprs {
			cols[i] = e.Eval(in, nil)
		}
		return &bat.Chunk{Schema: t.Out, Cols: cols}
	case *plan.Limit:
		if int64(in.Rows()) <= t.N {
			return in
		}
		return in.Slice(0, int(t.N))
	}
	panic("kernel: no reference for this step")
}
