package plan

import (
	"fmt"

	"datacell/internal/algebra"
	"datacell/internal/expr"
)

// Decomposition is a continuous plan split for incremental evaluation
// (paper §3, Sliding Window Processing): per-basic-window pipeline
// fragments whose intermediates are cached, an optional blocking boundary
// (aggregate or stream-stream join) where partials are merged, and a
// post-merge fragment.
//
// Layouts produced:
//
//	single stream, aggregate:   PerBW → [Agg partials per basic window] → merge → Post
//	single stream, no aggregate: PerBW cached per basic window → concat → Post
//	two streams (join):         PerBW_L, PerBW_R cached; join evaluated per
//	                            basic-window pair and cached; concat → Post
type Decomposition struct {
	// Pipelines holds one per-basic-window fragment per stream, in
	// Streams() order. Each fragment's only stream leaf is its Scan; it
	// may include filters, projections and joins against static tables.
	Pipelines []*Pipeline
	// Join is the stream⋈stream node (nil for single-stream plans). Its
	// inputs correspond to the two pipeline outputs.
	Join *Join
	// Agg is the aggregate at the blocking boundary for single-stream
	// plans (nil if none, or if the plan is a join plan — aggregates above
	// a stream join are recomputed over the merged join output inside
	// Post).
	Agg *Aggregate
	// MergedLeaf is the synthetic leaf feeding Post.
	MergedLeaf *Merged
	// Post is the fragment above the merge; nil means the merged chunk is
	// the query result.
	Post Node

	// The plan's identity, derived once by Decompose: the engine's plan
	// cache hands the same decomposition to every registration of a
	// repeated source, so they all reuse these renders.
	//
	// PostSteps linearizes Post (postSteps, rooted at ClassKey; nil
	// without Post). ClassKey is the merge-class key: members of one
	// execution group that agree on it hold byte-identical full-window
	// merged views (mergeKey). AggFp is the partial-aggregate stage's
	// fingerprint over the pipeline chain ("raw" for an empty chain; ""
	// without Agg), JoinFp Fingerprint(Join) ("" without Join), and Merge
	// MergePlan(Agg) (nil without Agg).
	//
	// Stream-scan fingerprints fold in the stream's fabric partition tag
	// (GroupKey), which can change without a catalog generation bump, so a
	// cached decomposition may carry a tag from an earlier partitioning
	// epoch. It can only repeat a key the same plan already produced,
	// never one that collides with a different computation: the worst case
	// is a missed share across a re-partitioning, not a cross-wiring.
	PostSteps []PipelineStep
	ClassKey  string
	AggFp     string
	JoinFp    string
	Merge     *Aggregate
}

// Pipeline is one per-basic-window fragment and its linearization
// (pipelineSteps), scan first.
type Pipeline struct {
	Scan  *ScanStream
	Root  Node
	Steps []PipelineStep
}

// Decompose splits an optimized continuous plan for incremental
// evaluation. It returns an error describing why the plan must fall back
// to full re-evaluation when the shape is unsupported; the engine then
// runs mode 1 (the paper's re-evaluation mode) instead.
func Decompose(root Node) (*Decomposition, error) {
	streams := Streams(root)
	switch len(streams) {
	case 0:
		return nil, fmt.Errorf("plan: not a continuous query (no stream scan)")
	case 1, 2:
	default:
		return nil, fmt.Errorf("plan: incremental mode supports at most 2 streams, got %d", len(streams))
	}
	for _, s := range streams {
		if s.Window == nil {
			return nil, fmt.Errorf("plan: incremental mode requires a window on stream %q", s.Alias)
		}
	}

	parents := parentMap(root)

	var d *Decomposition
	var err error
	if len(streams) == 1 {
		d, err = decomposeSingle(root, streams[0], parents)
	} else {
		d, err = decomposeJoin(root, streams, parents)
	}
	if err != nil {
		return nil, err
	}
	return d, d.identify()
}

// identify linearizes the decomposition's fragments and derives its
// identity fields. A fragment that does not linearize is an error, so the
// plan falls back to re-evaluation like any other unsupported shape.
func (d *Decomposition) identify() error {
	for _, p := range d.Pipelines {
		steps, ok := pipelineSteps(p.Root, p.Scan)
		if !ok {
			return fmt.Errorf("plan: pipeline of %s does not linearize", p.Scan.Alias)
		}
		p.Steps = steps
	}
	if d.Join != nil {
		d.JoinFp = Fingerprint(d.Join)
	}
	if d.Agg != nil {
		childFp := "raw"
		if steps := d.Pipelines[0].Steps; len(steps) > 0 {
			childFp = steps[len(steps)-1].Fp
		}
		d.AggFp = FingerprintAggregate(d.Agg, childFp)
		d.Merge = MergePlan(d.Agg)
	}
	d.ClassKey = d.mergeKey()
	if d.Post != nil {
		steps, ok := postSteps(d.Post, d.MergedLeaf, d.ClassKey)
		if !ok {
			return fmt.Errorf("plan: post-merge fragment does not linearize")
		}
		d.PostSteps = steps
	}
	return nil
}

func decomposeSingle(root Node, scan *ScanStream, parents map[Node]Node) (*Decomposition, error) {
	p := pipelineRoot(scan, parents)
	d := &Decomposition{Pipelines: []*Pipeline{{Scan: scan, Root: p}}}

	boundary := p
	if agg, ok := parents[p].(*Aggregate); ok {
		d.Agg = agg
		boundary = agg
	}
	d.MergedLeaf = &Merged{Out: boundary.Schema()}
	if boundary != root {
		post, err := clonePath(root, boundary, d.MergedLeaf)
		if err != nil {
			return nil, err
		}
		d.Post = post
	}
	return d, nil
}

func decomposeJoin(root Node, streams []*ScanStream, parents map[Node]Node) (*Decomposition, error) {
	if err := windowsCompatible(streams[0].Window, streams[1].Window); err != nil {
		return nil, err
	}
	pl := pipelineRoot(streams[0], parents)
	pr := pipelineRoot(streams[1], parents)
	jl, okL := parents[pl].(*Join)
	jr, okR := parents[pr].(*Join)
	if !okL || !okR || jl != jr {
		return nil, fmt.Errorf("plan: stream pipelines do not meet at a single join")
	}
	if jl.L != pl || jl.R != pr {
		return nil, fmt.Errorf("plan: join sides do not align with stream pipelines")
	}
	d := &Decomposition{
		Pipelines: []*Pipeline{{Scan: streams[0], Root: pl}, {Scan: streams[1], Root: pr}},
		Join:      jl,
	}
	d.MergedLeaf = &Merged{Out: jl.Schema()}
	if jl != root {
		post, err := clonePath(root, jl, d.MergedLeaf)
		if err != nil {
			return nil, err
		}
		d.Post = post
	}
	return d, nil
}

// windowsCompatible requires the two stream windows of a join to slide in
// lockstep, so basic windows pair one-to-one.
func windowsCompatible(a, b *Window) error {
	if a.Tuples != b.Tuples {
		return fmt.Errorf("plan: join mixes tuple and time windows")
	}
	if a.Tuples {
		if a.Size != b.Size || a.Slide != b.Slide {
			return fmt.Errorf("plan: join windows differ (SIZE %d SLIDE %d vs SIZE %d SLIDE %d)",
				a.Size, a.Slide, b.Size, b.Slide)
		}
		return nil
	}
	if a.Range != b.Range || a.SlideDur != b.SlideDur {
		return fmt.Errorf("plan: join windows differ (RANGE %v SLIDE %v vs RANGE %v SLIDE %v)",
			a.Range, a.SlideDur, b.Range, b.SlideDur)
	}
	return nil
}

// pipelineRoot ascends from a stream scan through the operators that can
// run independently per basic window: filters, projections, and joins
// whose other side is static (tables only). It returns the top of that
// chain.
func pipelineRoot(scan *ScanStream, parents map[Node]Node) Node {
	var cur Node = scan
	for {
		p := parents[cur]
		switch t := p.(type) {
		case *Filter, *Project:
			cur = p.(Node)
			_ = t
		case *Join:
			// A join is pipeline-able only if the other side carries no
			// stream data (a static dimension table).
			other := t.L
			if t.L == cur {
				other = t.R
			}
			if len(Streams(other)) == 0 {
				cur = p
			} else {
				return cur
			}
		default:
			return cur
		}
	}
}

// parentMap records each node's parent.
func parentMap(root Node) map[Node]Node {
	m := make(map[Node]Node)
	var walk func(Node)
	walk = func(n Node) {
		for _, k := range n.Children() {
			m[k] = n
			walk(k)
		}
	}
	walk(root)
	return m
}

// clonePath copies the operators from root down to (and excluding)
// boundary, substituting leaf for boundary. Every node on the path must
// have a single child on the path; anything else (e.g. a join above the
// blocking boundary) is unsupported.
func clonePath(root, boundary Node, leaf Node) (Node, error) {
	if root == boundary {
		return leaf, nil
	}
	switch t := root.(type) {
	case *Filter:
		c, err := clonePath(t.Child, boundary, leaf)
		if err != nil {
			return nil, err
		}
		return &Filter{Child: c, Pred: t.Pred}, nil
	case *Project:
		c, err := clonePath(t.Child, boundary, leaf)
		if err != nil {
			return nil, err
		}
		return &Project{Child: c, Exprs: t.Exprs, Out: t.Out}, nil
	case *Sort:
		c, err := clonePath(t.Child, boundary, leaf)
		if err != nil {
			return nil, err
		}
		return &Sort{Child: c, Keys: t.Keys}, nil
	case *Limit:
		c, err := clonePath(t.Child, boundary, leaf)
		if err != nil {
			return nil, err
		}
		return &Limit{Child: c, N: t.N}, nil
	case *Distinct:
		c, err := clonePath(t.Child, boundary, leaf)
		if err != nil {
			return nil, err
		}
		return &Distinct{Child: c}, nil
	case *Aggregate:
		c, err := clonePath(t.Child, boundary, leaf)
		if err != nil {
			return nil, err
		}
		return &Aggregate{Child: c, Keys: t.Keys, KeyNames: t.KeyNames, Aggs: t.Aggs, Out: t.Out}, nil
	default:
		return nil, fmt.Errorf("plan: operator %T above the blocking boundary is not supported incrementally", root)
	}
}

// ContinuousString renders the incremental decomposition the way the demo
// GUI shows continuous plans: the per-basic-window fragments, the blocking
// boundary where partials merge, and the post-merge fragment.
func (d *Decomposition) ContinuousString() string {
	out := ""
	for i, p := range d.Pipelines {
		out += fmt.Sprintf("-- per basic window of %s --\n%s", p.Scan.Alias, String(p.Root))
		if i < len(d.Pipelines)-1 {
			out += "\n"
		}
	}
	switch {
	case d.Join != nil:
		out += "\n-- per basic-window pair (cached) --\n" + d.Join.Describe() + "\n"
	case d.Agg != nil:
		out += "\n-- partial per basic window, merged per slide --\n" + d.Agg.Describe() + "\n"
	default:
		out += "\n-- concatenate cached basic windows per slide --\n"
	}
	if d.Post != nil {
		out += "\n-- per slide --\n" + String(d.Post)
	}
	return out
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
