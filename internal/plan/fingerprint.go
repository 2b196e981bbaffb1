// This file holds the canonical operator fingerprints for shared
// multi-query execution. Two member queries of an execution group whose
// operator chains render to the same fingerprint chain perform identical
// work on identical input, so the group's shared tries evaluate the
// chain once per sealed basic window (pipeline DAG) or per merged
// full-window view (post-merge trie) and share the memoized output.
// Fingerprints are canonical strings, not hashes: collisions would
// silently cross-wire two queries' results, so equality must be exact.

package plan

import (
	"fmt"
	"strings"

	"datacell/internal/bat"
	"datacell/internal/expr"
)

// Fingerprint renders a plan operator's canonical identity: the
// operator's parameters plus, recursively, its children's fingerprints.
// Column references render positionally ($idx), never by name, so alias
// choices ("FROM s" vs "FROM s x") cannot split identical computations —
// and conversely two same-named columns of different positions cannot
// merge. Stream scans fingerprint at slide granularity (the group key),
// deliberately ignoring the window SIZE: basic windows are cut per slide,
// so members with different extents still consume identical raw chunks.
// Table scans fingerprint by catalog name — the snapshot both members
// would read. Sort, Limit and Distinct render canonically too — they
// cannot appear inside a per-basic-window pipeline, but post-merge
// fragments (HAVING filters, final sorts, LIMIT) share through the
// group's post-merge trie, whose node identities are built from these
// forms. Merged leaves fingerprint by pointer identity: a merged view's
// identity is its merge class (Decomposition.ClassKey), which seeds
// the root fingerprint of its post-merge chain (postSteps).
func Fingerprint(n Node) string {
	switch t := n.(type) {
	case *ScanStream:
		return "scan{" + GroupKey(t) + "}"
	case *ScanTable:
		return fmt.Sprintf("table{%s|%s}", t.Table.Name, t.Out)
	case *Filter:
		return fmt.Sprintf("filter{%s}(%s)", canonExpr(t.Pred), Fingerprint(t.Child))
	case *Project:
		exprs := make([]string, len(t.Exprs))
		for i, e := range t.Exprs {
			exprs[i] = canonExpr(e)
		}
		return fmt.Sprintf("project{%s|%s}(%s)",
			strings.Join(exprs, ","), t.Out, Fingerprint(t.Child))
	case *Join:
		return fmt.Sprintf("join{l=%v,r=%v,res=%s|%s}(%s,%s)",
			t.LKeys, t.RKeys, canonExpr(t.Residual), t.Out,
			Fingerprint(t.L), Fingerprint(t.R))
	case *Aggregate:
		return FingerprintAggregate(t, Fingerprint(t.Child))
	case *Sort:
		return fingerprintSort(t, Fingerprint(t.Child))
	case *Limit:
		return fmt.Sprintf("limit{%d}(%s)", t.N, Fingerprint(t.Child))
	case *Distinct:
		return fmt.Sprintf("distinct(%s)", Fingerprint(t.Child))
	default:
		return fmt.Sprintf("opaque{%p}", n)
	}
}

// fingerprintSort renders a Sort's canonical identity over an explicit
// child fingerprint. Sort keys are already positional (bound output
// column indexes), so the render is canonical by construction.
func fingerprintSort(t *Sort, childFp string) string {
	keys := make([]string, len(t.Keys))
	for i, k := range t.Keys {
		keys[i] = fmt.Sprintf("$%d", k.Col)
		if k.Desc {
			keys[i] += " desc"
		}
	}
	return fmt.Sprintf("sort{%s}(%s)", strings.Join(keys, ","), childFp)
}

// FingerprintAggregate renders the partial-aggregate stage's canonical
// identity over an explicit child fingerprint. The group DAG uses it to
// memoize per-basic-window partials: members sharing keys and aggregate
// specs over the same pipeline share one partial per basic window, even
// when their merge stages (HAVING, projections over the merged aggregate)
// diverge.
func FingerprintAggregate(a *Aggregate, childFp string) string {
	keys := make([]string, len(a.Keys))
	for i, k := range a.Keys {
		keys[i] = canonExpr(k)
	}
	aggs := make([]string, len(a.Aggs))
	for i, sp := range a.Aggs {
		arg := "*"
		if sp.Arg != nil {
			arg = canonExpr(sp.Arg)
		}
		aggs[i] = fmt.Sprintf("%s(%s)", sp.Op, arg)
	}
	return fmt.Sprintf("agg{k=%s|a=%s|%s}(%s)",
		strings.Join(keys, ","), strings.Join(aggs, ","), a.Out, childFp)
}

// canonExpr renders an expression with positional column references —
// expr.Expr.String() prints original column names, which vary with stream
// aliases while the computation does not.
func canonExpr(e expr.Expr) string {
	switch t := e.(type) {
	case nil:
		return "-"
	case *expr.Col:
		return fmt.Sprintf("$%d:%s", t.Idx, t.K)
	case *expr.Const:
		if t.V.Kind == bat.Str {
			// Quoted: a raw render is not injective ("a:str,b" would
			// collide with two separate arguments) and a collision here
			// cross-wires two queries' memoized results.
			return fmt.Sprintf("%q:%s", t.V.S, t.V.Kind)
		}
		return fmt.Sprintf("%s:%s", t.V, t.V.Kind)
	case *expr.Arith:
		return fmt.Sprintf("(%s%s%s)", canonExpr(t.L), t.Op, canonExpr(t.R))
	case *expr.Cast:
		return fmt.Sprintf("cast(%s,%s)", canonExpr(t.E), t.To)
	case *expr.Cmp:
		return fmt.Sprintf("(%s cmp%d %s)", canonExpr(t.L), t.Op, canonExpr(t.R))
	case *expr.Logic:
		if t.R == nil {
			return fmt.Sprintf("(not %s)", canonExpr(t.L))
		}
		return fmt.Sprintf("(%s log%d %s)", canonExpr(t.L), t.Op, canonExpr(t.R))
	case *expr.Func:
		args := make([]string, len(t.Args))
		for i, a := range t.Args {
			args[i] = canonExpr(a)
		}
		return fmt.Sprintf("%s(%s)", t.Name, strings.Join(args, ","))
	default:
		return fmt.Sprintf("opaque{%p}", e)
	}
}

// PipelineStep is one operator of a linearized plan chain — the unit a
// group's shared operator tries register as trie nodes. Two chains exist:
// per-basic-window pipelines (pipelineSteps, rooted at the stream scan)
// and post-merge fragments (postSteps, rooted at a merged full-window
// view). StreamLeft marks, for joins against static tables, which side
// carries the stream data.
type PipelineStep struct {
	// Op is the operator: Filter, Project, or static-table Join in a
	// per-basic-window pipeline; additionally Sort, Limit, Distinct, or
	// Aggregate in a post-merge fragment.
	Op Node
	// StreamLeft is meaningful for Join steps only: the stream side.
	StreamLeft bool
	// Fp is the canonical fingerprint of the chain up to this step.
	Fp string
}

// pipelineSteps walks root down its stream-side spine to the scan and
// returns the steps scan-upward. ok is false if the spine contains an
// operator other than a filter, projection or static-table join — which
// a decomposition pipeline never does (pipelineRoot admits exactly
// those); Decompose reports it as an error.
func pipelineSteps(root Node, scan *ScanStream) (steps []PipelineStep, ok bool) {
	var chain []PipelineStep
	cur := root
	for cur != scan {
		switch t := cur.(type) {
		case *Filter:
			chain = append(chain, PipelineStep{Op: t})
			cur = t.Child
		case *Project:
			chain = append(chain, PipelineStep{Op: t})
			cur = t.Child
		case *Join:
			// Pipeline joins have a static side (tables only) — see
			// pipelineRoot; descend the stream side.
			if len(Streams(t.L)) > 0 {
				chain = append(chain, PipelineStep{Op: t, StreamLeft: true})
				cur = t.L
			} else {
				chain = append(chain, PipelineStep{Op: t})
				cur = t.R
			}
		default:
			return nil, false
		}
	}
	// Reverse to scan-upward order and compute cumulative fingerprints.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	fp := Fingerprint(scan)
	for i := range chain {
		fp = stepFingerprint(chain[i], fp)
		chain[i].Fp = fp
	}
	return chain, true
}

// postSteps linearizes a post-merge fragment from its Merged leaf up to
// (and including) root: the operator chain a group's post-merge trie
// registers so identical HAVING filters, projections, final aggregates,
// sorts and LIMITs evaluate once per merged full-window view. rootFp
// seeds the cumulative fingerprints — Decompose passes the merge-class
// key (Decomposition.ClassKey), so chains over distinct merged views can
// never collide in one trie. The same chain is the member's private
// post-merge evaluation. ok is false when the fragment contains an
// operator other than those clonePath copies, which Decompose reports as
// an error.
func postSteps(root Node, leaf *Merged, rootFp string) (steps []PipelineStep, ok bool) {
	var chain []PipelineStep
	cur := root
	for cur != Node(leaf) {
		switch t := cur.(type) {
		case *Filter:
			chain = append(chain, PipelineStep{Op: t})
			cur = t.Child
		case *Project:
			chain = append(chain, PipelineStep{Op: t})
			cur = t.Child
		case *Sort:
			chain = append(chain, PipelineStep{Op: t})
			cur = t.Child
		case *Limit:
			chain = append(chain, PipelineStep{Op: t})
			cur = t.Child
		case *Distinct:
			chain = append(chain, PipelineStep{Op: t})
			cur = t.Child
		case *Aggregate:
			chain = append(chain, PipelineStep{Op: t})
			cur = t.Child
		default:
			return nil, false
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	fp := rootFp
	for i := range chain {
		fp = stepFingerprint(chain[i], fp)
		chain[i].Fp = fp
	}
	return chain, true
}

// stepFingerprint is Fingerprint with the chain-side child replaced by an
// explicit prefix fingerprint, so chains over distinct (but equivalent)
// roots — scan nodes, merged views — compose identically.
func stepFingerprint(s PipelineStep, childFp string) string {
	switch t := s.Op.(type) {
	case *Filter:
		return fmt.Sprintf("filter{%s}(%s)", canonExpr(t.Pred), childFp)
	case *Project:
		exprs := make([]string, len(t.Exprs))
		for i, e := range t.Exprs {
			exprs[i] = canonExpr(e)
		}
		return fmt.Sprintf("project{%s|%s}(%s)", strings.Join(exprs, ","), t.Out, childFp)
	case *Sort:
		return fingerprintSort(t, childFp)
	case *Limit:
		return fmt.Sprintf("limit{%d}(%s)", t.N, childFp)
	case *Distinct:
		return fmt.Sprintf("distinct(%s)", childFp)
	case *Aggregate:
		return FingerprintAggregate(t, childFp)
	case *Join:
		l, r := Fingerprint(t.L), Fingerprint(t.R)
		if s.StreamLeft {
			l = childFp
		} else {
			r = childFp
		}
		return fmt.Sprintf("join{l=%v,r=%v,res=%s|%s}(%s,%s)",
			t.LKeys, t.RKeys, canonExpr(t.Residual), t.Out, l, r)
	default:
		return fmt.Sprintf("opaque{%p}", s.Op)
	}
}
