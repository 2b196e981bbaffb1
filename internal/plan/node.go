// Package plan implements the query planning layer of DataCell-Go: bound
// logical plans, the binder from SQL ASTs, a rule-based optimizer, a full
// (re-evaluation) executor, and the continuous-plan decomposition that
// implements the paper's plan rewriting — "the query plan as generated by
// the SQL optimizer is rewritten to a continuous query plan and handed
// over to the DataCell scheduler", with plans "split such as as many
// operators as possible can run independently on each portion of a sliding
// window stream" and merged at blocking operators.
package plan

import (
	"fmt"
	"strings"
	"time"

	"datacell/internal/algebra"
	"datacell/internal/bat"
	"datacell/internal/catalog"
	"datacell/internal/expr"
)

// Node is a bound logical plan operator.
type Node interface {
	// Schema is the operator's output column layout.
	Schema() bat.Schema
	// Children returns the inputs (leaves return nil).
	Children() []Node
	// Describe renders the operator in one line for plan printing.
	Describe() string
}

// Window is a bound window specification on a stream scan. Exactly one of
// the tuple/time forms is active.
type Window struct {
	Tuples   bool
	Size     int64 // tuples
	Slide    int64 // tuples
	Range    time.Duration
	SlideDur time.Duration
	TimeIdx  int // column index of the ordering attribute (time windows)
}

// Parts reports the number of basic windows (window partitioned at slide
// granularity, paper §3: "partitioning a window into n smaller parts,
// called basic windows. Each basic window is of equal size to the sliding
// step").
func (w *Window) Parts() int {
	if w.Tuples {
		return int(w.Size / w.Slide)
	}
	return int(w.Range / w.SlideDur)
}

// String renders the bound window.
func (w *Window) String() string {
	if w == nil {
		return ""
	}
	if w.Tuples {
		return fmt.Sprintf("[SIZE %d SLIDE %d]", w.Size, w.Slide)
	}
	return fmt.Sprintf("[RANGE %v SLIDE %v ON $%d]", w.Range, w.SlideDur, w.TimeIdx)
}

// ScanTable reads a persistent table snapshot.
type ScanTable struct {
	Table *catalog.Table
	Alias string
	Out   bat.Schema
}

// Schema implements Node.
func (n *ScanTable) Schema() bat.Schema { return n.Out }

// Children implements Node.
func (n *ScanTable) Children() []Node { return nil }

// Describe implements Node.
func (n *ScanTable) Describe() string {
	return fmt.Sprintf("scan table %s", n.Alias)
}

// ScanStream reads the (windowed) contents of a stream basket. In a
// continuous plan this is the factory's input place; in a one-time query
// it reads a snapshot of the basket.
type ScanStream struct {
	Stream *catalog.Stream
	Alias  string
	Window *Window
	Out    bat.Schema
}

// Schema implements Node.
func (n *ScanStream) Schema() bat.Schema { return n.Out }

// Children implements Node.
func (n *ScanStream) Children() []Node { return nil }

// Describe implements Node.
func (n *ScanStream) Describe() string {
	if n.Window != nil {
		return fmt.Sprintf("scan stream %s %s", n.Alias, n.Window)
	}
	return fmt.Sprintf("scan stream %s", n.Alias)
}

// Merged is the synthetic leaf of the post-merge fragment of a continuous
// plan: it stands for the chunk produced by merging cached basic-window
// intermediates. Plan printing shows it as the split/merge point.
type Merged struct {
	Out bat.Schema
}

// Schema implements Node.
func (n *Merged) Schema() bat.Schema { return n.Out }

// Children implements Node.
func (n *Merged) Children() []Node { return nil }

// Describe implements Node.
func (n *Merged) Describe() string { return "merge basic windows" }

// Filter keeps rows satisfying a predicate.
type Filter struct {
	Child Node
	Pred  expr.Expr
}

// Schema implements Node.
func (n *Filter) Schema() bat.Schema { return n.Child.Schema() }

// Children implements Node.
func (n *Filter) Children() []Node { return []Node{n.Child} }

// Describe implements Node.
func (n *Filter) Describe() string { return "select " + n.Pred.String() }

// Project computes output expressions.
type Project struct {
	Child Node
	Exprs []expr.Expr
	Out   bat.Schema
}

// Schema implements Node.
func (n *Project) Schema() bat.Schema { return n.Out }

// Children implements Node.
func (n *Project) Children() []Node { return []Node{n.Child} }

// Describe implements Node.
func (n *Project) Describe() string {
	parts := make([]string, len(n.Exprs))
	for i, e := range n.Exprs {
		parts[i] = e.String()
		if name := n.Out.Names[i]; name != e.String() {
			parts[i] += " as " + name
		}
	}
	return "project " + strings.Join(parts, ", ")
}

// Join combines two inputs. LKeys/RKeys are equi-join column indexes into
// the respective child schemas (filled in by the optimizer); Residual is
// any remaining predicate over the concatenated schema. With no keys the
// join degrades to a (filtered) cross product.
type Join struct {
	L, R     Node
	LKeys    []int
	RKeys    []int
	Residual expr.Expr
	Out      bat.Schema
}

// Schema implements Node.
func (n *Join) Schema() bat.Schema { return n.Out }

// Children implements Node.
func (n *Join) Children() []Node { return []Node{n.L, n.R} }

// Describe implements Node.
func (n *Join) Describe() string {
	if len(n.LKeys) == 0 {
		if n.Residual != nil {
			return "join (nested) on " + n.Residual.String()
		}
		return "cross join"
	}
	keys := make([]string, len(n.LKeys))
	ls, rs := n.L.Schema(), n.R.Schema()
	for i := range n.LKeys {
		keys[i] = fmt.Sprintf("%s=%s", ls.Names[n.LKeys[i]], rs.Names[n.RKeys[i]])
	}
	d := "join (hash) on " + strings.Join(keys, ", ")
	if n.Residual != nil {
		d += " where " + n.Residual.String()
	}
	return d
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Op   algebra.AggOp
	Arg  expr.Expr // nil for count(*)
	Name string    // output column name
}

// Kind is the aggregate's output kind.
func (a AggSpec) Kind() bat.Kind {
	if a.Op == algebra.AggCount {
		return bat.Int
	}
	k := a.Arg.Kind()
	if a.Op == algebra.AggSum && k == bat.Time {
		return bat.Int
	}
	return k
}

// String renders the aggregate call.
func (a AggSpec) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	return fmt.Sprintf("%s(%s)", a.Op, arg)
}

// Aggregate groups its input by key expressions and computes aggregates.
// Output schema: keys first, then aggregates. It is the blocking operator
// at which continuous plans split into per-basic-window partials plus a
// merge stage.
type Aggregate struct {
	Child    Node
	Keys     []expr.Expr
	KeyNames []string
	Aggs     []AggSpec
	Out      bat.Schema
}

// NewAggregate builds an Aggregate node and derives its output schema.
func NewAggregate(child Node, keys []expr.Expr, keyNames []string, aggs []AggSpec) *Aggregate {
	names := append([]string(nil), keyNames...)
	kinds := make([]bat.Kind, 0, len(keys)+len(aggs))
	for _, k := range keys {
		kinds = append(kinds, k.Kind())
	}
	for _, a := range aggs {
		names = append(names, a.Name)
		kinds = append(kinds, a.Kind())
	}
	return &Aggregate{
		Child: child, Keys: keys, KeyNames: keyNames, Aggs: aggs,
		Out: bat.NewSchema(names, kinds),
	}
}

// Schema implements Node.
func (n *Aggregate) Schema() bat.Schema { return n.Out }

// Children implements Node.
func (n *Aggregate) Children() []Node { return []Node{n.Child} }

// Describe implements Node.
func (n *Aggregate) Describe() string {
	keys := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		keys[i] = k.String()
	}
	aggs := make([]string, len(n.Aggs))
	for i, a := range n.Aggs {
		aggs[i] = a.String()
	}
	if len(keys) == 0 {
		return "aggregate " + strings.Join(aggs, ", ")
	}
	return fmt.Sprintf("group by %s aggregate %s",
		strings.Join(keys, ", "), strings.Join(aggs, ", "))
}

// SortSpec is one ORDER BY key, bound to an output column index of the
// child.
type SortSpec struct {
	Col  int
	Desc bool
}

// Sort orders its input.
type Sort struct {
	Child Node
	Keys  []SortSpec
}

// Schema implements Node.
func (n *Sort) Schema() bat.Schema { return n.Child.Schema() }

// Children implements Node.
func (n *Sort) Children() []Node { return []Node{n.Child} }

// Describe implements Node.
func (n *Sort) Describe() string {
	sch := n.Child.Schema()
	parts := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		parts[i] = sch.Names[k.Col]
		if k.Desc {
			parts[i] += " desc"
		}
	}
	return "order by " + strings.Join(parts, ", ")
}

// Limit keeps the first N rows.
type Limit struct {
	Child Node
	N     int64
}

// Schema implements Node.
func (n *Limit) Schema() bat.Schema { return n.Child.Schema() }

// Children implements Node.
func (n *Limit) Children() []Node { return []Node{n.Child} }

// Describe implements Node.
func (n *Limit) Describe() string { return fmt.Sprintf("limit %d", n.N) }

// Distinct removes duplicate rows (implemented as grouping on all
// columns); like Aggregate it is blocking.
type Distinct struct {
	Child Node
}

// Schema implements Node.
func (n *Distinct) Schema() bat.Schema { return n.Child.Schema() }

// Children implements Node.
func (n *Distinct) Children() []Node { return []Node{n.Child} }

// Describe implements Node.
func (n *Distinct) Describe() string { return "distinct" }

// String renders a plan tree with box-drawing indentation — the textual
// equivalent of the demo GUI's plan inspection pane.
func String(n Node) string {
	var b strings.Builder
	var walk func(n Node, prefix string, last bool, root bool)
	walk = func(n Node, prefix string, last bool, root bool) {
		if root {
			b.WriteString(n.Describe())
			b.WriteByte('\n')
		} else {
			branch := "├─ "
			if last {
				branch = "└─ "
			}
			b.WriteString(prefix + branch + n.Describe() + "\n")
			if last {
				prefix += "   "
			} else {
				prefix += "│  "
			}
		}
		kids := n.Children()
		for i, k := range kids {
			walk(k, prefix, i == len(kids)-1, false)
		}
	}
	walk(n, "", true, true)
	return b.String()
}

// Streams returns the stream scans in a plan, left to right.
func Streams(n Node) []*ScanStream {
	var out []*ScanStream
	var walk func(Node)
	walk = func(n Node) {
		if s, ok := n.(*ScanStream); ok {
			out = append(out, s)
		}
		for _, k := range n.Children() {
			walk(k)
		}
	}
	walk(n)
	return out
}
