package factory

import (
	"sync"
	"sync/atomic"

	"datacell/internal/bat"
	"datacell/internal/kernel"
	"datacell/internal/plan"
)

// dag is an execution group's shared operator DAG: a trie of pipeline
// operators keyed by canonical fingerprint (plan.Fingerprint). Every
// member's per-basic-window chain — filters, projections, static-table
// joins, and the optional partial-aggregate stage — registers as a path;
// members with identical prefixes share the path's nodes, so per sealed
// basic window each distinct operator evaluates exactly once and the
// member tails fan out only where their plans diverge. The nodes are not
// separately scheduled: whichever member tail transition reaches a node
// first evaluates it (under the window's memo latch) and siblings reuse
// the memoized result, which keeps member-granular pause/drop intact — a
// paused member never blocks a sibling, it just finds more memo hits when
// it catches up.
//
// Evaluation is fused (internal/kernel): memo cells hold lazy views —
// a filter node's cell is just a candidate list over its parent's view,
// and an aggregate node consumes its parent's view directly, evaluating
// keys and arguments in place through the selection. Each member
// requests exactly one node per window — its aggregate node when it has
// one, its pipeline leaf otherwise — so a view materializes (latched,
// once across all members) only when a non-aggregate member's chain ends
// at that node and its ring needs the dense chunk. Filter nodes under
// aggregate members never materialize. Bytes are identical to the former
// chunk-per-node memo: materializing a filter view IS the FetchChunk the
// unfused step performed eagerly.
type dag struct {
	mu    sync.Mutex
	nodes map[string]*dagNode
}

// dagNode is one distinct operator in the DAG. parent == nil means the
// node consumes the raw basic window (the shared scan front end).
type dagNode struct {
	fp     string
	parent *dagNode
	step   plan.PipelineStep // the operator; unset for aggregate nodes
	agg    *plan.Aggregate   // partial-aggregate nodes
	refs   int               // registered paths through this node
	// hint is the newest observed output cardinality of an aggregate
	// node, pre-sizing the next window's grouping hash table. Capacity
	// never affects the grouping, so the hint is best-effort racy.
	hint atomic.Int64
}

func newDAG() *dag { return &dag{nodes: make(map[string]*dagNode)} }

// register adds a member's pipeline chain (and optional partial-aggregate
// stage) to the DAG, reusing nodes whose cumulative fingerprints match.
// It returns the member's pipeline leaf and aggregate node (either may be
// nil: an empty chain means the member consumes raw basic windows).
// Each registered path holds one reference on every node it traverses;
// unregister releases them.
func (d *dag) register(steps []plan.PipelineStep, agg *plan.Aggregate, aggFp string) (leaf, aggNode *dagNode) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range steps {
		n := d.nodes[s.Fp]
		if n == nil {
			n = &dagNode{fp: s.Fp, parent: leaf, step: s}
			d.nodes[s.Fp] = n
		}
		leaf = n
	}
	d.retain(leaf)
	if agg != nil {
		// aggFp is the caller's memoized render (plan-cache-shared plans
		// pay it once); fall back to rendering here when absent.
		fp := aggFp
		if fp == "" {
			childFp := "raw"
			if leaf != nil {
				childFp = leaf.fp
			}
			fp = plan.FingerprintAggregate(agg, childFp)
		}
		n := d.nodes[fp]
		if n == nil {
			n = &dagNode{fp: fp, parent: leaf, agg: agg}
			d.nodes[fp] = n
		}
		aggNode = n
		d.retain(aggNode)
	}
	return leaf, aggNode
}

// retain adds one reference along the path from n to the root.
func (d *dag) retain(n *dagNode) {
	for ; n != nil; n = n.parent {
		n.refs++
	}
}

// unregister releases one path reference from n upward, pruning nodes no
// member reaches anymore.
func (d *dag) unregister(n *dagNode) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for ; n != nil; n = n.parent {
		n.refs--
		if n.refs <= 0 {
			delete(d.nodes, n.fp)
		}
	}
}

// Nodes reports the number of distinct operator nodes registered.
func (d *dag) Nodes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.nodes)
}

// dagWin is one sealed basic window's memo table, shared by every member
// the window was fanned out to. Cells latch with sync.Once: concurrent
// member tails needing the same node compute it once and the rest wait
// for (then reuse) the memoized view. Memoized views reference the raw
// window's shared buffer only until the batch of member firings that
// carries this dagWin completes; whatever a member keeps longer (ring
// contents) is a materialized immutable chunk, so buffer lifetime stays
// governed by the refcounted fanout exactly as before.
type dagWin struct {
	mu   sync.Mutex
	memo map[*dagNode]*memoCell
}

type memoCell struct {
	once sync.Once
	out  *kernel.View
}

func newDagWin() *dagWin { return &dagWin{memo: make(map[*dagNode]*memoCell)} }

func (w *dagWin) cell(n *dagNode) *memoCell {
	w.mu.Lock()
	c := w.memo[n]
	if c == nil {
		c = &memoCell{}
		w.memo[n] = c
	}
	w.mu.Unlock()
	return c
}

// eval returns node n's output for the basic window, computing it at most
// once per window. raw is the caller's view of the window's raw tuples
// (still referenced by the calling member, so it is valid for the whole
// evaluation). misses counts actual operator evaluations; hits counts
// member requests served entirely from the memo — i.e. work a sibling
// already did. A member's own recursive parent lookups are deliberately
// not hits (a lone member resolving filter then aggregate must report
// zero sharing), which is what makes hits/(hits+misses) an honest
// cross-query sharing rate. The requested node's view materializes here
// (latched in the view, so siblings requesting the same node share one
// reconstruction): for an aggregate node that is the partial chunk
// itself, for a pipeline leaf the dense surviving rows. Interior nodes —
// including the filter leaf under an aggregate member — never
// materialize.
func (d *dag) eval(w *dagWin, n *dagNode, raw *bat.Chunk, hits, misses *atomic.Int64) *bat.Chunk {
	if n == nil {
		return raw
	}
	out, computed := d.evalNode(w, n, raw, misses)
	if !computed {
		hits.Add(1)
	}
	return out.Materialize()
}

// evalNode resolves n through the window memo, recursing parent-first.
// computed reports whether THIS call performed n's evaluation (as opposed
// to finding it latched).
func (d *dag) evalNode(w *dagWin, n *dagNode, raw *bat.Chunk, misses *atomic.Int64) (out *kernel.View, computed bool) {
	if n == nil {
		return kernel.NewView(raw), false
	}
	c := w.cell(n)
	c.once.Do(func() {
		in, _ := d.evalNode(w, n.parent, raw, misses)
		if n.agg != nil {
			part := kernel.Aggregate(n.agg, in, int(n.hint.Load()))
			n.hint.Store(int64(part.Rows()))
			c.out = kernel.NewView(part)
		} else {
			c.out = kernel.ApplyStep(n.step, in)
		}
		misses.Add(1)
		computed = true
	})
	return c.out, computed
}
