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
// aggregate members never materialize. Bytes are identical to a
// chunk-per-node memo: materializing a filter view IS the FetchChunk a
// dense filter would perform eagerly.
//
// Every live node holds a dense ordinal, its index into a window's memo
// slab (dagWin.cells), so a member's per-window lookup is an index, not a
// map insert under a lock. A pruned node's ordinal returns to a free list
// and the next registered node reuses it; the dag's epoch, bumped on
// every assignment, keeps a reused ordinal from reaching a cell an older
// window filled for the previous holder.
type dag struct {
	mu    sync.Mutex
	nodes map[string]*dagNode
	free  []int // pruned nodes' ordinals, for reuse
	size  int   // ordinals ever handed out: a new window's slab length
	epoch int64 // ordinal assignments so far
}

// dagNode is one distinct operator in the DAG. parent == nil means the
// node consumes the raw basic window (the shared scan front end).
type dagNode struct {
	fp     string
	parent *dagNode
	step   kernel.Step     // the compiled operator; unset for aggregate nodes
	agg    *plan.Aggregate // partial-aggregate nodes
	refs   int             // registered paths through this node
	// ord is the node's memo slab index and born the dag epoch at which
	// it was assigned; a window created at an earlier epoch has no slab
	// cell for the node.
	ord  int
	born int64
	// hint is the newest observed output cardinality of an aggregate
	// node, pre-sizing the next window's grouping hash table. Capacity
	// never affects the grouping, so the hint is best-effort racy.
	hint atomic.Int64
}

func newDAG() *dag { return &dag{nodes: make(map[string]*dagNode)} }

// node returns the registered node of fingerprint fp, creating it —
// with a fresh or reused ordinal — when absent; created reports which.
// Callers hold d.mu.
func (d *dag) node(fp string, parent *dagNode) (n *dagNode, created bool) {
	if n := d.nodes[fp]; n != nil {
		return n, false
	}
	n = &dagNode{fp: fp, parent: parent}
	if k := len(d.free); k > 0 {
		n.ord, d.free = d.free[k-1], d.free[:k-1]
	} else {
		n.ord = d.size
		d.size++
	}
	d.epoch++
	n.born = d.epoch
	d.nodes[fp] = n
	return n, true
}

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
		n, created := d.node(s.Fp, leaf)
		if created {
			n.step = kernel.CompileStep(s)
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
		var created bool
		if aggNode, created = d.node(fp, leaf); created {
			aggNode.agg = agg
		}
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
			d.free = append(d.free, n.ord)
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
// the window was fanned out to, rooted at the window's input view: the
// raw basic window read through its runs (kernel.RunsView), or, in a
// class's post-merge trie, the class's merged view. Cells latch with
// sync.Once: concurrent member tails needing the same node compute it
// once and the rest wait for (then reuse) the memoized view. Memoized
// views reference the raw window's runs only until the batch of member
// firings that carries this dagWin completes; whatever a member keeps
// longer (ring contents) is a materialized immutable chunk, so buffer
// lifetime stays governed by the refcounted fanout exactly as before.
//
// The cells are one slab indexed by node ordinal, sized to the dag's
// ordinals when the window is created, and read without a lock. A node
// born after that — a fresh ordinal, or a reused one whose slab cell may
// hold the previous holder's output — has its cell in the locked late
// map instead.
type dagWin struct {
	root  *kernel.View
	epoch int64 // the dag's epoch at creation: nodes born later use late
	cells []memoCell
	mu    sync.Mutex
	late  map[*dagNode]*memoCell
}

// memoCell latches one node's output view. A filter's, a compiled
// projection's or an aggregate's view lives in the cell itself (view),
// so evaluating the node allocates only what the operator computes.
type memoCell struct {
	once sync.Once
	out  *kernel.View
	view kernel.View
}

// newWin creates a window's memo table rooted at root.
func (d *dag) newWin(root *kernel.View) *dagWin {
	d.mu.Lock()
	size, epoch := d.size, d.epoch
	d.mu.Unlock()
	return &dagWin{root: root, epoch: epoch, cells: make([]memoCell, size)}
}

// cell returns node n's memo cell in the window.
func (w *dagWin) cell(n *dagNode) *memoCell {
	if n.born <= w.epoch && n.ord < len(w.cells) {
		return &w.cells[n.ord]
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.late == nil {
		w.late = make(map[*dagNode]*memoCell)
	}
	c := w.late[n]
	if c == nil {
		c = &memoCell{}
		w.late[n] = c
	}
	return c
}

// eval returns node n's output for the basic window, computing it at most
// once per window; a nil node is the window's root view itself. misses
// counts actual operator evaluations; hits counts member requests served
// entirely from the memo — i.e. work a sibling already did. A member's
// own recursive parent lookups are deliberately not hits (a lone member
// resolving filter then aggregate must report zero sharing), which is
// what makes hits/(hits+misses) an honest cross-query sharing rate. The requested node's view materializes here
// (latched in the view, so siblings requesting the same node share one
// reconstruction): for an aggregate node that is the partial chunk
// itself, for a pipeline leaf the dense surviving rows. Interior nodes —
// including the filter leaf under an aggregate member — never
// materialize.
func eval(w *dagWin, n *dagNode, hits, misses *atomic.Int64) *bat.Chunk {
	if n == nil {
		return w.root.Materialize()
	}
	out, computed := evalNode(w, n, misses)
	if !computed {
		hits.Add(1)
	}
	return out.Materialize()
}

// evalNode resolves n through the window memo, recursing parent-first.
// computed reports whether THIS call performed n's evaluation (as opposed
// to finding it latched).
func evalNode(w *dagWin, n *dagNode, misses *atomic.Int64) (out *kernel.View, computed bool) {
	if n == nil {
		return w.root, false
	}
	c := w.cell(n)
	c.once.Do(func() {
		in, _ := evalNode(w, n.parent, misses)
		if n.agg != nil {
			part := kernel.Aggregate(n.agg, in, int(n.hint.Load()))
			n.hint.Store(int64(part.Rows()))
			c.view.Base = part
			c.out = &c.view
		} else {
			c.out = n.step.Apply(in, &c.view)
		}
		misses.Add(1)
		computed = true
	})
	return c.out, computed
}
