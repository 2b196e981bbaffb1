package factory

import (
	"slices"
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
// a memoized filter node's cell is a candidate list over its parent's
// view (none when the filter keeps every row of an unselected run), and
// an aggregate node consumes its parent's view directly, evaluating keys
// and arguments in place through the selection. Each member requests
// exactly one node per window — its aggregate node when it has one, its
// pipeline leaf otherwise — so a view materializes (latched, once across
// all members) only when a non-aggregate member's chain ends at that
// node and its ring needs the dense chunk. Bytes are identical to a
// chunk-per-node memo: materializing a filter view IS the FetchChunk a
// dense filter would perform eagerly.
//
// A node whose only reader is one aggregate node — no member's chain
// ends at it and it has no other child — is fused into that aggregate
// (dagNode.fused), and so is a chain of such nodes: the aggregate's
// evaluation derives the chain's views itself, with selections that live
// only for the call (kernel.AggregateSteps), and the chain's memo cells
// stay empty. The slab, which the class rings keep for a whole window
// extent, then holds no selection nobody reads again. The flag is
// decided under the dag's lock whenever a path registers or leaves; an
// evaluation that reads it mid-change is still correct either way, since
// a memoized evaluation of the same node yields the same view.
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
	// shared counts the nodes two or more registered paths pass through
	// (dagNode.shared). It changes under mu and is read without it.
	shared atomic.Int64
}

// dagNode is one distinct operator in the DAG. parent == nil means the
// node consumes the raw basic window (the shared scan front end).
type dagNode struct {
	fp     string
	parent *dagNode
	step   kernel.Step     // the compiled operator; unset for aggregate nodes
	agg    *plan.Aggregate // partial-aggregate nodes
	refs   int             // registered paths through this node
	// kids are the registered nodes whose parent is this node, and ends
	// counts the registered paths that read this node's own output: the
	// non-aggregate members whose chain ends here. Both are guarded by
	// the dag's mu; fused caches what they decide for the lock-free
	// evaluator.
	kids  []*dagNode
	ends  int
	fused atomic.Bool
	// shared caches refs ≥ 2 for the lock-free evaluator. In a post-merge
	// trie, where every path is one member's chain, a chain whose first
	// node is not shared shares no node at all.
	shared atomic.Bool
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
	if parent != nil {
		parent.kids = append(parent.kids, n)
	}
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
// Each registered path holds one reference on every node it traverses —
// an aggregate member registers two, its leaf's and its aggregate's —
// and a member without an aggregate reads its leaf (ends); unregister
// releases both.
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
	} else if leaf != nil {
		leaf.ends++
	}
	settle(leaf)
	return leaf, aggNode
}

// retain adds one reference along the path from n to the root.
func (d *dag) retain(n *dagNode) {
	for ; n != nil; n = n.parent {
		n.refs++
		if n.refs == 2 {
			n.shared.Store(true)
			d.shared.Add(1)
		}
	}
}

// unregister releases what register(…) returning leaf and aggNode took,
// pruning nodes no member reaches anymore.
func (d *dag) unregister(leaf, aggNode *dagNode) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if aggNode != nil {
		d.release(aggNode)
	} else if leaf != nil {
		leaf.ends--
	}
	d.release(leaf)
	settle(leaf)
}

// release drops one path reference from n upward. Callers hold d.mu.
func (d *dag) release(n *dagNode) {
	for ; n != nil; n = n.parent {
		n.refs--
		if n.refs == 1 {
			n.shared.Store(false)
			d.shared.Add(-1)
		}
		if n.refs > 0 {
			continue
		}
		delete(d.nodes, n.fp)
		d.free = append(d.free, n.ord)
		if p := n.parent; p != nil {
			p.kids = slices.DeleteFunc(p.kids, func(k *dagNode) bool { return k == n })
		}
	}
}

// settle recomputes fused from n up to the root, children first: a
// non-aggregate node is fused when nothing reads it but its only child,
// and that child is an aggregate or fused itself. Callers hold the dag's
// mu.
func settle(n *dagNode) {
	for ; n != nil; n = n.parent {
		one := len(n.kids) == 1 && (n.kids[0].agg != nil || n.kids[0].fused.Load())
		n.fused.Store(n.agg == nil && n.ends == 0 && one)
	}
}

// chain returns the compiled steps of the path from the root to leaf,
// root first, and the path's first node.
func chain(leaf *dagNode) (steps []*kernel.Step, top *dagNode) {
	for n := leaf; n != nil; n = n.parent {
		steps = append(steps, &n.step)
		top = n
	}
	slices.Reverse(steps)
	return steps, top
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
// class's post-merge trie whose chains share a node, the class's merged
// view. Cells latch with sync.Once: concurrent member tails needing the
// same node compute it once and the rest wait for (then reuse) the
// memoized view. Memoized views reference the raw window's runs only
// until the batch of member firings that carries this dagWin completes;
// whatever a member keeps longer (ring contents) is a materialized
// immutable chunk, so buffer lifetime stays governed by the refcounted
// fanout exactly as before.
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
		if n.agg != nil {
			c.view.Base = evalAggregate(w, n, misses)
			c.out = &c.view
		} else {
			in, _ := evalNode(w, n.parent, misses)
			c.out = n.step.Apply(in, &c.view)
		}
		misses.Add(1)
		computed = true
	})
	return c.out, computed
}

// evalAggregate computes aggregate node n's partial: over its memoized
// input when its parent is not fused, otherwise over the fused chain
// above it, evaluated for this call only. Each fused node counts one
// miss, as its memoized evaluation would.
func evalAggregate(w *dagWin, n *dagNode, misses *atomic.Int64) *bat.Chunk {
	var buf [4]*kernel.Step
	steps := buf[:0]
	top := n.parent
	for ; top != nil && top.fused.Load(); top = top.parent {
		steps = append(steps, &top.step)
	}
	slices.Reverse(steps)
	in, _ := evalNode(w, top, misses)
	part := kernel.AggregateSteps(n.agg, steps, in, int(n.hint.Load()))
	n.hint.Store(int64(part.Rows()))
	misses.Add(int64(len(steps)))
	return part
}
