package factory

import (
	"cmp"
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
// Aggregate nodes that hang off the same node — their first non-fused
// ancestor, or the window's root view — through fused chains of filters
// and column-reference projections, and group by the same columns of it,
// form a sibling set (siblingSet): per window the whole set evaluates in
// one call (kernel.AggregateSet), which groups the ancestor's rows once
// for all of them instead of once per sibling. Sets are decided under
// the dag's lock whenever a path registers or leaves, right after the
// fused flags, and published to the nodes atomically; an evaluation that
// reads a node's set mid-change is still correct either way, since a
// set's partials are byte-identical to the siblings' own.
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
	roots []*dagNode         // the registered nodes that read the window's root view
	free  []int              // pruned nodes' ordinals, for reuse
	size  int                // ordinals ever handed out: a new window's slab length
	epoch int64              // ordinal assignments so far
	cands []siblingCandidate // regroup's scratch
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
	// set is the sibling set an aggregate node belongs to, nil when none.
	set atomic.Pointer[siblingSet]
	// sib is an aggregate node's compiled sibling over its fused chain
	// from sibTop, nil when the chain cannot join a set; compiled tells a
	// chain from the root view apart from none compiled yet. Guarded by
	// the dag's mu.
	sib      *kernel.Sibling
	sibTop   *dagNode
	compiled bool
}

// siblingSet is a set of sibling aggregates: aggregate nodes whose fused
// chains start at the same node (top; nil is the window's root view) and
// that group by the same columns of it. It is immutable once published:
// a change of membership publishes a new set. The leader's memo cell —
// nodes[0], the earliest born — latches the whole set's evaluation in a
// window; nodes ascend by birth, so every evaluator takes the siblings'
// latches in one order.
type siblingSet struct {
	top   *dagNode
	nodes []*dagNode
	sibs  []*kernel.Sibling
	chain []int // the fused nodes above each sibling, counted as misses
	// hint is the largest partial of the newest evaluation, pre-sizing
	// the shared grouping (best-effort racy, like dagNode.hint).
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
	} else {
		d.roots = append(d.roots, n)
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
// aggFp is the aggregate stage's fingerprint over the chain
// (plan.Decomposition.AggFp). Each registered path holds one reference on
// every node it traverses — an aggregate member registers two, its leaf's
// and its aggregate's — and a member without an aggregate reads its leaf
// (ends); unregister releases both.
func (d *dag) register(steps []plan.PipelineStep, agg *plan.Aggregate, aggFp string) (leaf, aggNode *dagNode) {
	d.mu.Lock()
	defer d.mu.Unlock()
	nodes := len(d.nodes)
	for _, s := range steps {
		n, created := d.node(s.Fp, leaf)
		if created {
			n.step = kernel.CompileStep(s)
		}
		leaf = n
	}
	d.retain(leaf)
	if agg != nil {
		var created bool
		if aggNode, created = d.node(aggFp, leaf); created {
			aggNode.agg = agg
		}
		d.retain(aggNode)
	} else if leaf != nil {
		leaf.ends++
	}
	settle(leaf)
	if agg == nil || len(d.nodes) != nodes {
		// A new node or a new reader of leaf may move sibling sets; a
		// path that only retains existing nodes moves none.
		d.regroup(leaf)
	}
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
	nodes := len(d.nodes)
	if aggNode != nil {
		d.release(aggNode)
	} else if leaf != nil {
		leaf.ends--
	}
	d.release(leaf)
	settle(leaf)
	if aggNode == nil || len(d.nodes) != nodes {
		d.regroup(leaf)
	}
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
		n.set.Store(nil)
		drop := func(k *dagNode) bool { return k == n }
		if p := n.parent; p != nil {
			p.kids = slices.DeleteFunc(p.kids, drop)
		} else {
			d.roots = slices.DeleteFunc(d.roots, drop)
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

// regroup recomputes the sibling sets a change of the path from leaf to
// the root may have moved: the sets under each node of the path and under
// the root view. Only fused flags on that path change, so every aggregate
// whose first non-fused ancestor changed hangs below one of those nodes,
// and both its old and its new ancestor are among them. An aggregate's
// compiled sibling is kept until its chain starts at another node, and a
// set whose membership did not change stays published, so the work is a
// walk of those nodes' children. Callers hold the dag's mu, after settle.
func (d *dag) regroup(leaf *dagNode) {
	tops := []*dagNode{nil}
	for n := leaf; n != nil; n = n.parent {
		tops = append(tops, n)
	}
	for _, top := range tops {
		if top != nil && (top.fused.Load() || top.refs == 0) {
			continue // not a first non-fused ancestor, or pruned
		}
		cands := d.cands[:0]
		d.under(top, func(a *dagNode, steps []*kernel.Step) {
			if !a.compiled || a.sibTop != top {
				a.sib, _ = kernel.NewSibling(a.agg, slices.Clone(steps))
				a.sibTop, a.compiled = top, true
			}
			if a.sib == nil {
				a.set.Store(nil)
				return
			}
			cands = append(cands, siblingCandidate{a, len(steps)})
		})
		slices.SortFunc(cands, func(x, y siblingCandidate) int { return cmp.Compare(x.n.born, y.n.born) })
		var sets []*siblingSet
		for ci, c := range cands {
			i := slices.IndexFunc(sets, func(s *siblingSet) bool { return slices.Equal(s.sibs[0].Keys(), c.n.sib.Keys()) })
			if i < 0 {
				i = len(sets)
				rest := len(cands) - ci // the usual top holds one set
				sets = append(sets, &siblingSet{top: top, nodes: make([]*dagNode, 0, rest),
					sibs: make([]*kernel.Sibling, 0, rest), chain: make([]int, 0, rest)})
			}
			s := sets[i]
			s.nodes, s.sibs, s.chain = append(s.nodes, c.n), append(s.sibs, c.n.sib), append(s.chain, c.chain)
		}
		for _, s := range sets {
			if len(s.nodes) < 2 {
				s.nodes[0].set.Store(nil)
				continue
			}
			if old := s.nodes[0].set.Load(); old != nil && old.top == top &&
				slices.Equal(old.nodes, s.nodes) && slices.Equal(old.sibs, s.sibs) {
				continue // unchanged: every member still holds old
			}
			for _, a := range s.nodes {
				a.set.Store(s)
			}
		}
		clear(cands)
		d.cands = cands[:0]
	}
}

// siblingCandidate is an aggregate node regroup may put in a set, with the
// number of fused nodes in its chain.
type siblingCandidate struct {
	n     *dagNode
	chain int
}

// under calls f for every aggregate node whose fused chain starts at top
// (nil: the root view), with the chain's compiled steps, top first; f
// must copy steps to keep them. Callers hold the dag's mu.
func (d *dag) under(top *dagNode, f func(a *dagNode, steps []*kernel.Step)) {
	kids := d.roots
	if top != nil {
		kids = top.kids
	}
	var steps []*kernel.Step
	for _, n := range kids {
		steps = steps[:0]
		for n.agg == nil && n.fused.Load() {
			steps = append(steps, &n.step)
			n = n.kids[0]
		}
		if n.agg != nil {
			f(n, steps)
		}
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
	if s := n.set.Load(); s != nil {
		computed = s.eval(w, n, misses)
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

// eval evaluates the sibling set once per window, latched on its leader's
// memo cell, and fills every sibling's memo cell from the set's result —
// each sibling counting one miss per node, as its own evaluation would. A
// sibling whose cell is already latched keeps its own result, and when
// the leader's cell was latched outside the set (a private evaluation
// that read the node before the set formed) the set does not evaluate in
// this window and every sibling evaluates alone. Over a multi-run
// ancestor (a sharded window) the set does not evaluate either: sharing
// the gathered runs' grouping measured no faster on lroad, allocated
// more, and would serialize siblings that evaluate in parallel. computed
// reports whether this call filled n's own cell, n being one of the
// set's nodes.
func (s *siblingSet) eval(w *dagWin, n *dagNode, misses *atomic.Int64) (computed bool) {
	in, _ := evalNode(w, s.top, misses)
	if in.MultiRun() {
		return false
	}
	lead := w.cell(s.nodes[0])
	lead.once.Do(func() {
		var buf [8]*bat.Chunk // the usual set allocates no result list
		out := buf[:]
		if len(s.nodes) > len(buf) {
			out = make([]*bat.Chunk, len(s.nodes))
		}
		out = out[:len(s.nodes)]
		kernel.AggregateSet(s.sibs, in, int(s.hint.Load()), out)
		rows := 0
		for i, sn := range s.nodes {
			part := out[i]
			rows = max(rows, part.Rows())
			sn.hint.Store(int64(part.Rows()))
			c := lead
			if i > 0 {
				c = w.cell(sn)
			}
			fill := func() {
				c.view.Base = part
				c.out = &c.view
				misses.Add(int64(1 + s.chain[i]))
				computed = computed || sn == n
			}
			if i == 0 {
				fill()
			} else {
				c.once.Do(fill)
			}
		}
		s.hint.Store(int64(rows))
	})
	return computed
}
