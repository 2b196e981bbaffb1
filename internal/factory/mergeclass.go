package factory

import (
	"sync"
	"sync/atomic"

	"datacell/internal/bat"
	"datacell/internal/kernel"
	"datacell/internal/plan"
	"datacell/internal/window"
)

// mergeClass is a group-owned merge ring per side: the shared-execution
// extension of the per-member window rings past the merge boundary.
// Members of one Group whose decompositions agree on a merge key — window
// extent plus the canonical fingerprint of the merged view's content
// (plan.Decomposition.ClassKey; over a join, the join fingerprint, which
// covers both side pipelines) — hold byte-identical merged views,
// so the group keeps ONE ring of the last `parts` sealed basic windows
// per side and class and evaluates the merged view once per window for
// all of them. How depends on the number of sides, fixed when the class
// is created: over one side the view is the concatenation of the cached
// pipeline outputs, or the merge of the partial aggregates; over two it
// is the pair-cache maintenance for the newest window plus the
// (leftGen, rightGen)-ordered concat of the live pair set.
//
// A class activates at its second member and deactivates — releasing
// its rings — when membership drops back to one: a singleton extent
// always merges through its private rings, so the class never pins raw
// window buffers without at least two members sharing the result. Each
// ring slot holds one reference on the window's delivery-log entry,
// released on eviction, so the group's live-buffer gauge accounts for the
// class rings exactly like the members' unread windows.
//
// The merged views themselves are memoized per window in mergeCells that
// the window's log entry carries (like the pipeline DAG's dagWin memo
// tables): a cell lives exactly as long as some member has yet to read or
// release its window, so paused members find their merged views on
// resume without the class tracking per-member progress.
//
// The class owns its members' post-merge trie (post): the registry of
// their HAVING/sort/limit chains over its merged view. A chain no other
// member shares a node of is evaluated by its member alone, straight
// from the merged view (kernel.MaterializeSteps); only while some node
// has two or more readers does a window's merge cell carry a memo slab
// over the trie, so identical fragments still evaluate once per window.
type mergeClass struct {
	ord   int // index in the group's class slots (Group.classSlots)
	parts int
	leaf  []*dagNode // per-side pipeline leaves in the side DAGs (nil: raw)
	view  func(c *mergeCell, g *Group) *bat.Chunk
	post  *dag

	// One side: the merge plan of the partial-aggregate stage (nil: the
	// merged view is the concat of outs), the stage's DAG node, and the
	// merged view's schema.
	merge     *plan.Aggregate
	aggLeaf   *dagNode
	outSchema bat.Schema
	// Two sides: the class members' shared pair cache.
	pc *window.SharedPairCache

	// refs counts members registered under the class key; active latches
	// at the second member. Both are guarded by the owning Group's mu.
	refs   int
	active bool

	mu     sync.Mutex
	closed bool
	rings  [2][]mergeIn // last `parts` sealed windows per side, oldest first
}

// newMergeClass builds the class of its first member m, whose
// decomposition is d: the class resolves ring windows through m's side
// leaves (and, over one side, its partial-aggregate node) and, over two
// sides, merges through m's pair cache.
func newMergeClass(m *Member, d *plan.Decomposition) *mergeClass {
	mc := &mergeClass{parts: m.parts, leaf: m.leaf, pc: m.pc, post: newDAG()}
	if len(m.leaf) == 1 {
		mc.merge, mc.aggLeaf, mc.outSchema, mc.view = d.Merge, m.aggLeaf, d.MergedLeaf.Out, mergeScanView
	} else {
		mc.view = mergeJoinView
	}
	return mc
}

// mergeIn is one sealed basic window as a class ring sees it: the side's
// group-global generation (a pair cache keys pairs by it), the window's
// shared memo table (rooted at its raw runs), and the release hook for the
// class's reference on the window's log entry.
type mergeIn struct {
	gen  int64
	dw   *dagWin
	free func()
}

// push appends a sealed window to the side's class ring (taking ownership
// of one reference on its log entry via free), evicting the oldest slot
// when the ring exceeds the window extent. Once every side's ring holds a
// full window it returns the window's merge cell — the memo the window's
// log entry carries for the warm class members; nil during warm-up.
// Callers are the group fan-out only, which delivers windows in the
// group's fan-out order.
func (mc *mergeClass) push(side int, gen int64, dw *dagWin, free func()) *mergeCell {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.closed {
		free()
		return nil
	}
	ring := append(mc.rings[side], mergeIn{gen: gen, dw: dw, free: free})
	if len(ring) > mc.parts {
		old := ring[0]
		copy(ring, ring[1:])
		ring = ring[:mc.parts]
		old.free()
	}
	mc.rings[side] = ring
	for s := range mc.leaf {
		if len(mc.rings[s]) < mc.parts {
			return nil
		}
	}
	// The cell snapshots the rings: its input pointers stay valid after
	// eviction (the chunks are immutable and GC-kept), so a lagging member
	// can still resolve an old window's merged view from its unread entry.
	c := &mergeCell{mc: mc, side: side}
	for s := range mc.leaf {
		c.ins[s] = append([]mergeIn(nil), mc.rings[s]...)
	}
	return c
}

// close releases the rings' shared-buffer references and refuses further
// pushes — the class deactivated (membership dropped to one) or its last
// member left. A fan-out that snapshotted the class concurrently
// releases through push's closed check.
func (mc *mergeClass) close() {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.closed = true
	for s := range mc.rings {
		for _, in := range mc.rings[s] {
			in.free()
		}
		mc.rings[s] = nil
	}
}

// reopen accepts pushes again after a deactivation — a second member
// rejoined. The rings restart empty and re-warm over the next windows.
func (mc *mergeClass) reopen() {
	mc.mu.Lock()
	mc.closed = false
	mc.mu.Unlock()
}

// mergeCell memoizes one window's merged view for every member of a
// merge class. The first member tail to need it evaluates the view under
// the once latch and siblings reuse the result. pdw is the post-merge
// memo table rooted at this merged view, built only when some node of
// the class's post-merge trie has two or more readers at that moment
// (nil otherwise): the trie latches shared HAVING/sort/limit fragments
// in it exactly like the pipeline DAG latches operators in a dagWin.
type mergeCell struct {
	mc   *mergeClass
	side int // the side whose window triggered this cell
	once sync.Once
	ins  [2][]mergeIn // captured rings; dropped after compute
	out  *bat.Chunk
	pdw  *dagWin
}

// eval resolves the cell's merged view, computing it at most once per
// window across all class members. computed reports whether THIS call
// performed the merge — the group's merge hit/miss counters are an
// honest cross-query sharing rate, like the DAG memo's.
func (c *mergeCell) eval(g *Group) (out *bat.Chunk, pdw *dagWin, computed bool) {
	c.once.Do(func() {
		c.out = c.mc.view(c, g)
		if c.mc.post.shared.Load() > 0 {
			c.pdw = c.mc.post.newWin(kernel.NewView(c.out))
		}
		c.ins = [2][]mergeIn{} // release the input pointers: only the view survives
		computed = true
	})
	return c.out, c.pdw, computed
}

// resolve returns the node's outputs over side's ring windows through the
// side DAG's per-window memos. The lookups count into discard counters:
// they are re-lookups of work the member tails already accounted for, and
// crediting them to the group's DAG gauges would inflate the documented
// cross-query hit rate.
func (c *mergeCell) resolve(g *Group, side int, node *dagNode) []*bat.Chunk {
	var discardHits, discardMisses atomic.Int64
	outs := make([]*bat.Chunk, len(c.ins[side]))
	for i, in := range c.ins[side] {
		outs[i] = eval(in.dw, node, &discardHits, &discardMisses)
	}
	return outs
}

// mergeScanView is the one-sided merged view: the concat of the ring's
// pipeline outputs, or the merge of its partial aggregates.
func mergeScanView(c *mergeCell, g *Group) *bat.Chunk {
	mc := c.mc
	if mc.merge != nil {
		return kernel.Merge(mc.merge, c.resolve(g, 0, mc.aggLeaf), 0)
	}
	parts := c.resolve(g, 0, mc.leaf[0])
	rows := 0
	for _, p := range parts {
		rows += p.Rows()
	}
	return bat.Concat(mc.outSchema, parts, rows)
}

// mergeJoinView is the two-sided merged view. It replays exactly what
// each warm member's private tail would do with the same windows: drive
// the shared pair cache with the triggering side's newest window against
// the other side's live ring, then concatenate the live pair set in
// (leftGen, rightGen) order. Every step is a deterministic function of
// the same generation-stamped inputs, which is what keeps a shared merged
// view byte-identical to a private one.
func mergeJoinView(c *mergeCell, g *Group) *bat.Chunk {
	var bws [2][]*window.BW
	for side := range bws {
		outs := c.resolve(g, side, c.mc.leaf[side])
		bws[side] = make([]*window.BW, len(outs))
		for i, out := range outs {
			bws[side][i] = &window.BW{Gen: c.ins[side][i].gen, Out: out}
		}
	}
	// The member tails short-circuit before their own pair-cache adds
	// once a cell serves them, so the cell performs the add for the whole
	// class (duplicate adds from warming members dedupe inside the cache;
	// eviction is watermark-driven by the adds themselves).
	newest := bws[c.side][len(bws[c.side])-1]
	if c.side == 0 {
		c.mc.pc.AddLeft(newest, bws[1])
	} else {
		c.mc.pc.AddRight(newest, bws[0])
	}
	return c.mc.pc.Merged(bws[0], bws[1])
}
