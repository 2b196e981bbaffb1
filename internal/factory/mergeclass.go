package factory

import (
	"sync"
	"sync/atomic"

	"datacell/internal/bat"
	"datacell/internal/plan"
)

// mergeClass is a group-owned merge ring: the shared-execution extension
// of the per-member window ring past the merge boundary. Members of one
// Group whose incremental decompositions agree on a plan.MergeKey —
// window extent plus the canonical fingerprint of the merged view's
// content — hold byte-identical full-window merges, so the group keeps
// ONE ring of the last `parts` sealed basic windows per class and
// evaluates the merge (partial-aggregate merging, or concatenation of
// cached pipeline outputs) once per sealed full window for all of them.
//
// A class activates at its second member and deactivates — releasing
// its ring — when membership drops back to one: a singleton extent
// always merges through its private ring, so the class never pins raw
// window buffers without at least two members sharing the result. Each
// ring slot holds one reference on the window's shared buffer
// (window.SharedBuf), released on eviction, so the group's live-buffer
// gauge accounts for the class rings exactly like it does for
// re-evaluation member rings.
//
// The merged views themselves are memoized per window in mergeCells that
// ride the fan-out items (like the pipeline DAG's dagWin memo tables):
// a cell lives exactly as long as some member still has its window
// queued or in flight, so paused members find their merged views on
// resume without the class tracking per-member progress.
type mergeClass struct {
	key       string
	parts     int
	agg       *plan.Aggregate // nil: merged view is the concat of outs
	leaf      *dagNode        // pipeline leaf in the group DAG (nil: raw)
	aggLeaf   *dagNode        // partial-aggregate node (nil iff agg == nil)
	outSchema bat.Schema      // merged view schema (MergedLeaf.Out)

	// refs counts members registered under the class key; active latches
	// at the second member. Both are guarded by the owning Group's mu.
	refs   int
	active bool

	mu     sync.Mutex
	closed bool
	ring   []mergeIn // last `parts` sealed windows, oldest first
}

// mergeIn is one sealed basic window as the merge ring sees it: the
// window's shared memo table, its raw tuples, and the release hook for
// the class's reference on the shared buffer.
type mergeIn struct {
	dw   *dagWin
	data *bat.Chunk
	free func()
}

// push appends a sealed window to the class ring (taking ownership of
// one shared-buffer reference via free), evicting the oldest slot when
// the ring exceeds the window extent. Once the ring holds a full window
// it returns the window's merge cell — the memo the fan-out attaches to
// every class member's queue item; nil during warm-up. Callers are the
// group fan-out only, which delivers windows in seal order.
func (mc *mergeClass) push(dw *dagWin, data *bat.Chunk, free func()) *mergeCell {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.closed {
		free()
		return nil
	}
	mc.ring = append(mc.ring, mergeIn{dw: dw, data: data, free: free})
	if len(mc.ring) > mc.parts {
		old := mc.ring[0]
		copy(mc.ring, mc.ring[1:])
		mc.ring = mc.ring[:mc.parts]
		old.free()
	}
	if len(mc.ring) < mc.parts {
		return nil
	}
	// The cell snapshots the ring: its input pointers stay valid after
	// eviction (the chunks are immutable and GC-kept), so a lagging member
	// can still resolve an old window's merged view from its queued cell.
	return &mergeCell{mc: mc, ins: append([]mergeIn(nil), mc.ring...)}
}

// close releases the ring's shared-buffer references and refuses further
// pushes — the class deactivated (membership dropped to one) or its last
// member left. A fan-out that snapshotted the class concurrently
// releases through push's closed check.
func (mc *mergeClass) close() {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.closed = true
	for _, in := range mc.ring {
		in.free()
	}
	mc.ring = nil
}

// reopen accepts pushes again after a deactivation — a second member
// rejoined. The ring restarts empty and re-warms over the next window.
func (mc *mergeClass) reopen() {
	mc.mu.Lock()
	mc.closed = false
	mc.mu.Unlock()
}

// mergeCell memoizes one sealed full window's merged view for every
// member of a merge class. The first member tail to need it evaluates
// the merge under the once latch — resolving each basic window's
// pipeline output (or partial aggregate) through the group DAG's
// per-window memo, then merging — and siblings reuse the result. pdw is
// the post-merge memo table rooted at this merged view: the group's
// post-merge trie latches HAVING/sort/limit fragments in it exactly like
// the pipeline DAG latches operators in a dagWin.
type mergeCell struct {
	mc   *mergeClass
	once sync.Once
	ins  []mergeIn // captured ring; dropped after compute
	out  *bat.Chunk
	pdw  *dagWin
}

// eval resolves the cell's merged view, computing it at most once per
// window across all class members. computed reports whether THIS call
// performed the merge — the group's merge hit/miss counters are an
// honest cross-query sharing rate, like the DAG memo's. The ring
// lookups below resolve through the pipeline DAG's per-window memos but
// count into discard counters: they are re-lookups of work the member
// tails already accounted for, and crediting them to the group's DAG
// gauges would inflate the documented cross-query hit rate.
func (c *mergeCell) eval(g *Group) (out *bat.Chunk, pdw *dagWin, computed bool) {
	c.once.Do(func() {
		mc := c.mc
		var discardHits, discardMisses atomic.Int64
		leaf, schema := mc.leaf, mc.outSchema
		if mc.agg != nil {
			leaf, schema = mc.aggLeaf, mc.agg.Out
		}
		parts := make([]*bat.Chunk, len(c.ins))
		rows := 0
		for i, in := range c.ins {
			parts[i] = g.dag.eval(in.dw, leaf, in.data, &discardHits, &discardMisses)
			rows += parts[i].Rows()
		}
		c.out = bat.Concat(schema, parts, rows)
		if mc.agg != nil {
			c.out = plan.MergeAggregate(mc.agg, c.out)
		}
		c.pdw = newDagWin()
		c.ins = nil // release the input pointers: only the view survives
		computed = true
	})
	return c.out, c.pdw, computed
}
