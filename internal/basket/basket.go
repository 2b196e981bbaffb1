// Package basket implements DataCell's baskets: lightweight columnar
// tables that buffer in-flight stream tuples. A receptor appends incoming
// events to a basket; the continuous queries bound to the stream each hold
// a read cursor into it; and "once a tuple has been seen by all relevant
// queries, it is dropped from its basket" (paper §3) — implemented here by
// releasing the storage below the minimum cursor.
//
// Storage is a list of segments, each a set of column arrays (plus arrival
// and sequence stamps) holding a contiguous run of rows. A row below a
// segment's length is never written again: an append fills the tail
// segment's spare capacity and puts any rows left over into one new
// segment sized to the append. Readers therefore get zero-copy views
// (PeekSeqs hands out one segment's pending rows at a time) that stay valid
// however the basket changes afterwards, and vacuum frees whole segments
// the slowest consumer has passed without copying anything — each tuple is
// copied once, into its segment.
//
// In the Petri-net scheduler, baskets are the places: appends raise tokens
// that enable the factory transitions reading from them.
//
// Every stream is fronted by a Sharded container that partitions the
// basket into N independently locked shards (hash on a declared key,
// round-robin otherwise) so producers and factory firings scale across
// cores; at the default N=1 it degenerates to the classic single basket.
// The container assigns each row a global sequence number and maintains a
// settled watermark — the contiguous prefix of sequences fully visible in
// their shards — which is the epoch-sealing clock that lets per-shard
// consumers cut globally consistent basic windows (see ARCHITECTURE.md,
// "shard-merge invariant").
package basket

import (
	"fmt"
	"sort"
	"sync"

	"datacell/internal/bat"
)

// Basket buffers stream tuples between a receptor and the factories of the
// continuous queries bound to the stream. It is safe for concurrent use.
//
// Every row carries a sequence stamp. A standalone basket assigns its own
// dense sequence (0, 1, 2, ...); a basket serving as one shard of a
// Sharded container receives globally assigned stamps via AppendSeqs, so
// shard-local consumers can reconstruct global epoch (basic-window)
// boundaries.
type Basket struct {
	name   string
	schema bat.Schema

	mu        sync.Mutex
	segs      []*segment // buffered rows, oldest first, contiguous
	base      int64      // absolute row id of the first buffered row
	end       int64      // absolute row id one past the last buffered row
	nextSeq   int64      // auto-assigned sequence for plain Append
	consumers map[int]int64
	nextID    int
	totalIn   int64
	onAppend  []appendSub
	nextSubID int
	paused    bool
	pending   []*bat.Chunk // appends buffered while paused
	pendStamp []int64
	pendSeqs  []bat.Ints
}

// segment is one contiguous run of buffered rows. Its columns and stamp
// vectors share one capacity; appends only ever write past the current
// length, so views over rows below it are immutable.
type segment struct {
	start    int64 // absolute row id of row 0
	cols     []bat.Vector
	arrivals bat.Ints // per-row arrival stamp, microseconds
	seqs     bat.Ints // per-row sequence stamp (global in a shard)
}

// segFloor is the smallest segment capacity: tiny appends (single-row
// INSERTs) share a segment instead of allocating one each. Larger appends
// get a segment sized exactly to their rows, so a retained view never pins
// much more than the rows appended with it.
const segFloor = 1024

func newSegment(schema bat.Schema, start int64, capacity int) *segment {
	sg := &segment{
		start:    start,
		cols:     make([]bat.Vector, len(schema.Kinds)),
		arrivals: make(bat.Ints, 0, capacity),
		seqs:     make(bat.Ints, 0, capacity),
	}
	for i, k := range schema.Kinds {
		sg.cols[i] = bat.NewVector(k, capacity)
	}
	return sg
}

func (sg *segment) rows() int { return len(sg.seqs) }

// room reports how many more rows fit without reallocating.
func (sg *segment) room() int { return cap(sg.seqs) - len(sg.seqs) }

// end reports the absolute row id one past the segment's last row.
func (sg *segment) end() int64 { return sg.start + int64(len(sg.seqs)) }

// view returns rows [lo, hi) (segment-relative) as capacity-capped views.
func (sg *segment) view(schema bat.Schema, lo, hi int) (*bat.Chunk, bat.Ints, bat.Ints) {
	cols := make([]bat.Vector, len(sg.cols))
	for i, col := range sg.cols {
		cols[i] = col.Slice(lo, hi)
	}
	return &bat.Chunk{Schema: schema, Cols: cols}, sg.arrivals[lo:hi:hi], sg.seqs[lo:hi:hi]
}

// New creates an empty basket for the given stream schema.
func New(name string, schema bat.Schema) *Basket {
	return &Basket{
		name:      name,
		schema:    schema,
		consumers: make(map[int]int64),
	}
}

// Name reports the stream the basket belongs to.
func (b *Basket) Name() string { return b.name }

// Schema reports the column layout.
func (b *Basket) Schema() bat.Schema { return b.schema }

// appendSub is one OnAppend subscription. The subscriber lists are
// copy-on-write: firing snapshots the slice under the lock and invokes the
// callbacks outside it, and cancellation rebuilds the slice, so a snapshot
// taken by a concurrent append stays valid.
type appendSub struct {
	id int
	f  func()
}

func fireSubs(subs []appendSub) {
	for _, s := range subs {
		s.f()
	}
}

func cancelSub(subs []appendSub, id int) []appendSub {
	out := make([]appendSub, 0, len(subs))
	for _, s := range subs {
		if s.id != id {
			out = append(out, s)
		}
	}
	return out
}

// OnAppend registers a callback invoked (outside the basket lock) after
// every append. The scheduler uses it as the Petri-net token notification.
// The returned cancel removes the subscription — a query that unbinds from
// the stream must call it, or every later append keeps paying for (and
// waking) a dead query.
func (b *Basket) OnAppend(f func()) (cancel func()) {
	b.mu.Lock()
	id := b.nextSubID
	b.nextSubID++
	b.onAppend = append(b.onAppend, appendSub{id: id, f: f})
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		b.onAppend = cancelSub(b.onAppend, id)
		b.mu.Unlock()
	}
}

// Subscribers reports the number of live OnAppend subscriptions.
func (b *Basket) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.onAppend)
}

// Register adds a consumer whose cursor starts at the current end of the
// basket: a freshly registered query sees only tuples arriving after it,
// matching the paper's continuous-query semantics. It returns the consumer
// id.
func (b *Basket) Register() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.nextID
	b.nextID++
	b.consumers[id] = b.end
	return id
}

// Unregister removes a consumer and vacuums any tuples only it was
// holding.
func (b *Basket) Unregister(id int) {
	b.mu.Lock()
	delete(b.consumers, id)
	b.vacuumLocked()
	b.mu.Unlock()
}

// Consumers reports the number of registered consumers.
func (b *Basket) Consumers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.consumers)
}

// Append adds a chunk of stream tuples, all stamped with the same arrival
// time (microseconds; receptors pass the wall clock, benchmarks may pass
// logical time). The chunk's columns must match the basket schema by kind
// and arity. Rows receive the basket's own dense sequence stamps.
func (b *Basket) Append(c *bat.Chunk, arrival int64) error {
	return b.AppendSeqs(c, arrival, nil)
}

// AppendSeqs is Append with caller-assigned per-row sequence stamps (one
// per row, strictly increasing within the call). A Sharded container uses
// it to stamp each shard's rows with their global stream positions; nil
// seqs fall back to the basket's own dense counter.
func (b *Basket) AppendSeqs(c *bat.Chunk, arrival int64, seqs bat.Ints) error {
	if len(c.Cols) != len(b.schema.Kinds) {
		return fmt.Errorf("basket %s: append of %d columns, want %d",
			b.name, len(c.Cols), len(b.schema.Kinds))
	}
	for i, col := range c.Cols {
		if col.Kind() != b.schema.Kinds[i] {
			return fmt.Errorf("basket %s: column %d is %s, want %s",
				b.name, i, col.Kind(), b.schema.Kinds[i])
		}
	}
	if seqs != nil && int(seqs.Len()) != c.Rows() {
		return fmt.Errorf("basket %s: %d seqs for %d rows", b.name, seqs.Len(), c.Rows())
	}
	b.mu.Lock()
	if b.paused {
		// Paused streams hold arrivals back; they flow in on Resume,
		// which is how the demo's per-stream pause behaves.
		b.pending = append(b.pending, c)
		b.pendStamp = append(b.pendStamp, arrival)
		b.pendSeqs = append(b.pendSeqs, seqs)
		b.mu.Unlock()
		return nil
	}
	b.putLocked(c, nil, arrival, seqs)
	subs := b.onAppend
	b.mu.Unlock()
	fireSubs(subs)
	return nil
}

// AppendFetchSeqs appends only the rows of c at the sel positions,
// stamped with the given arrival time and sequence numbers (one per
// selected row). It is the sharded routing path: the container partitions
// a chunk by key and each shard copies its rows exactly once, straight
// into its columns. The caller guarantees the chunk matches the schema.
func (b *Basket) AppendFetchSeqs(c *bat.Chunk, sel []int32, arrival int64, seqs bat.Ints) error {
	if len(sel) == 0 {
		return nil
	}
	b.mu.Lock()
	if b.paused {
		sub := bat.NewChunk(b.schema)
		for i, col := range c.Cols {
			sub.Cols[i] = bat.AppendFetch(sub.Cols[i], col, sel)
		}
		b.pending = append(b.pending, sub)
		b.pendStamp = append(b.pendStamp, arrival)
		b.pendSeqs = append(b.pendSeqs, seqs)
		b.mu.Unlock()
		return nil
	}
	b.putLocked(c, sel, arrival, seqs)
	subs := b.onAppend
	b.mu.Unlock()
	fireSubs(subs)
	return nil
}

// putLocked appends the rows of c — all of them, or only the sel
// positions — with their arrival and sequence stamps (nil seqs: the
// basket's own dense counter). The rows first fill the tail segment's
// spare capacity; the rest go into one new segment sized to them.
func (b *Basket) putLocked(c *bat.Chunk, sel []int32, arrival int64, seqs bat.Ints) {
	rows := c.Rows()
	if sel != nil {
		rows = len(sel)
	}
	if rows == 0 {
		return
	}
	first := b.nextSeq // dense stamps when seqs is nil
	if seqs == nil {
		b.nextSeq += int64(rows)
	} else if n := seqs[rows-1] + 1; n > b.nextSeq {
		b.nextSeq = n
	}
	done := 0
	if k := len(b.segs); k > 0 {
		done = min(b.segs[k-1].room(), rows)
		if done > 0 {
			b.segs[k-1].put(c, sel, 0, done, arrival, seqs, first)
		}
	}
	if done < rows {
		sg := newSegment(b.schema, b.end+int64(done), max(rows-done, segFloor))
		sg.put(c, sel, done, rows, arrival, seqs, first)
		b.segs = append(b.segs, sg)
	}
	b.end += int64(rows)
	b.totalIn += int64(rows)
}

// put appends rows [lo, hi) of an append — of c itself, or of c's sel
// positions — into the segment's spare capacity. Row i's sequence stamp
// is seqs[i], or first+i when seqs is nil.
func (sg *segment) put(c *bat.Chunk, sel []int32, lo, hi int, arrival int64, seqs bat.Ints, first int64) {
	for i, col := range c.Cols {
		switch {
		case sel != nil:
			sg.cols[i] = bat.AppendFetch(sg.cols[i], col, sel[lo:hi])
		case lo == 0 && hi == col.Len():
			sg.cols[i] = sg.cols[i].AppendVector(col)
		default:
			sg.cols[i] = sg.cols[i].AppendVector(col.Slice(lo, hi))
		}
	}
	n := len(sg.seqs)
	sg.arrivals = sg.arrivals[:n+hi-lo]
	sg.seqs = sg.seqs[:n+hi-lo]
	for i := lo; i < hi; i++ {
		sg.arrivals[n+i-lo] = arrival
		if seqs == nil {
			sg.seqs[n+i-lo] = first + int64(i)
		} else {
			sg.seqs[n+i-lo] = seqs[i]
		}
	}
}

// Pause makes subsequent appends queue inside the basket instead of
// becoming visible to consumers.
func (b *Basket) Pause() {
	b.mu.Lock()
	b.paused = true
	b.mu.Unlock()
}

// Resume releases a paused basket, flushing any held appends, and fires
// the append notifications if anything flowed in.
func (b *Basket) Resume() {
	b.mu.Lock()
	b.paused = false
	flushed := len(b.pending) > 0
	for i, c := range b.pending {
		b.putLocked(c, nil, b.pendStamp[i], b.pendSeqs[i])
	}
	b.pending, b.pendStamp, b.pendSeqs = nil, nil, nil
	subs := b.onAppend
	b.mu.Unlock()
	if flushed {
		fireSubs(subs)
	}
}

// Paused reports whether the basket is holding arrivals back.
func (b *Basket) Paused() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.paused
}

// TotalIn reports the number of tuples ever appended. For a single-shard
// container it doubles as the settled sequence watermark: rows become
// visible and counted under the same lock.
func (b *Basket) TotalIn() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.totalIn
}

// Available reports how many tuples are pending for the given consumer.
func (b *Basket) Available(id int) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur, ok := b.consumers[id]
	if !ok {
		return 0
	}
	return b.end - cur
}

// Peek returns up to n pending tuples for the consumer without consuming
// them, plus their arrival stamps. Like PeekSeqs it returns the pending
// rows of at most one segment, so it may return fewer than are Available.
// It returns nil when nothing is pending.
func (b *Basket) Peek(id int, n int) (*bat.Chunk, bat.Ints) {
	c, arr, _ := b.PeekSeqs(id, n)
	return c, arr
}

// PeekSeqs returns up to n of the consumer's pending rows, with their
// arrival and sequence stamps, without consuming them — the shard-aware
// read path, which needs global positions to reconstruct epoch
// boundaries. The rows all come from one segment and are zero-copy
// views: their storage is never written again, so they stay valid after
// any later append, consume or vacuum (a vacuum only drops the basket's
// reference to a segment). A consumer drains its backlog by peeking and
// consuming until nothing is returned; nil means nothing is pending.
func (b *Basket) PeekSeqs(id int, n int) (*bat.Chunk, bat.Ints, bat.Ints) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur, ok := b.consumers[id]
	if !ok || cur >= b.end || n <= 0 {
		return nil, nil, nil
	}
	i := sort.Search(len(b.segs), func(i int) bool { return b.segs[i].end() > cur })
	sg := b.segs[i]
	lo := int(cur - sg.start)
	return sg.view(b.schema, lo, min(sg.rows(), lo+n))
}

// Snapshot returns everything currently buffered in the basket,
// regardless of consumer cursors. One-time queries use it to read a stream
// as if it were a table — the paper's integration of baskets and tables in
// one processing fabric.
func (b *Basket) Snapshot() *bat.Chunk {
	c, _ := b.SnapshotSeqs()
	return c
}

// SnapshotSeqs is Snapshot returning the rows' sequence stamps as well,
// letting a Sharded container reassemble its shards' snapshots in global
// arrival order.
func (b *Basket) SnapshotSeqs() (*bat.Chunk, bat.Ints) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, _, seqs := b.gatherLocked()
	return c, seqs
}

// gatherLocked concatenates every buffered row and its stamps: a single
// segment passes through as views, several are copied once into exactly
// sized vectors (Snapshot and ExportState are cold paths).
func (b *Basket) gatherLocked() (*bat.Chunk, bat.Ints, bat.Ints) {
	n := int(b.end - b.base)
	chunks := make([]*bat.Chunk, len(b.segs))
	arrs := make([]bat.Ints, len(b.segs))
	seqs := make([]bat.Ints, len(b.segs))
	for i, sg := range b.segs {
		chunks[i], arrs[i], seqs[i] = sg.view(b.schema, 0, sg.rows())
	}
	return bat.Concat(b.schema, chunks, n), concatInts(arrs, n), concatInts(seqs, n)
}

func concatInts(parts []bat.Ints, n int) bat.Ints {
	if len(parts) == 1 {
		return parts[0]
	}
	out := make(bat.Ints, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// State is a transferable image of a basket's buffered rows and sequence
// counters — what a fabric worker persists per shard in its snapshot and
// ships during an elastic shard handoff. Rows/Arrivals/Seqs from
// ExportState are immutable (views or fresh copies); a State decoded from
// the wire owns fresh vectors. Consumer cursors are deliberately not part
// of the image: the restoring side re-registers its consumers at the
// cursors it tracked itself.
type State struct {
	Base     int64 // absolute row id of Rows[0]
	NextSeq  int64
	TotalIn  int64
	Rows     *bat.Chunk
	Arrivals bat.Ints
	Seqs     bat.Ints
}

// ExportState captures the basket's buffered rows and counters. The rows
// and stamps are never written again, so the caller may marshal them
// without further locking.
func (b *Basket) ExportState() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	rows, arrivals, seqs := b.gatherLocked()
	return State{
		Base:     b.base,
		NextSeq:  b.nextSeq,
		TotalIn:  b.totalIn,
		Rows:     rows,
		Arrivals: arrivals,
		Seqs:     seqs,
	}
}

// NewFromState rebuilds a basket from an exported image, adopting the
// state's vectors as one full segment (pass a decoded, freshly allocated
// state — not one still shared with a live basket).
func NewFromState(name string, schema bat.Schema, st State) *Basket {
	b := New(name, schema)
	b.base, b.end = st.Base, st.Base
	if n := len(st.Seqs); n > 0 && st.Rows != nil && len(st.Rows.Cols) == len(schema.Kinds) {
		b.segs = []*segment{{
			start:    st.Base,
			cols:     st.Rows.Cols,
			arrivals: st.Arrivals[:n:n],
			seqs:     st.Seqs[:n:n],
		}}
		b.end += int64(n)
	}
	b.nextSeq = st.NextSeq
	b.totalIn = st.TotalIn
	return b
}

// Cursor reports a consumer's absolute read cursor.
func (b *Basket) Cursor(id int) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur, ok := b.consumers[id]
	return cur, ok
}

// RegisterAt adds a consumer whose cursor starts at the given absolute
// position, clamped into the buffered range — the restore path's
// counterpart to Register, which starts at the current end.
func (b *Basket) RegisterAt(cursor int64) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.nextID
	b.nextID++
	b.consumers[id] = min(max(cursor, b.base), b.end)
	return id
}

// Consume advances the consumer's cursor by n tuples and vacuums tuples
// every consumer has passed.
func (b *Basket) Consume(id int, n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur, ok := b.consumers[id]
	if !ok {
		return
	}
	b.consumers[id] = min(cur+n, b.end)
	b.vacuumLocked()
}

// ConsumeEach drains the consumer's backlog as it stands when called, one
// segment at a time: it consumes each segment's pending rows and passes
// their views (see PeekSeqs) to fn, outside the basket lock. Rows appended
// meanwhile wait for the next call. It returns the rows consumed.
func (b *Basket) ConsumeEach(id int, fn func(c *bat.Chunk, arrivals, seqs bat.Ints)) int {
	n := 0
	for left := b.Available(id); left > 0; {
		c, arrivals, seqs := b.PeekSeqs(id, int(left))
		if c == nil {
			break
		}
		rows := len(seqs)
		b.Consume(id, int64(rows))
		fn(c, arrivals, seqs)
		left -= int64(rows)
		n += rows
	}
	return n
}

// vacuumLocked frees the segments every consumer has passed. Nothing is
// copied: the basket drops its references, and views handed out earlier
// keep their segments alive until they are released. A fully consumed
// tail segment with spare capacity stays, so the next small appends keep
// filling it; with no consumer bound, everything goes (nobody can ever
// read it).
func (b *Basket) vacuumLocked() {
	minCur := b.end
	for _, c := range b.consumers {
		minCur = min(minCur, c)
	}
	drop := 0
	for drop < len(b.segs) && b.segs[drop].end() <= minCur {
		if drop == len(b.segs)-1 && b.segs[drop].room() > 0 && len(b.consumers) > 0 {
			break
		}
		drop++
	}
	if drop == 0 {
		return
	}
	clear(b.segs[:drop])
	b.segs = b.segs[drop:]
	b.base = b.end
	if len(b.segs) > 0 {
		b.base = b.segs[0].start
	}
}

// Stats is a snapshot of the basket's counters, feeding the demo's
// analysis pane.
type Stats struct {
	Name      string
	Len       int   // tuples currently buffered
	TotalIn   int64 // tuples ever appended
	TotalDrop int64 // tuples dropped after full consumption
	Consumers int
	Paused    bool
	Shards    int // 1 for a plain basket, N for a sharded container
}

// Stats returns a snapshot of the basket's counters.
func (b *Basket) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		Name:      b.name,
		Len:       int(b.end - b.base),
		TotalIn:   b.totalIn,
		TotalDrop: b.base, // base only advances by dropping segments
		Consumers: len(b.consumers),
		Paused:    b.paused,
		Shards:    1,
	}
}
