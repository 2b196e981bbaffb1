// Package basket implements DataCell's baskets: lightweight columnar
// tables that buffer in-flight stream tuples. A receptor appends incoming
// events to a basket; the continuous queries bound to the stream each hold
// a read cursor into it; and "once a tuple has been seen by all relevant
// queries, it is dropped from its basket" (paper §3) — implemented here by
// releasing the storage below the minimum cursor.
//
// Storage is a list of segments, each a set of column arrays (plus arrival
// and sequence stamps) holding a contiguous run of rows. A row below a
// segment's length is never written again while anyone may read it: an
// append fills the tail segment's spare capacity and puts any rows left
// over into one new segment sized to the append. Readers get zero-copy
// views, one segment's pending rows at a time, and vacuum drops whole
// segments the slowest consumer has passed without copying anything —
// each tuple is copied once, into its segment.
//
// A segment's columns and its stamps live in two refcounted stores. A
// view is valid while a lease on its store is held: ConsumeLeased hands
// one to its callback, which keeps the rows past the call by retaining
// it (a window slicer's runs do). Once the basket and every lease have
// let go, the store returns to a per-basket free list and a later append
// of a fitting size writes into it again — the storage the paper drops
// "once a tuple has been seen by all relevant queries" is reused rather
// than collected. A view handed out without a lease (ConsumeEach, a
// single-segment Snapshot or ExportState) pins its store
// instead: it is never reused, and the view stays valid however the
// basket changes afterwards.
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

	// Released segment storage, reused by later appends (see store).
	freeCols, freeStamps *freeList
	segsMade, segsReused int64 // segments started, and those on reused column stores
}

// segment is one contiguous run of buffered rows. Its columns and stamp
// vectors share one capacity; appends only ever write past the current
// length, so views over rows below it are immutable until the storage is
// released. The columns live in the segment's column store and the
// stamps in its stamp store (see store).
type segment struct {
	start    int64 // absolute row id of row 0
	cols     []bat.Vector
	arrivals bat.Ints // per-row arrival stamp, microseconds
	seqs     bat.Ints // per-row sequence stamp (global in a shard)
	col      *store
	stamp    *store
}

// segFloor is the smallest segment capacity: tiny appends (single-row
// INSERTs) share a segment instead of allocating one each. Larger appends
// get a segment with room for exactly their rows, on a store at most an
// eighth larger (see freeList.get), so a retained view never pins much
// more than the rows appended with it.
const segFloor = 1024

// newSegment starts a segment with room for exactly capacity rows, on
// released stores when the free lists hold fitting ones.
func (b *Basket) newSegment(start int64, capacity int) *segment {
	col, reused := b.freeCols.get(capacity)
	stamp, _ := b.freeStamps.get(capacity)
	sg := &segment{start: start, col: col, stamp: stamp}
	b.segsMade++
	if reused {
		b.segsReused++
	}
	sg.cols = sg.col.capped(capacity)
	stamps := sg.stamp.capped(capacity)
	sg.arrivals, sg.seqs = stamps[0].(bat.Ints), stamps[1].(bat.Ints)
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

// pin marks both stores as never reused: a view went out without a
// lease.
func (sg *segment) pin() {
	sg.col.pin()
	sg.stamp.pin()
}

// release drops one reference on both stores.
func (sg *segment) release() {
	sg.col.Release()
	sg.stamp.Release()
}

// New creates an empty basket for the given stream schema.
func New(name string, schema bat.Schema) *Basket {
	return &Basket{
		name:       name,
		schema:     schema,
		consumers:  make(map[int]int64),
		freeCols:   &freeList{kinds: schema.Kinds},
		freeStamps: &freeList{kinds: stampKinds},
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
	b.putLocked(c, nil, arrival, stamps{seqs: seqs, base: b.nextSeq})
	subs := b.onAppend
	b.mu.Unlock()
	fireSubs(subs)
	return nil
}

// AppendRouted appends the rows of c at the sel positions (every row when
// sel is nil), stamped with the given arrival time; row i of c gets the
// sequence stamp base+i. It is the sharded routing path: the container
// claims a chunk's sequence range starting at base and partitions the
// chunk by key, and each shard copies its rows exactly once, straight
// into its columns, writing their stamps as it goes. The caller
// guarantees the chunk matches the schema; sel is not retained.
func (b *Basket) AppendRouted(c *bat.Chunk, sel []int32, arrival, base int64) error {
	if sel != nil && len(sel) == 0 {
		return nil
	}
	b.mu.Lock()
	if b.paused {
		// Held rows are replayed later, so they get their own copy and
		// materialized stamps.
		sub := c
		if sel != nil {
			sub = bat.NewChunk(b.schema)
			for i, col := range c.Cols {
				sub.Cols[i] = bat.AppendFetch(sub.Cols[i], col, sel)
			}
		}
		seqs := make(bat.Ints, sub.Rows())
		for k := range seqs {
			seqs[k] = stamps{base: base}.of(sel, k)
		}
		b.pending = append(b.pending, sub)
		b.pendStamp = append(b.pendStamp, arrival)
		b.pendSeqs = append(b.pendSeqs, seqs)
		b.mu.Unlock()
		return nil
	}
	b.putLocked(c, sel, arrival, stamps{base: base})
	subs := b.onAppend
	b.mu.Unlock()
	fireSubs(subs)
	return nil
}

// stamps describes an append's sequence stamps: seqs[k] for its k-th
// row when seqs is set, otherwise base plus the row's position in the
// appended chunk (base+sel[k] for a routed append, base+k otherwise).
type stamps struct {
	seqs bat.Ints
	base int64
}

// of returns the stamp of the k-th appended row.
func (st stamps) of(sel []int32, k int) int64 {
	switch {
	case st.seqs != nil:
		return st.seqs[k]
	case sel != nil:
		return st.base + int64(sel[k])
	}
	return st.base + int64(k)
}

// putLocked appends the rows of c — all of them, or only the sel
// positions — with their arrival and sequence stamps. The rows first
// fill the tail segment's spare capacity; the rest go into one new
// segment sized to them.
func (b *Basket) putLocked(c *bat.Chunk, sel []int32, arrival int64, st stamps) {
	rows := c.Rows()
	if sel != nil {
		rows = len(sel)
	}
	if rows == 0 {
		return
	}
	b.nextSeq = max(b.nextSeq, st.of(sel, rows-1)+1)
	done := 0
	if k := len(b.segs); k > 0 {
		done = min(b.segs[k-1].room(), rows)
		if done > 0 {
			b.segs[k-1].put(c, sel, 0, done, arrival, st)
		}
	}
	if done < rows {
		sg := b.newSegment(b.end+int64(done), max(rows-done, segFloor))
		sg.put(c, sel, done, rows, arrival, st)
		b.segs = append(b.segs, sg)
	}
	b.end += int64(rows)
	b.totalIn += int64(rows)
}

// put appends rows [lo, hi) of an append — of c itself, or of c's sel
// positions — into the segment's spare capacity.
func (sg *segment) put(c *bat.Chunk, sel []int32, lo, hi int, arrival int64, st stamps) {
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
	arrivals := sg.arrivals[n : n+hi-lo]
	seqs := sg.seqs[n : n+hi-lo]
	sg.arrivals = sg.arrivals[:n+hi-lo]
	sg.seqs = sg.seqs[:n+hi-lo]
	for k := range arrivals {
		arrivals[k] = arrival
	}
	switch {
	case st.seqs != nil:
		copy(seqs, st.seqs[lo:hi])
	case sel != nil:
		for k, i := range sel[lo:hi] {
			seqs[k] = st.base + int64(i)
		}
	default:
		for k := range seqs {
			seqs[k] = st.base + int64(lo+k)
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
		b.putLocked(c, nil, b.pendStamp[i], stamps{seqs: b.pendSeqs[i], base: b.nextSeq})
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

// pendingLocked finds the segment holding the consumer's next pending
// row and that row's offset in it; ok is false when nothing is pending.
func (b *Basket) pendingLocked(id int) (sg *segment, lo int, ok bool) {
	cur, ok := b.consumers[id]
	if !ok || cur >= b.end {
		return nil, 0, false
	}
	i := sort.Search(len(b.segs), func(i int) bool { return b.segs[i].end() > cur })
	sg = b.segs[i]
	return sg, int(cur - sg.start), true
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
// segment passes through as views, which pin its storage, and several
// are copied once into exactly sized vectors (Snapshot and ExportState
// are cold paths).
func (b *Basket) gatherLocked() (*bat.Chunk, bat.Ints, bat.Ints) {
	n := int(b.end - b.base)
	if len(b.segs) == 1 {
		b.segs[0].pin()
	}
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
// and stamps are never written again (a single segment's views pin its
// storage), so the caller may marshal them without further locking.
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
// state — not one still shared with a live basket). Adopted storage is
// never reused.
func NewFromState(name string, schema bat.Schema, st State) *Basket {
	b := New(name, schema)
	b.base, b.end = st.Base, st.Base
	if n := len(st.Seqs); n > 0 && st.Rows != nil && len(st.Rows.Cols) == len(schema.Kinds) {
		b.segs = []*segment{{
			start:    st.Base,
			cols:     st.Rows.Cols,
			arrivals: st.Arrivals[:n:n],
			seqs:     st.Seqs[:n:n],
			col:      &store{}, // no free list: never reused
			stamp:    &store{},
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

// ConsumeEach drains the consumer's backlog as it stands when called, one
// segment at a time: it consumes each segment's pending rows and passes
// their views to fn, outside the basket lock. Rows appended meanwhile
// wait for the next call. The views carry no lease, so they pin their
// segments' storage. It returns the rows consumed.
func (b *Basket) ConsumeEach(id int, fn func(c *bat.Chunk, arrivals, seqs bat.Ints)) int {
	return b.consume(id, false, func(c *bat.Chunk, _ bat.Lease, arrivals, seqs bat.Ints) {
		fn(c, arrivals, seqs)
	})
}

// ConsumeLeased is ConsumeEach handing fn a lease on the storage of the
// rows it passes: the rows stay valid while fn runs, and fn keeps them
// beyond that by retaining the lease (bat.Runs.AppendLeased). The
// stamps are valid only while fn runs. Storage whose every lease has been
// released goes back to the basket and is reused by later appends.
func (b *Basket) ConsumeLeased(id int, fn func(c *bat.Chunk, l bat.Lease, arrivals, seqs bat.Ints)) int {
	return b.consume(id, true, fn)
}

// consume is the drain loop of ConsumeEach and ConsumeLeased. A leased
// consume holds one reference on each store while fn runs, so a vacuum
// in between cannot release them; an unleased one pins them instead.
func (b *Basket) consume(id int, leased bool, fn func(c *bat.Chunk, l bat.Lease, arrivals, seqs bat.Ints)) int {
	n := 0
	for left := b.Available(id); left > 0; {
		b.mu.Lock()
		sg, lo, ok := b.pendingLocked(id)
		if !ok {
			b.mu.Unlock()
			break
		}
		hi := min(sg.rows(), lo+int(left))
		c, arrivals, seqs := sg.view(b.schema, lo, hi)
		if leased {
			sg.col.Retain()
			sg.stamp.Retain()
		} else {
			sg.pin()
		}
		b.consumers[id] += int64(hi - lo)
		b.vacuumLocked()
		b.mu.Unlock()
		if leased {
			fn(c, sg.col, arrivals, seqs)
			sg.release()
		} else {
			fn(c, nil, arrivals, seqs)
		}
		left -= int64(hi - lo)
		n += hi - lo
	}
	return n
}

// vacuumLocked frees the segments every consumer has passed. Nothing is
// copied: the basket drops its references, and storage that no lease
// holds goes back to the free lists for reuse (a pinned store is left
// to the garbage collector). A fully consumed tail segment with spare
// capacity stays, so the next small appends keep filling it; with no
// consumer bound, everything goes (nobody can ever read it).
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
	for _, sg := range b.segs[:drop] {
		sg.release()
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
	Shards    int   // 1 for a plain basket, N for a sharded container
	Segments  int64 // storage segments ever started
	Reused    int64 // segments whose columns reuse released storage
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
		Segments:  b.segsMade,
		Reused:    b.segsReused,
		Consumers: len(b.consumers),
		Paused:    b.paused,
		Shards:    1,
	}
}
