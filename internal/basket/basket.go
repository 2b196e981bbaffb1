// Package basket implements DataCell's baskets: lightweight columnar
// tables that buffer in-flight stream tuples. A receptor appends incoming
// events to a basket; the continuous queries bound to the stream each hold
// a read cursor into it; and "once a tuple has been seen by all relevant
// queries, it is dropped from its basket" (paper §3) — implemented here by
// vacuuming the prefix below the minimum cursor.
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
	"slices"
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
	cols      []bat.Vector
	arrivals  bat.Ints // per-row arrival stamp, microseconds
	seqs      bat.Ints // per-row sequence stamp (global in a shard)
	nextSeq   int64    // auto-assigned sequence for plain Append
	base      int64    // absolute row id of cols[*][0]
	consumers map[int]int64
	nextID    int
	totalIn   int64
	totalDrop int64
	onAppend  []appendSub
	nextSubID int
	paused    bool
	pending   []*bat.Chunk // appends buffered while paused
	pendStamp []int64
	pendSeqs  []bat.Ints
}

// New creates an empty basket for the given stream schema.
func New(name string, schema bat.Schema) *Basket {
	return &Basket{
		name:      name,
		schema:    schema,
		cols:      bat.NewChunk(schema).Cols,
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
	b.consumers[id] = b.base + int64(b.len())
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
	b.appendLocked(c, arrival, seqs)
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
	for i := range b.cols {
		b.cols[i] = bat.AppendFetch(b.cols[i], c.Cols[i], sel)
	}
	b.arrivals = fillInts(b.arrivals, len(sel), arrival, 0)
	b.seqs = append(b.seqs, seqs...)
	if n := seqs[len(seqs)-1] + 1; n > b.nextSeq {
		b.nextSeq = n
	}
	b.totalIn += int64(len(sel))
	subs := b.onAppend
	b.mu.Unlock()
	fireSubs(subs)
	return nil
}

func (b *Basket) appendLocked(c *bat.Chunk, arrival int64, seqs bat.Ints) {
	rows := c.Rows()
	for i := range b.cols {
		b.cols[i] = b.cols[i].AppendVector(c.Cols[i])
	}
	b.arrivals = fillInts(b.arrivals, rows, arrival, 0)
	if seqs == nil {
		b.seqs = fillInts(b.seqs, rows, b.nextSeq, 1)
		b.nextSeq += int64(rows)
	} else if rows > 0 {
		b.seqs = append(b.seqs, seqs...)
		if n := seqs[rows-1] + 1; n > b.nextSeq {
			b.nextSeq = n
		}
	}
	b.totalIn += int64(rows)
}

// fillInts extends xs by n values start, start+step, ..., growing it at
// most once. Only positions past the old length are written, so views
// already handed out over xs[:len(xs)] (PeekSeqs, SnapshotSeqs) never
// see a write.
func fillInts(xs bat.Ints, n int, start, step int64) bat.Ints {
	old := len(xs)
	xs = slices.Grow(xs, n)[:old+n]
	for i := range xs[old:] {
		xs[old+i] = start + int64(i)*step
	}
	return xs
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
		b.appendLocked(c, b.pendStamp[i], b.pendSeqs[i])
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

func (b *Basket) len() int {
	if len(b.cols) == 0 {
		return int(b.arrivals.Len())
	}
	return b.cols[0].Len()
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
	return b.base + int64(b.len()) - cur
}

// Peek returns up to n pending tuples for the consumer without consuming
// them, plus their arrival stamps. The returned chunk is a view; it stays
// valid after concurrent appends and vacuums (vacuum reallocates, old
// views keep the old arrays). It returns nil when nothing is pending.
func (b *Basket) Peek(id int, n int) (*bat.Chunk, bat.Ints) {
	c, arr, _ := b.PeekSeqs(id, n)
	return c, arr
}

// PeekSeqs is Peek returning the rows' sequence stamps as well — the
// shard-aware read path, which needs global positions to reconstruct epoch
// boundaries.
func (b *Basket) PeekSeqs(id int, n int) (*bat.Chunk, bat.Ints, bat.Ints) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur, ok := b.consumers[id]
	if !ok {
		return nil, nil, nil
	}
	lo := int(cur - b.base)
	hi := b.len()
	if hi-lo > n {
		hi = lo + n
	}
	if hi <= lo {
		return nil, nil, nil
	}
	cols := make([]bat.Vector, len(b.cols))
	for i, col := range b.cols {
		cols[i] = col.Slice(lo, hi)
	}
	return &bat.Chunk{Schema: b.schema, Cols: cols},
		b.arrivals[lo:hi:hi], b.seqs[lo:hi:hi]
}

// Snapshot returns a copy of everything currently buffered in the basket,
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
	cols := make([]bat.Vector, len(b.cols))
	for i, col := range b.cols {
		cols[i] = col.Slice(0, b.len())
	}
	n := b.len()
	return &bat.Chunk{Schema: b.schema, Cols: cols}, b.seqs[0:n:n]
}

// State is a transferable image of a basket's buffered rows and sequence
// counters — what a fabric worker persists per shard in its snapshot and
// ships during an elastic shard handoff. Rows/Arrivals/Seqs from
// ExportState are views (stable under concurrent appends and vacuums,
// which reallocate); a State decoded from the wire owns fresh vectors.
// Consumer cursors are deliberately not part of the image: the restoring
// side re-registers its consumers at the cursors it tracked itself.
type State struct {
	Base     int64 // absolute row id of Rows[0]
	NextSeq  int64
	TotalIn  int64
	Rows     *bat.Chunk
	Arrivals bat.Ints
	Seqs     bat.Ints
}

// ExportState captures the basket's buffered rows and counters. The
// returned chunk and stamp slices are views sharing the basket's current
// arrays; the caller may marshal them without further locking.
func (b *Basket) ExportState() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.len()
	cols := make([]bat.Vector, len(b.cols))
	for i, col := range b.cols {
		cols[i] = col.Slice(0, n)
	}
	return State{
		Base:     b.base,
		NextSeq:  b.nextSeq,
		TotalIn:  b.totalIn,
		Rows:     &bat.Chunk{Schema: b.schema, Cols: cols},
		Arrivals: b.arrivals[0:n:n],
		Seqs:     b.seqs[0:n:n],
	}
}

// NewFromState rebuilds a basket from an exported image, adopting the
// state's vectors (pass a decoded, freshly allocated state — not one
// still shared with a live basket).
func NewFromState(name string, schema bat.Schema, st State) *Basket {
	b := New(name, schema)
	if st.Rows != nil && len(st.Rows.Cols) == len(b.cols) {
		b.cols = st.Rows.Cols
	}
	b.arrivals = st.Arrivals
	b.seqs = st.Seqs
	b.base = st.Base
	b.nextSeq = st.NextSeq
	b.totalIn = st.TotalIn
	b.totalDrop = st.Base // base only ever advances by dropping the prefix
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
	if cursor < b.base {
		cursor = b.base
	}
	if hi := b.base + int64(b.len()); cursor > hi {
		cursor = hi
	}
	b.consumers[id] = cursor
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
	hi := b.base + int64(b.len())
	cur += n
	if cur > hi {
		cur = hi
	}
	b.consumers[id] = cur
	b.vacuumLocked()
}

// vacuumThreshold is how far the minimum cursor may run ahead of the base
// before the consumed prefix is physically dropped. Batching the drops
// amortizes the copy.
const vacuumThreshold = 4096

func (b *Basket) vacuumLocked() {
	if len(b.consumers) == 0 {
		// No queries bound: the basket would grow without bound, so drop
		// everything (nobody can ever read it).
		n := b.len()
		if n > 0 {
			b.dropPrefixLocked(n)
		}
		return
	}
	minCur := b.base + int64(b.len())
	for _, c := range b.consumers {
		if c < minCur {
			minCur = c
		}
	}
	if minCur-b.base >= vacuumThreshold {
		b.dropPrefixLocked(int(minCur - b.base))
	}
}

func (b *Basket) dropPrefixLocked(n int) {
	hi := b.len()
	for i, col := range b.cols {
		b.cols[i] = col.CopyRange(n, hi)
	}
	b.arrivals = b.arrivals.CopyRange(n, int(b.arrivals.Len())).(bat.Ints)
	b.seqs = b.seqs.CopyRange(n, int(b.seqs.Len())).(bat.Ints)
	b.base += int64(n)
	b.totalDrop += int64(n)
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
		Len:       b.len(),
		TotalIn:   b.totalIn,
		TotalDrop: b.totalDrop,
		Consumers: len(b.consumers),
		Paused:    b.paused,
		Shards:    1,
	}
}
