package basket

import (
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"sync"

	"datacell/internal/algebra"
	"datacell/internal/bat"
)

// Appender is the write side of a basket shared by receptors and the
// engine: both a plain Basket and a Sharded container satisfy it, so the
// receptor layer is agnostic of the partitioning behind a stream.
type Appender interface {
	Name() string
	Schema() bat.Schema
	Append(c *bat.Chunk, arrival int64) error
}

var (
	_ Appender = (*Basket)(nil)
	_ Appender = (*Sharded)(nil)
)

// Sharded partitions one stream's basket into N shards so receptors can
// append and factories can fire without contending on a single mutex. Rows
// are routed by hash of a user-declared key column, or round-robin per
// chunk when no key is declared.
//
// Epoch sealing: every appended row is assigned a global sequence number.
// The container tracks the settled watermark — the largest n such that
// every row with sequence < n has been fully appended to its shard — and,
// for each TIMESTAMP column, the largest event time over that settled
// prefix. Tuple windows with slide S seal epoch g (rows [g·S, (g+1)·S))
// exactly when the watermark passes (g+1)·S; time windows seal every
// bucket below the settled time's. Both clocks cover only rows that are
// already visible in their shards, which is what lets per-shard factory
// instances cut globally consistent basic windows without any cross-shard
// locking: the union of the shards' epoch-g slices is precisely the basic
// window g of the single-basket engine.
type Sharded struct {
	name   string
	schema bat.Schema
	shards []*Basket
	keyIdx int // hash column index; <0 = round-robin per chunk
	seed   maphash.Seed
	// tsCols are the schema's TIMESTAMP columns, in schema order: the
	// settled tracker keeps each one's largest event time.
	tsCols []int
	// sels recycles the per-shard selection lists a keyed append routes
	// its rows through (*[]algebra.Sel, one list per shard): they live
	// for one append.
	sels sync.Pool

	// pauseMu gates appends against Pause: producers hold the read side
	// for the whole append, so once Pause (the write side) returns, no
	// in-flight append can still make tuples visible — the atomicity the
	// single basket got from doing both under one mutex.
	pauseMu sync.RWMutex
	paused  bool // guarded by pauseMu

	mu        sync.Mutex
	claimed   int64        // sequence numbers handed out
	settled   seqTracker   // settled prefix of shard-visible sequences and its event times
	rr        int64        // round-robin chunk counter
	pending   []*bat.Chunk // appends buffered while paused (pre-sequencing)
	pendArr   []int64
	onAppend  []appendSub
	nextSubID int
	remote    func(parts []RemotePart, base int64, rows int, arrival int64)
}

// RemotePart is one shard's slice of a routed append: the rows hashed (or
// round-robined) to the shard together with their global sequence stamps.
// The chunk may be a view sharing storage with the appended chunk, so a
// remote router must consume (serialize) it synchronously.
type RemotePart struct {
	Shard int
	Chunk *bat.Chunk
	Seqs  bat.Ints
}

// SetRemote diverts the container to a distributed shard fabric: appends
// are validated, sequenced and partitioned exactly as for local shards,
// but each shard's rows are delivered to fn — with base/rows identifying
// the append's claimed sequence range [base, base+rows) — instead of
// entering the local shard baskets, whose consumers would never see them.
// A range settles once fn returns, so Settled and SettledTime cover only
// rows the router has already staged: they are the clocks the router
// ships to its workers, and an OnAppend subscriber learns of each advance.
// fn is invoked outside the container mutex; concurrent appends may
// invoke it out of sequence order. Call before any consumer registers or
// any append flows.
func (s *Sharded) SetRemote(fn func(parts []RemotePart, base int64, rows int, arrival int64)) {
	s.mu.Lock()
	s.remote = fn
	s.mu.Unlock()
}

// seqTracker derives the sealing clocks of a sharded container from its
// completed sequence ranges: the contiguous-prefix watermark, and the
// largest event time of each tracked TIMESTAMP column over that prefix.
// Ranges may complete out of order (concurrent producers claim, then
// settle); the watermark advances, and a range's event-time maxima fold
// in, only once every earlier sequence is covered — which is what makes
// both safe epoch-sealing clocks. Callers serialize access (it holds no
// lock of its own).
type seqTracker struct {
	wm   int64
	ts   []int64            // per tracked column: largest event time below wm
	done map[int64]seqRange // completed ranges above the watermark, by lo
}

// seqRange is a completed range waiting for the prefix below it: its end
// and its event-time maxima.
type seqRange struct {
	hi int64
	ts []int64
}

// newSeqTracker tracks cols TIMESTAMP columns, none of which has a
// settled event time yet.
func newSeqTracker(cols int) seqTracker {
	t := seqTracker{ts: make([]int64, cols)}
	for i := range t.ts {
		t.ts[i] = math.MinInt64
	}
	return t
}

// add records the completed range [lo, hi), whose rows' event-time maxima
// are ts, and advances the watermark over any now-contiguous prefix. Each
// range is recorded and absorbed once, so a backlog of out-of-order
// completions costs O(1) per range; only an out-of-order range copies
// its maxima.
func (t *seqTracker) add(lo, hi int64, ts []int64) {
	if lo != t.wm {
		if t.done == nil {
			t.done = make(map[int64]seqRange)
		}
		t.done[lo] = seqRange{hi: hi, ts: append([]int64(nil), ts...)}
		return
	}
	t.wm = hi
	t.raise(ts)
	for {
		next, ok := t.done[t.wm]
		if !ok {
			return
		}
		delete(t.done, t.wm)
		t.wm = next.hi
		t.raise(next.ts)
	}
}

// raise lifts each column's settled event time to at least ts's.
func (t *seqTracker) raise(ts []int64) {
	for i, v := range ts {
		t.ts[i] = max(t.ts[i], v)
	}
}

// advance lifts every column that has a settled event time to at least
// wm, and reports whether any rose.
func (t *seqTracker) advance(wm int64) bool {
	raised := false
	for i, v := range t.ts {
		if v != math.MinInt64 && v < wm {
			t.ts[i], raised = wm, true
		}
	}
	return raised
}

// NewSharded creates a sharded basket with n shards (minimum 1). keyIdx is
// the schema index of the partitioning key, or -1 for round-robin.
func NewSharded(name string, schema bat.Schema, n, keyIdx int) *Sharded {
	if n < 1 {
		n = 1
	}
	if keyIdx >= schema.Width() {
		keyIdx = -1
	}
	s := &Sharded{
		name:   name,
		schema: schema,
		keyIdx: keyIdx,
		seed:   maphash.MakeSeed(),
	}
	for i, k := range schema.Kinds {
		if k == bat.Time {
			s.tsCols = append(s.tsCols, i)
		}
	}
	s.settled = newSeqTracker(len(s.tsCols))
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, New(fmt.Sprintf("%s/%d", name, i), schema))
	}
	s.sels.New = func() any {
		sels := make([]algebra.Sel, n)
		return &sels
	}
	return s
}

// Name reports the stream the container belongs to.
func (s *Sharded) Name() string { return s.name }

// Schema reports the column layout.
func (s *Sharded) Schema() bat.Schema { return s.schema }

// NumShards reports the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard exposes shard i; factories register consumers on each shard
// directly.
func (s *Sharded) Shard(i int) *Basket { return s.shards[i] }

// KeyIndex reports the partitioning column index (-1 for round-robin).
func (s *Sharded) KeyIndex() int { return s.keyIdx }

// Consumers reports the number of registered consumers (queries register
// on every shard, so the first shard's count is the container's).
func (s *Sharded) Consumers() int { return s.shards[0].Consumers() }

// Settled reports the sequence watermark: every row with sequence below it
// is visible in its shard (or, for a remote container, has been handed to
// the router). It is the epoch-sealing clock of the sharded engine. A
// single-shard local container derives it from the shard's own append
// counter — that fast path never touches the container's range tracking —
// while remote containers always use the claim/settle machinery.
func (s *Sharded) Settled() int64 {
	s.mu.Lock()
	remote := s.remote
	settled := s.settled.wm
	s.mu.Unlock()
	if remote == nil && len(s.shards) == 1 {
		return s.shards[0].TotalIn()
	}
	return settled
}

// SettledTime reports the largest event time of TIMESTAMP column col over
// the settled prefix, raised by AdvanceTime: every row of the prefix is
// visible in its shard (or handed to the router) before the clock covers
// it. It is the sealing clock of time windows, read before the drain as
// Settled is for tuple windows. math.MinInt64 means no row has settled
// yet, or col is not a TIMESTAMP column.
func (s *Sharded) SettledTime(col int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.tsCols {
		if c == col {
			return s.settled.ts[i]
		}
	}
	return math.MinInt64
}

// AdvanceTime raises the settled event time of every TIMESTAMP column to
// at least wm — the scheduler's time constraint for idle streams, which
// closes open time-window buckets — and notifies the OnAppend subscribers
// as an append does. Before the stream's first settled row it does
// nothing: there is no bucket to close.
func (s *Sharded) AdvanceTime(wm int64) {
	s.mu.Lock()
	raised := s.settled.advance(wm)
	subs := s.onAppend
	s.mu.Unlock()
	if raised {
		fireSubs(subs)
	}
}

// timeMax appends c's largest value of each TIMESTAMP column to dst.
func (s *Sharded) timeMax(dst []int64, c *bat.Chunk) []int64 {
	for _, col := range s.tsCols {
		mx := int64(math.MinInt64)
		for _, v := range bat.AsInts(c.Cols[col]) {
			mx = max(mx, v)
		}
		dst = append(dst, mx)
	}
	return dst
}

// OnAppend registers a callback invoked after every container append has
// settled. The scheduler uses it to notify every shard transition of every
// consumer query (or query group) — shards that received no rows still
// need to learn that the epoch clock advanced. The returned cancel removes
// the subscription; a query (or group) leaving the stream must call it, or
// dropped queries keep taxing and waking on every later append.
func (s *Sharded) OnAppend(f func()) (cancel func()) {
	s.mu.Lock()
	id := s.nextSubID
	s.nextSubID++
	s.onAppend = append(s.onAppend, appendSub{id: id, f: f})
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.onAppend = cancelSub(s.onAppend, id)
		s.mu.Unlock()
	}
}

// Subscribers reports the number of live OnAppend subscriptions — the
// regression gauge for the drop-leaves-subscription-registered leak.
func (s *Sharded) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.onAppend)
}

// Append partitions a chunk across the shards, stamping each row with its
// global sequence number. The container lock is held only to claim the
// sequence range and settle it afterwards; the columnar copies run under
// the individual shard locks, so concurrent producers only contend when
// their rows land on the same shard.
func (s *Sharded) Append(c *bat.Chunk, arrival int64) error {
	rows := c.Rows()
	if rows == 0 {
		return nil
	}
	// Validate before the pause check: a malformed chunk must fail here,
	// not buffer while paused and blow up inside the Resume replay.
	if err := s.checkSchema(c); err != nil {
		return err
	}

	s.pauseMu.RLock()
	defer s.pauseMu.RUnlock()
	if s.paused {
		s.mu.Lock()
		s.pending = append(s.pending, c)
		s.pendArr = append(s.pendArr, arrival)
		s.mu.Unlock()
		return nil
	}
	s.mu.Lock()
	if s.remote == nil && len(s.shards) == 1 {
		// Fast path: the shard's own dense counter yields the identical
		// sequence stamps, so skip range claiming and settling entirely
		// (Settled reads the shard's append counter instead). The shard's
		// visible rows are always a prefix, so the settled event times
		// rise once the rows are visible.
		s.mu.Unlock()
		if err := s.shards[0].AppendSeqs(c, arrival, nil); err != nil {
			return err
		}
		var buf [2]int64
		s.mu.Lock()
		s.settled.raise(s.timeMax(buf[:0], c))
		subs := s.onAppend
		s.mu.Unlock()
		fireSubs(subs)
		return nil
	}
	base, target := s.claimLocked(rows)
	s.mu.Unlock()

	return s.appendClaimed(c, arrival, base, target)
}

// claimLocked reserves the next sequence range (and, for round-robin
// routing, the destination shard) for a chunk of the given row count.
func (s *Sharded) claimLocked(rows int) (base int64, target int) {
	base = s.claimed
	s.claimed += int64(rows)
	if s.keyIdx < 0 {
		target = int(s.rr % int64(len(s.shards)))
		s.rr++
	}
	return base, target
}

// appendClaimed routes a chunk whose sequence range was already claimed,
// settles the range, and fires the append notifications.
func (s *Sharded) appendClaimed(c *bat.Chunk, arrival, base int64, target int) error {
	rows := c.Rows()
	var buf [2]int64
	ts := s.timeMax(buf[:0], c)
	s.mu.Lock()
	remote := s.remote
	s.mu.Unlock()
	var err error
	switch {
	case remote != nil:
		remote(s.routeParts(c, base, target), base, rows, arrival)
	case s.keyIdx < 0:
		err = s.shards[target].AppendRouted(c, nil, arrival, base)
	default:
		err = s.appendHashed(c, arrival, base)
	}

	s.mu.Lock()
	s.settled.add(base, base+int64(rows), ts)
	subs := s.onAppend
	s.mu.Unlock()
	fireSubs(subs)
	return err
}

func (s *Sharded) checkSchema(c *bat.Chunk) error {
	if len(c.Cols) != len(s.schema.Kinds) {
		return fmt.Errorf("basket %s: append of %d columns, want %d",
			s.name, len(c.Cols), len(s.schema.Kinds))
	}
	for i, col := range c.Cols {
		if col.Kind() != s.schema.Kinds[i] {
			return fmt.Errorf("basket %s: column %d is %s, want %s",
				s.name, i, col.Kind(), s.schema.Kinds[i])
		}
	}
	return nil
}

// appendHashed splits the chunk by key hash and appends each shard's rows
// to that shard, one copy per row — the fused gather+append path. Each
// shard writes the rows' global sequence stamps (base plus the row's
// position in c) straight into its segment.
func (s *Sharded) appendHashed(c *bat.Chunk, arrival, base int64) error {
	sels := s.route(c)
	defer s.sels.Put(sels)
	var firstErr error
	for sh, sel := range *sels {
		if len(sel) == 0 {
			continue
		}
		if err := s.shards[sh].AppendRouted(c, sel, arrival, base); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// route hashes c's key column into one selection list per shard, taken
// from the container's pool; the caller puts them back when done. A list
// shorter than an even share plus a quarter — a pool miss, after a
// collection emptied the pool — is allocated at that size, so routing
// does not grow it by doubling.
func (s *Sharded) route(c *bat.Chunk) *[]algebra.Sel {
	sels := s.sels.Get().(*[]algebra.Sel)
	share := c.Rows() / len(*sels)
	share += share/4 + 8
	for i, sel := range *sels {
		if cap(sel) < share {
			sel = make(algebra.Sel, 0, share)
		}
		(*sels)[i] = sel[:0]
	}
	s.hashRows(c.Cols[s.keyIdx], *sels)
	return sels
}

// routeParts partitions a claimed append for remote delivery: one part per
// destination shard with the rows' global sequence stamps, in ascending
// row (and therefore sequence) order within each part — the same order the
// local shard baskets would have received.
func (s *Sharded) routeParts(c *bat.Chunk, base int64, target int) []RemotePart {
	rows := c.Rows()
	if s.keyIdx < 0 {
		return []RemotePart{{Shard: target, Chunk: c, Seqs: denseSeqs(base, rows)}}
	}
	sels := s.route(c)
	defer s.sels.Put(sels)
	var parts []RemotePart
	for sh, sel := range *sels {
		if len(sel) == 0 {
			continue
		}
		sub := bat.NewChunk(s.schema)
		seqs := make(bat.Ints, len(sel))
		for k, i := range sel {
			seqs[k] = base + int64(i)
		}
		for i, col := range c.Cols {
			sub.Cols[i] = bat.AppendFetch(sub.Cols[i], col, sel)
		}
		parts = append(parts, RemotePart{Shard: sh, Chunk: sub, Seqs: seqs})
	}
	return parts
}

// hashRows assigns each row of the key column to a shard's selection
// list. The typed bulk loops keep the router off the boxed Value path —
// routing runs in the producer's append, so it is ingestion-critical.
func (s *Sharded) hashRows(key bat.Vector, sels []algebra.Sel) {
	n := uint64(len(sels))
	route := func(h uint64, i int) {
		sh := h % n
		sels[sh] = append(sels[sh], int32(i))
	}
	switch ks := key.(type) {
	case bat.Ints:
		for i, k := range ks {
			route(mix64(uint64(k)), i)
		}
	case bat.Times:
		for i, k := range ks {
			route(mix64(uint64(k)), i)
		}
	case bat.Floats:
		for i, k := range ks {
			// Hash the bit pattern: truncating to int64 would collapse
			// every key in [n, n+1) onto one shard.
			route(mix64(math.Float64bits(k)), i)
		}
	case bat.Strs:
		for i, k := range ks {
			route(maphash.String(s.seed, k), i)
		}
	case bat.Bools:
		for i, k := range ks {
			h := mix64(0)
			if k {
				h = mix64(1)
			}
			route(h, i)
		}
	default:
		for i := 0; i < key.Len(); i++ {
			route(mix64(uint64(key.Get(i).I)), i)
		}
	}
}

// mix64 is splitmix64's finalizer: a cheap, well-distributed integer hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func denseSeqs(base int64, rows int) bat.Ints {
	seqs := make(bat.Ints, rows)
	for i := range seqs {
		seqs[i] = base + int64(i)
	}
	return seqs
}

// Pause holds subsequent appends back at the container level — they are
// neither sequenced nor routed until Resume, so epoch sealing is unaffected
// by a paused stream. Pause waits for in-flight appends to finish: once it
// returns, no tuple can become visible until Resume.
func (s *Sharded) Pause() {
	s.pauseMu.Lock()
	s.paused = true
	s.pauseMu.Unlock()
}

// Resume releases a paused container, replaying held appends through the
// normal partitioned path. The held chunks claim their sequence ranges
// under the same lock acquisition that clears the pause flag, so a
// concurrent producer cannot be sequenced ahead of them — resume order
// matches the single-basket engine.
func (s *Sharded) Resume() {
	s.pauseMu.Lock()
	s.paused = false
	s.mu.Lock()
	pending, arr := s.pending, s.pendArr
	s.pending, s.pendArr = nil, nil
	remote := s.remote
	s.mu.Unlock()
	if len(s.shards) == 1 && remote == nil {
		// Replay while still holding the pause gate: producers block on
		// its read side, so held rows keep their arrival-order sequences.
		for i, c := range pending {
			_ = s.shards[0].AppendSeqs(c, arr[i], nil)
		}
		var buf [2]int64
		s.mu.Lock()
		for _, c := range pending {
			s.settled.raise(s.timeMax(buf[:0], c))
		}
		subs := s.onAppend
		s.mu.Unlock()
		s.pauseMu.Unlock()
		if len(pending) > 0 {
			fireSubs(subs)
		}
		return
	}
	// Claim the held chunks' sequence ranges before releasing the gate:
	// a producer unblocked by the release cannot be sequenced ahead of
	// them, matching the single-basket engine's resume order.
	type claim struct {
		base   int64
		target int
	}
	claims := make([]claim, len(pending))
	s.mu.Lock()
	for i, c := range pending {
		claims[i].base, claims[i].target = s.claimLocked(c.Rows())
	}
	s.mu.Unlock()
	s.pauseMu.Unlock()
	for i, c := range pending {
		_ = s.appendClaimed(c, arr[i], claims[i].base, claims[i].target)
	}
}

// Paused reports whether the container is holding arrivals back.
func (s *Sharded) Paused() bool {
	s.pauseMu.RLock()
	defer s.pauseMu.RUnlock()
	return s.paused
}

// Snapshot returns a copy of everything currently buffered across all
// shards, reassembled in global arrival (sequence) order — one-time
// queries over the stream see the same row order as the single-basket
// engine.
func (s *Sharded) Snapshot() *bat.Chunk {
	if len(s.shards) == 1 {
		return s.shards[0].Snapshot()
	}
	type part struct {
		c    *bat.Chunk
		seqs bat.Ints
	}
	var parts []part
	total := 0
	for _, sh := range s.shards {
		c, seqs := sh.SnapshotSeqs()
		parts = append(parts, part{c, seqs})
		total += c.Rows()
	}
	out := bat.NewChunk(s.schema)
	if total == 0 {
		return out
	}
	// Global sort by sequence stamp, then run-wise columnar appends.
	// In-shard sequences are NOT necessarily ascending: concurrent
	// producers may win a shard's mutex in a different order than they
	// claimed their ranges, so a plain k-way merge would misorder rows.
	// Producers route whole ranges to one shard, so sorted neighbors
	// usually form long same-shard runs and the bulk appends stay cheap.
	type ref struct {
		shard, row int
		seq        int64
	}
	refs := make([]ref, 0, total)
	for i, p := range parts {
		for j, sq := range p.seqs {
			refs = append(refs, ref{shard: i, row: j, seq: sq})
		}
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a].seq < refs[b].seq })
	for pos := 0; pos < total; {
		end := pos + 1
		for end < total && refs[end].shard == refs[pos].shard && refs[end].row == refs[end-1].row+1 {
			end++
		}
		p := parts[refs[pos].shard]
		out.AppendChunk(p.c.Slice(refs[pos].row, refs[pos].row+(end-pos)))
		pos = end
	}
	return out
}

// Stats aggregates the shard counters into one basket-level snapshot.
func (s *Sharded) Stats() Stats {
	out := Stats{Name: s.name, Shards: len(s.shards)}
	for i, sh := range s.shards {
		st := sh.Stats()
		out.Len += st.Len
		out.TotalIn += st.TotalIn
		out.TotalDrop += st.TotalDrop
		out.Segments += st.Segments
		out.Reused += st.Reused
		if i == 0 {
			out.Consumers = st.Consumers
		}
	}
	out.Paused = s.Paused()
	return out
}

// ShardStats returns each shard's individual counters (monitoring).
func (s *Sharded) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Stats()
	}
	return out
}
