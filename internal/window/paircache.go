package window

import (
	"sync"

	"datacell/internal/bat"
	"datacell/internal/kernel"
	"datacell/internal/plan"
)

// SharedPairCache caches stream⋈stream join results at basic-window-pair
// granularity for a join group's member tails. A new basic window is
// joined once against the member's live ring of the other side, and a
// slide merges the member's live pair set: the concatenation of the
// cached pair results, so no join work is ever repeated for surviving
// pairs — which is where the incremental benefit for complex (join)
// queries comes from (demo §4, Complex Queries). Every member query over
// the same stream pair and join fingerprint shares the pair results;
// access is serialized by a mutex (member tails are independent scheduler
// transitions).
//
// Eviction is driven by generation watermarks instead of any single
// member's ring: a pair (l, r) stays cached while l is within maxParts —
// the largest member window extent — of the newest left generation, and
// likewise for r, so the member with the widest window always finds its
// pairs. A member whose ring lags the watermarks (paused, then resumed
// with a backlog) simply recomputes the expired pairs transiently during
// its merge — correctness never depends on the cache's contents.
//
// Pairs are indexed by side generation: byLeft[lGen][rGen] holds the pair
// result, byRight[rGen] the set of left generations it participates in.
// Eviction therefore touches only the pairs involving the expired
// generations. Evicted results drop their column vectors eagerly so the
// backing buffers are reclaimable the moment the pair expires, even if a
// stale reference to the chunk header survives.
type SharedPairCache struct {
	join *plan.Join

	mu       sync.Mutex
	byLeft   map[int64]map[int64]*bat.Chunk
	byRight  map[int64]map[int64]bool
	npairs   int
	computed int64
	retained map[int]int // member window extents (multiset): extent → count
	maxParts int64       // current horizon: the widest retained extent
	newest   [2]int64
	seen     [2]bool
}

// NewSharedPairCache builds the group-level cache for a join node (whose
// L/R schemas must match the cached pipeline outputs fed to AddLeft and
// AddRight).
func NewSharedPairCache(join *plan.Join) *SharedPairCache {
	return &SharedPairCache{
		join:     join,
		byLeft:   make(map[int64]map[int64]*bat.Chunk),
		byRight:  make(map[int64]map[int64]bool),
		retained: make(map[int]int),
	}
}

// Retain records a joining member's window extent (in basic windows) and
// raises the retention horizon to the widest retained extent. Release is
// its inverse on member Leave.
func (s *SharedPairCache) Retain(parts int) {
	s.mu.Lock()
	s.retained[parts]++
	if int64(parts) > s.maxParts {
		s.maxParts = int64(parts)
	}
	s.mu.Unlock()
}

// Release drops one member's window extent from the retention multiset
// and recomputes the horizon; when the departing member was the widest,
// pairs beyond the new horizon are evicted immediately rather than
// lingering for up to one extra window.
func (s *SharedPairCache) Release(parts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.retained[parts]; n > 1 {
		s.retained[parts] = n - 1
	} else {
		delete(s.retained, parts)
	}
	var max int64
	for p := range s.retained {
		if int64(p) > max {
			max = int64(p)
		}
	}
	if max == s.maxParts || max == 0 {
		s.maxParts = max
		return
	}
	s.maxParts = max
	s.evictLocked()
}

// evictLocked sweeps both sides' expired generations under the current
// horizon. Callers hold s.mu.
func (s *SharedPairCache) evictLocked() {
	var lwm, rwm int64 = -1 << 62, -1 << 62
	if s.seen[0] {
		lwm = s.threshold(0)
	}
	if s.seen[1] {
		rwm = s.threshold(1)
	}
	s.evictThrough(lwm, rwm)
}

// threshold reports the eviction watermark of a side: generations ≤ it are
// expired. Meaningful only once the side has seen a basic window.
func (s *SharedPairCache) threshold(side int) int64 {
	return s.newest[side] - s.maxParts
}

func (s *SharedPairCache) add(side int, bw *BW, others []*BW) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[side] && bw.Gen <= s.threshold(side) {
		// A member replaying windows the group has moved past (resumed
		// from pause): caching would resurrect evicted generations that no
		// watermark will sweep again. Its merge recomputes transiently.
		return
	}
	if bw.Gen > s.newest[side] || !s.seen[side] {
		s.newest[side], s.seen[side] = bw.Gen, true
	}
	for _, o := range others {
		if s.seen[1-side] && o.Gen <= s.threshold(1-side) {
			continue
		}
		if side == 0 {
			s.ensure(bw, o)
		} else {
			s.ensure(o, bw)
		}
	}
	s.evictLocked()
}

// AddLeft joins a new left basic window against the member's live right
// ring, caching pairs that are within the retention horizon.
func (s *SharedPairCache) AddLeft(l *BW, rights []*BW) { s.add(0, l, rights) }

// AddRight joins a new right basic window against the member's live left
// ring, caching pairs that are within the retention horizon.
func (s *SharedPairCache) AddRight(r *BW, lefts []*BW) { s.add(1, r, lefts) }

// ensure caches the pair (l, r) unless it is cached already. Callers hold
// s.mu.
func (s *SharedPairCache) ensure(l, r *BW) {
	row := s.byLeft[l.Gen]
	if _, ok := row[r.Gen]; ok {
		return
	}
	if row == nil {
		row = make(map[int64]*bat.Chunk)
		s.byLeft[l.Gen] = row
	}
	row[r.Gen] = s.compute(l, r)
	col := s.byRight[r.Gen]
	if col == nil {
		col = make(map[int64]bool)
		s.byRight[r.Gen] = col
	}
	col[l.Gen] = true
	s.npairs++
}

// compute evaluates one pair without touching the cache.
func (s *SharedPairCache) compute(l, r *BW) *bat.Chunk {
	s.computed++
	return kernel.JoinChunks(s.join, l.Out, r.Out)
}

// evictThrough evicts every pair whose left generation is ≤ lGen or whose
// right generation is ≤ rGen, releasing their buffers. Generations are
// consecutive, so walking down from a watermark until a generation holds
// no pairs visits only live-or-just-expired generations. Callers hold
// s.mu.
func (s *SharedPairCache) evictThrough(lGen, rGen int64) {
	for g := lGen; s.byLeft[g] != nil; g-- {
		for r, c := range s.byLeft[g] {
			release(c)
			col := s.byRight[r]
			delete(col, g)
			if len(col) == 0 {
				delete(s.byRight, r)
			}
			s.npairs--
		}
		delete(s.byLeft, g)
	}
	for g := rGen; s.byRight[g] != nil; g-- {
		for l := range s.byRight[g] {
			row := s.byLeft[l]
			release(row[g])
			delete(row, g)
			if len(row) == 0 {
				delete(s.byLeft, l)
			}
			s.npairs--
		}
		delete(s.byRight, g)
	}
}

// release drops a pair result's column vectors so the backing buffers are
// reclaimable immediately; merged outputs copied out of the cache are
// unaffected.
func release(c *bat.Chunk) {
	if c != nil {
		c.Cols = nil
	}
}

// Merged concatenates the member's live pair set in (leftGen, rightGen)
// order, the caller's window order. A pair absent from the cache — a
// member resuming from pause after the watermarks moved on — is
// recomputed from the basic windows' cached pipeline outputs but not
// cached: it is behind the shared eviction watermark, so caching would
// leak it.
func (s *SharedPairCache) Merged(lefts, rights []*BW) *bat.Chunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := bat.NewChunk(s.join.Out)
	for _, l := range lefts {
		row := s.byLeft[l.Gen]
		for _, r := range rights {
			if c, ok := row[r.Gen]; ok {
				out.AppendChunk(c)
			} else {
				out.AppendChunk(s.compute(l, r))
			}
		}
	}
	return out
}

// Pairs reports the number of cached pair results.
func (s *SharedPairCache) Pairs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.npairs
}

// Computed reports how many pair results were ever evaluated — the
// no-recompute-for-surviving-pairs invariant is Computed staying flat
// while surviving pairs are re-merged.
func (s *SharedPairCache) Computed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.computed
}
