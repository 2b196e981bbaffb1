package window

import (
	"sync"

	"datacell/internal/bat"
	"datacell/internal/plan"
)

// SharedPairCache is the pair cache a join group's member tails drive: a
// new basic window is joined against the member's live ring of the other
// side, and a slide merges the member's live pair set. Every member query
// over the same stream pair and join fingerprint shares the pair results.
// Two things change relative to a bare JoinCache. Access is serialized by
// a mutex (member tails are independent scheduler transitions). And
// eviction is driven by generation watermarks instead of any single
// member's ring: a pair (l, r) stays cached while l is within MaxParts —
// the largest member window extent — of the newest left generation, and
// likewise for r, so the member with the widest window always finds its
// pairs. A member whose
// ring lags the watermarks (paused, then resumed with a backlog) simply
// recomputes the expired pairs transiently during its merge — correctness
// never depends on the cache's contents.
type SharedPairCache struct {
	mu       sync.Mutex
	jc       *JoinCache
	retained map[int]int // member window extents (multiset): extent → count
	maxParts int64       // current horizon: the widest retained extent
	newest   [2]int64
	seen     [2]bool
}

// NewSharedPairCache builds the group-level cache for a join node.
func NewSharedPairCache(join *plan.Join) *SharedPairCache {
	return &SharedPairCache{jc: NewJoinCache(join), retained: make(map[int]int)}
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
	s.jc.EvictThrough(lwm, rwm)
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
			s.jc.ensure(bw, o)
		} else {
			s.jc.ensure(o, bw)
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

// Merged concatenates the member's live pair set in (leftGen, rightGen)
// order, recomputing any pair the watermarks already expired.
func (s *SharedPairCache) Merged(lefts, rights []*BW) *bat.Chunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jc.MergedEnsure(lefts, rights)
}

// Pairs reports the number of cached pair results.
func (s *SharedPairCache) Pairs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jc.Pairs()
}

// Computed reports how many pair results were ever evaluated.
func (s *SharedPairCache) Computed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jc.Computed()
}
