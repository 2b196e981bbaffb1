package window

import (
	"datacell/internal/bat"
	"datacell/internal/kernel"
	"datacell/internal/plan"
)

// JoinCache caches stream⋈stream join results at basic-window-pair
// granularity. When a new basic window arrives on either side it is joined
// once against every live basic window of the other side; a slide then
// evicts a whole row/column of pairs along with the expired basic window.
// The merged join output per slide is the concatenation of the live pair
// results — no join work is ever repeated for surviving pairs, which is
// where the incremental benefit for complex (join) queries comes from
// (demo §4, Complex Queries).
//
// Pairs are indexed by side generation: byLeft[lGen][rGen] holds the pair
// result, byRight[rGen] the set of left generations it participates in.
// Eviction and merging therefore touch only the pairs involving the
// affected generations — proportional to the live pair set, never a scan
// of the whole map. Evicted results drop their column vectors eagerly so
// the backing buffers are reclaimable the moment the pair expires, even if
// a stale reference to the chunk header survives.
//
// JoinCache itself is not safe for concurrent use: SharedPairCache adds
// the mutex when it serves a join group's member tails.
type JoinCache struct {
	join     *plan.Join
	byLeft   map[int64]map[int64]*bat.Chunk
	byRight  map[int64]map[int64]bool
	npairs   int
	computed int64
}

// NewJoinCache builds a pair cache for the given join node (whose L/R
// schemas must match the cached pipeline outputs fed to Add).
func NewJoinCache(join *plan.Join) *JoinCache {
	return &JoinCache{
		join:    join,
		byLeft:  make(map[int64]map[int64]*bat.Chunk),
		byRight: make(map[int64]map[int64]bool),
	}
}

// Join reports the join node the cache evaluates.
func (jc *JoinCache) Join() *plan.Join { return jc.join }

// AddLeft joins a new left basic window against all live right basic
// windows and caches the pair results.
func (jc *JoinCache) AddLeft(l *BW, rights []*BW) {
	for _, r := range rights {
		jc.ensure(l, r)
	}
}

// AddRight joins a new right basic window against all live left basic
// windows and caches the pair results.
func (jc *JoinCache) AddRight(r *BW, lefts []*BW) {
	for _, l := range lefts {
		jc.ensure(l, r)
	}
}

func (jc *JoinCache) ensure(l, r *BW) *bat.Chunk {
	if c, ok := jc.Get(l.Gen, r.Gen); ok {
		return c
	}
	c := jc.compute(l, r)
	jc.Put(l.Gen, r.Gen, c)
	return c
}

// compute evaluates one pair without touching the cache.
func (jc *JoinCache) compute(l, r *BW) *bat.Chunk {
	jc.computed++
	return kernel.JoinChunks(jc.join, l.Out, r.Out)
}

// Get looks up a cached pair result.
func (jc *JoinCache) Get(lGen, rGen int64) (*bat.Chunk, bool) {
	c, ok := jc.byLeft[lGen][rGen]
	return c, ok
}

// Put caches a pair result.
func (jc *JoinCache) Put(lGen, rGen int64, c *bat.Chunk) {
	row := jc.byLeft[lGen]
	if row == nil {
		row = make(map[int64]*bat.Chunk)
		jc.byLeft[lGen] = row
	}
	if _, dup := row[rGen]; dup {
		return
	}
	row[rGen] = c
	col := jc.byRight[rGen]
	if col == nil {
		col = make(map[int64]bool)
		jc.byRight[rGen] = col
	}
	col[lGen] = true
	jc.npairs++
}

// EvictLeft drops all pairs involving an expired left basic window,
// releasing their backing buffers.
func (jc *JoinCache) EvictLeft(gen int64) {
	row := jc.byLeft[gen]
	if row == nil {
		return
	}
	delete(jc.byLeft, gen)
	for rGen, c := range row {
		release(c)
		col := jc.byRight[rGen]
		delete(col, gen)
		if len(col) == 0 {
			delete(jc.byRight, rGen)
		}
		jc.npairs--
	}
}

// EvictRight drops all pairs involving an expired right basic window,
// releasing their backing buffers.
func (jc *JoinCache) EvictRight(gen int64) {
	col := jc.byRight[gen]
	if col == nil {
		return
	}
	delete(jc.byRight, gen)
	for lGen := range col {
		row := jc.byLeft[lGen]
		release(row[gen])
		delete(row, gen)
		if len(row) == 0 {
			delete(jc.byLeft, lGen)
		}
		jc.npairs--
	}
}

// EvictThrough evicts every pair whose left generation is ≤ lGen or whose
// right generation is ≤ rGen — the watermark form of eviction used when
// one cache serves members whose rings advance independently. Generations
// are consecutive, so walking down from the watermark until a generation
// holds no pairs visits only live-or-just-expired generations.
func (jc *JoinCache) EvictThrough(lGen, rGen int64) {
	for g := lGen; ; g-- {
		if jc.byLeft[g] == nil {
			break
		}
		jc.EvictLeft(g)
	}
	for g := rGen; ; g-- {
		if jc.byRight[g] == nil {
			break
		}
		jc.EvictRight(g)
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

// Merged concatenates the cached results of the live pair set, in
// (leftGen, rightGen) order for determinism. Pairs absent from the cache
// are skipped — under the private-factory protocol every live pair was
// Added before Merged runs.
func (jc *JoinCache) Merged(lefts, rights []*BW) *bat.Chunk {
	out := bat.NewChunk(jc.join.Out)
	for _, l := range lefts {
		row := jc.byLeft[l.Gen]
		if row == nil {
			continue
		}
		for _, r := range rights {
			if c, ok := row[r.Gen]; ok {
				out.AppendChunk(c)
			}
		}
	}
	return out
}

// MergedEnsure is Merged for callers that cannot rely on every live pair
// being cached (a group member resuming from pause after the shared cache
// moved on): missing pairs are recomputed from the basic windows' cached
// pipeline outputs. Recomputed pairs are returned but not cached — they
// are behind the shared eviction watermark, so caching would leak them.
func (jc *JoinCache) MergedEnsure(lefts, rights []*BW) *bat.Chunk {
	out := bat.NewChunk(jc.join.Out)
	for _, l := range lefts {
		row := jc.byLeft[l.Gen]
		for _, r := range rights {
			if c, ok := row[r.Gen]; ok {
				out.AppendChunk(c)
			} else {
				out.AppendChunk(jc.compute(l, r))
			}
		}
	}
	return out
}

// Pairs reports the number of cached pair results (for the analysis pane).
func (jc *JoinCache) Pairs() int { return jc.npairs }

// Computed reports how many pair results were ever evaluated — the
// no-recompute-for-surviving-pairs invariant is Computed staying flat
// while surviving pairs are re-merged.
func (jc *JoinCache) Computed() int64 { return jc.computed }
