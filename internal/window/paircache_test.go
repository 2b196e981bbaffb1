package window

import (
	"fmt"
	"testing"

	"datacell/internal/bat"
	"datacell/internal/plan"
)

// jcFixture builds a single-int-key equi-join over (k, v) inputs and a BW
// factory whose Out chunks carry predictable keys: basic window g holds
// keys g and g+1, so adjacent generations overlap and every pair joins at
// least one row.
func jcFixture() (*plan.Join, func(gen int64) *BW) {
	in := bat.NewSchema([]string{"k", "v"}, []bat.Kind{bat.Int, bat.Int})
	out := bat.NewSchema([]string{"lk", "lv", "rk", "rv"},
		[]bat.Kind{bat.Int, bat.Int, bat.Int, bat.Int})
	join := &plan.Join{LKeys: []int{0}, RKeys: []int{0}, Out: out}
	mk := func(gen int64) *BW {
		c := &bat.Chunk{Schema: in, Cols: []bat.Vector{
			bat.Ints{gen, gen + 1}, bat.Ints{gen * 10, gen*10 + 1},
		}}
		return &BW{Gen: gen, Out: c}
	}
	return join, mk
}

// cached looks a pair result up in the cache without computing it.
func cached(pc *SharedPairCache, lGen, rGen int64) (*bat.Chunk, bool) {
	c, ok := pc.byLeft[lGen][rGen]
	return c, ok
}

// newPairCache is a cache retaining one member of window extent parts.
func newPairCache(join *plan.Join, parts int) *SharedPairCache {
	pc := NewSharedPairCache(join)
	pc.Retain(parts)
	return pc
}

// TestJoinCacheEvictionOnSlide drives a member tail's protocol — per slide
// a new basic window enters each side's ring, evicting the oldest, and is
// joined against the other side's live ring — and checks the pair set
// stays exactly the live cross product, with evicted results' buffers
// released eagerly.
func TestJoinCacheEvictionOnSlide(t *testing.T) {
	join, mk := jcFixture()
	const parts = 3
	pc := newPairCache(join, parts)
	var lefts, rights []*BW
	for g := int64(0); g < 8; g++ {
		var expired *bat.Chunk
		if g >= parts {
			c, ok := cached(pc, g-parts, g-parts)
			if !ok {
				t.Fatalf("gen %d: pair (%d,%d) missing before eviction", g, g-parts, g-parts)
			}
			expired = c
			lefts, rights = lefts[1:], rights[1:]
		}
		l, r := mk(g), mk(g)
		lefts = append(lefts, l)
		pc.AddLeft(l, rights)
		rights = append(rights, r)
		pc.AddRight(r, lefts)
		if expired != nil && expired.Cols != nil {
			t.Fatalf("gen %d: evicted pair result still holds its buffers", g)
		}
		want := len(lefts) * len(rights)
		if pc.Pairs() != want {
			t.Fatalf("gen %d: pairs = %d, want %d (live cross product)", g, pc.Pairs(), want)
		}
		for _, l := range lefts {
			for _, r := range rights {
				if _, ok := cached(pc, l.Gen, r.Gen); !ok {
					t.Fatalf("gen %d: live pair (%d,%d) evicted", g, l.Gen, r.Gen)
				}
			}
		}
	}
}

// TestJoinCacheMergedDeterminism: Merged must concatenate the live pairs
// in (leftGen, rightGen) order regardless of cache insertion order, so
// repeated merges — and merges after re-adding the same windows — render
// identically.
func TestJoinCacheMergedDeterminism(t *testing.T) {
	join, mk := jcFixture()
	lefts := []*BW{mk(0), mk(1), mk(2)}
	rights := []*BW{mk(0), mk(1), mk(2)}

	forward := newPairCache(join, 3)
	for _, l := range lefts {
		forward.AddLeft(l, rights)
	}
	backward := newPairCache(join, 3)
	for i := len(rights) - 1; i >= 0; i-- {
		backward.AddRight(rights[i], lefts)
	}
	a := forward.Merged(lefts, rights).String()
	b := backward.Merged(lefts, rights).String()
	if a != b {
		t.Fatalf("Merged depends on insertion order:\nforward:\n%s\nbackward:\n%s", a, b)
	}
	if c := forward.Merged(lefts, rights).String(); c != a {
		t.Fatal("repeated Merged diverged")
	}
	if a == "" || forward.Pairs() != 9 || backward.Pairs() != 9 {
		t.Fatalf("unexpected merge state: pairs=%d, %d", forward.Pairs(), backward.Pairs())
	}
}

// TestJoinCacheNoRecompute: surviving pairs must never be re-joined —
// Computed counts only first-time pair evaluations, staying flat across
// redundant adds and any number of Merged calls.
func TestJoinCacheNoRecompute(t *testing.T) {
	join, mk := jcFixture()
	pc := newPairCache(join, 2)
	lefts := []*BW{mk(0), mk(1)}
	rights := []*BW{mk(0), mk(1)}
	for _, l := range lefts {
		pc.AddLeft(l, rights)
	}
	if pc.Computed() != 4 {
		t.Fatalf("computed = %d, want 4", pc.Computed())
	}
	for _, r := range rights {
		pc.AddRight(r, lefts) // every pair already cached
	}
	for i := 0; i < 3; i++ {
		_ = pc.Merged(lefts, rights)
	}
	if pc.Computed() != 4 {
		t.Fatalf("computed grew to %d on surviving pairs", pc.Computed())
	}
	// A slide: generation 0 expires and one new window enters each side.
	// Only the new row and column of pairs are computed.
	l2, r2 := mk(2), mk(2)
	lefts, rights = []*BW{lefts[1], l2}, []*BW{rights[1]}
	pc.AddLeft(l2, rights)
	rights = append(rights, r2)
	pc.AddRight(r2, lefts)
	if pc.Computed() != 4+3 {
		t.Fatalf("computed = %d after slide, want 7", pc.Computed())
	}
	if pc.Pairs() != 4 {
		t.Fatalf("pairs = %d after slide, want 4", pc.Pairs())
	}
}

// TestJoinCacheEvictThrough: watermark eviction sweeps every generation
// at or below the thresholds and tolerates already-evicted prefixes.
func TestJoinCacheEvictThrough(t *testing.T) {
	join, mk := jcFixture()
	pc := newPairCache(join, 6)
	var lefts, rights []*BW
	for g := int64(0); g < 6; g++ {
		lefts, rights = append(lefts, mk(g)), append(rights, mk(g))
	}
	for _, l := range lefts {
		pc.AddLeft(l, rights)
	}
	pc.evictThrough(2, 1)
	for _, l := range lefts {
		for _, r := range rights {
			_, ok := cached(pc, l.Gen, r.Gen)
			want := l.Gen > 2 && r.Gen > 1
			if ok != want {
				t.Fatalf("pair (%d,%d) cached=%v, want %v", l.Gen, r.Gen, ok, want)
			}
		}
	}
	pc.evictThrough(2, 1) // idempotent on the already-swept prefix
	if pc.Pairs() != 3*4 {
		t.Fatalf("pairs = %d, want 12", pc.Pairs())
	}
}

// TestSharedPairCacheProtocol drives the cache as several members do:
// watermarks evict by the widest member's extent, stale re-adds after a
// pause are not cached, and Merged recomputes expired pairs transiently
// with identical output.
func TestSharedPairCacheProtocol(t *testing.T) {
	join, mk := jcFixture()
	pc := newPairCache(join, 2) // narrow member
	pc.Retain(3)                // widest member wins
	var lefts, rights []*BW
	for g := int64(0); g < 6; g++ {
		l, r := mk(g), mk(g)
		lefts, rights = append(lefts, l), append(rights, r)
		pc.AddLeft(l, rights)
		pc.AddRight(r, lefts)
	}
	// Horizon 3 behind newest gen 5: generations ≤ 2 expired.
	for _, l := range lefts {
		for _, r := range rights {
			_, ok := cached(pc, l.Gen, r.Gen)
			want := l.Gen > 2 && r.Gen > 2
			if ok != want {
				t.Fatalf("pair (%d,%d) cached=%v, want %v", l.Gen, r.Gen, ok, want)
			}
		}
	}
	// A lagging member merges a window the cache expired: identical output
	// to a cache over just those windows, via transient recompute.
	lagL, lagR := lefts[1:4], rights[1:4]
	priv := newPairCache(join, 3)
	for _, l := range lagL {
		priv.AddLeft(l, lagR)
	}
	got := pc.Merged(lagL, lagR).String()
	want := priv.Merged(lagL, lagR).String()
	if got != want {
		t.Fatalf("lagging merge diverges:\nshared:\n%s\nprivate:\n%s", got, want)
	}
	pairs := pc.Pairs()
	// The recomputed stale pairs must not have been cached.
	if _, ok := cached(pc, 1, 1); ok || pc.Pairs() != pairs {
		t.Fatal("stale pairs were cached by Merged")
	}
	// And a stale add is skipped outright.
	pc.AddLeft(lefts[0], rights)
	if _, ok := cached(pc, 0, 5); ok {
		t.Fatal("stale AddLeft cached a pair behind the watermark")
	}
	// The widest member leaves: pairs beyond the narrower horizon go at
	// once.
	pc.Release(3)
	if _, ok := cached(pc, 3, 5); ok || pc.Pairs() != 4 {
		t.Fatalf("after the widest member left: pairs = %d, want 4", pc.Pairs())
	}
}

// TestJoinCacheMergedOrder pins the exact concatenation order: left-major
// over the caller's window order.
func TestJoinCacheMergedOrder(t *testing.T) {
	join, mk := jcFixture()
	pc := newPairCache(join, 2)
	lefts := []*BW{mk(0), mk(1)}
	rights := []*BW{mk(0), mk(1)}
	for _, l := range lefts {
		pc.AddLeft(l, rights)
	}
	m := pc.Merged(lefts, rights)
	var keys []string
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		keys = append(keys, fmt.Sprintf("%s-%s", row[0], row[2]))
	}
	// Pair (0,0) joins keys {0,1}∩{0,1} twice... assert monotone pair
	// blocks: lk of row i never decreases, and within equal lk the rk is
	// non-decreasing block-wise.
	lastPair := ""
	seen := map[string]bool{}
	for _, k := range keys {
		if k != lastPair && seen[k] {
			t.Fatalf("pair block %s split: %v", k, keys)
		}
		seen[k] = true
		lastPair = k
	}
}
