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

// TestJoinCacheEvictionOnSlide drives the ring protocol — add a new basic
// window per slide, evict the expired one — and checks the pair set stays
// exactly the live cross product, with evicted results' buffers released
// eagerly.
func TestJoinCacheEvictionOnSlide(t *testing.T) {
	join, mk := jcFixture()
	jc := NewJoinCache(join)
	const parts = 3
	var lefts, rights []*BW
	for g := int64(0); g < 8; g++ {
		l, r := mk(g), mk(g)
		lefts, rights = append(lefts, l), append(rights, r)
		jc.AddLeft(l, rights)
		jc.AddRight(r, lefts)
		if len(lefts) > parts {
			evL, evR := lefts[0], rights[0]
			lefts, rights = lefts[1:], rights[1:]
			c, ok := jc.Get(evL.Gen, evR.Gen)
			if !ok {
				t.Fatalf("gen %d: pair (%d,%d) missing before eviction", g, evL.Gen, evR.Gen)
			}
			jc.EvictLeft(evL.Gen)
			jc.EvictRight(evR.Gen)
			if c.Cols != nil {
				t.Fatalf("gen %d: evicted pair result still holds its buffers", g)
			}
		}
		want := len(lefts) * len(rights)
		if jc.Pairs() != want {
			t.Fatalf("gen %d: pairs = %d, want %d (live cross product)", g, jc.Pairs(), want)
		}
		for _, l := range lefts {
			for _, r := range rights {
				if _, ok := jc.Get(l.Gen, r.Gen); !ok {
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

	forward := NewJoinCache(join)
	for _, l := range lefts {
		forward.AddLeft(l, rights)
	}
	backward := NewJoinCache(join)
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
	if a == "" || forward.Pairs() != 9 {
		t.Fatalf("unexpected merge state: pairs=%d", forward.Pairs())
	}
}

// TestJoinCacheNoRecompute: surviving pairs must never be re-joined —
// Computed counts only first-time pair evaluations, staying flat across
// redundant Adds and any number of Merged calls.
func TestJoinCacheNoRecompute(t *testing.T) {
	join, mk := jcFixture()
	jc := NewJoinCache(join)
	lefts := []*BW{mk(0), mk(1)}
	rights := []*BW{mk(0), mk(1)}
	for _, l := range lefts {
		jc.AddLeft(l, rights)
	}
	if jc.Computed() != 4 {
		t.Fatalf("computed = %d, want 4", jc.Computed())
	}
	for _, r := range rights {
		jc.AddRight(r, lefts) // every pair already cached
	}
	for i := 0; i < 3; i++ {
		_ = jc.Merged(lefts, rights)
	}
	if jc.Computed() != 4 {
		t.Fatalf("computed grew to %d on surviving pairs", jc.Computed())
	}
	// A slide: one eviction, one new window per side. Only the new row and
	// column of pairs are computed.
	jc.EvictLeft(0)
	jc.EvictRight(0)
	l2, r2 := mk(2), mk(2)
	lefts, rights = []*BW{lefts[1], l2}, []*BW{rights[1], r2}
	jc.AddLeft(l2, rights[:1])
	jc.AddRight(r2, lefts)
	if jc.Computed() != 4+3 {
		t.Fatalf("computed = %d after slide, want 7", jc.Computed())
	}
	if jc.Pairs() != 4 {
		t.Fatalf("pairs = %d after slide, want 4", jc.Pairs())
	}
}

// TestJoinCacheEvictThrough: watermark eviction sweeps every generation
// at or below the thresholds and tolerates already-evicted prefixes.
func TestJoinCacheEvictThrough(t *testing.T) {
	join, mk := jcFixture()
	jc := NewJoinCache(join)
	var lefts, rights []*BW
	for g := int64(0); g < 6; g++ {
		lefts, rights = append(lefts, mk(g)), append(rights, mk(g))
	}
	for _, l := range lefts {
		jc.AddLeft(l, rights)
	}
	jc.EvictThrough(2, 1)
	for _, l := range lefts {
		for _, r := range rights {
			_, ok := jc.Get(l.Gen, r.Gen)
			want := l.Gen > 2 && r.Gen > 1
			if ok != want {
				t.Fatalf("pair (%d,%d) cached=%v, want %v", l.Gen, r.Gen, ok, want)
			}
		}
	}
	jc.EvictThrough(2, 1) // idempotent on the already-swept prefix
	if jc.Pairs() != 3*4 {
		t.Fatalf("pairs = %d, want 12", jc.Pairs())
	}
}

// TestSharedPairCacheProtocol drives the group-level wrapper: per-member
// evictions are no-ops, watermarks evict by the widest member's extent,
// stale re-adds after a pause are not cached, and MergedEnsure recomputes
// expired pairs transiently with identical output.
func TestSharedPairCacheProtocol(t *testing.T) {
	join, mk := jcFixture()
	pc := NewSharedPairCache(join)
	pc.Retain(2) // narrow member
	pc.Retain(3) // widest member wins
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
			_, ok := pc.jc.Get(l.Gen, r.Gen)
			want := l.Gen > 2 && r.Gen > 2
			if ok != want {
				t.Fatalf("pair (%d,%d) cached=%v, want %v", l.Gen, r.Gen, ok, want)
			}
		}
	}
	// A lagging member merges a window the cache expired: identical output
	// to a private cache over the same windows, via transient recompute.
	lagL, lagR := lefts[1:4], rights[1:4]
	priv := NewJoinCache(join)
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
	if pc.Pairs() != pairs || func() bool { _, ok := pc.jc.Get(1, 1); return ok }() {
		t.Fatal("stale pairs were cached by MergedEnsure")
	}
	// And a stale Add is skipped outright.
	pc.AddLeft(lefts[0], rights)
	if _, ok := pc.jc.Get(0, 5); ok {
		t.Fatal("stale AddLeft cached a pair behind the watermark")
	}
}

// TestJoinCacheMergedOrder pins the exact concatenation order: left-major
// over the caller's window order.
func TestJoinCacheMergedOrder(t *testing.T) {
	join, mk := jcFixture()
	jc := NewJoinCache(join)
	lefts := []*BW{mk(0), mk(1)}
	rights := []*BW{mk(0), mk(1)}
	for _, l := range lefts {
		jc.AddLeft(l, rights)
	}
	m := jc.Merged(lefts, rights)
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
