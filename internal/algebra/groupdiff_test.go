package algebra

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"datacell/internal/bat"
)

// The map-based groupers below are the reference the open-addressing
// integer table is checked against: a single integer key through a
// map[int64]int32, anything else through the binary key encoding and a
// map[string]int32.

func refGroup(keys []bat.Vector, sel Sel, n int) Grouping {
	rows := SelLen(sel, n)
	if len(keys) == 1 && isIntKind(keys[0]) {
		return refGroupInt(bat.AsInts(keys[0]), sel, rows)
	}
	return refGroupComposite(keys, sel, rows)
}

func refGroupInt(xs []int64, sel Sel, rows int) Grouping {
	g := Grouping{GIDs: make([]int32, 0, rows)}
	ids := make(map[int64]int32)
	eachSel(xs, sel, func(i int32, x int64) {
		id, ok := ids[x]
		if !ok {
			id = int32(g.N)
			ids[x] = id
			g.N++
			g.Repr = append(g.Repr, i)
		}
		g.GIDs = append(g.GIDs, id)
	})
	return g
}

func refGroupComposite(keys []bat.Vector, sel Sel, rows int) Grouping {
	g := Grouping{GIDs: make([]int32, 0, rows)}
	ids := make(map[string]int32)
	var buf []byte
	forSel(sel, keys[0].Len(), func(i int32) {
		buf = encodeKey(buf[:0], keys, i)
		id, ok := ids[string(buf)]
		if !ok {
			id = int32(g.N)
			ids[string(buf)] = id
			g.N++
			g.Repr = append(g.Repr, i)
		}
		g.GIDs = append(g.GIDs, id)
	})
	return g
}

func sameGrouping(got, want Grouping) error {
	if got.N != want.N {
		return fmt.Errorf("N = %d, want %d", got.N, want.N)
	}
	if got.Repr == nil {
		return fmt.Errorf("Repr is nil")
	}
	if !selEqual(got.Repr, want.Repr) {
		return fmt.Errorf("Repr = %v, want %v", got.Repr, want.Repr)
	}
	if len(got.GIDs) != len(want.GIDs) {
		return fmt.Errorf("%d GIDs, want %d", len(got.GIDs), len(want.GIDs))
	}
	for k := range got.GIDs {
		if got.GIDs[k] != want.GIDs[k] {
			return fmt.Errorf("GIDs[%d] = %d, want %d", k, got.GIDs[k], want.GIDs[k])
		}
	}
	return nil
}

// diffSels returns the selections every case is grouped under: all rows,
// none, and a random sparse subset.
func diffSels(rng *rand.Rand, n int) map[string]Sel {
	sparse := Sel{}
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			sparse = append(sparse, int32(i))
		}
	}
	return map[string]Sel{"nil": nil, "empty": {}, "sparse": sparse}
}

func checkAgainstRef(t *testing.T, label string, keys []bat.Vector, rng *rand.Rand) {
	t.Helper()
	n := keys[0].Len()
	for sname, sel := range diffSels(rng, n) {
		want := refGroup(keys, sel, n)
		for _, hint := range []int{-1, 0, 1, n, 1 << 20} {
			got := GroupHint(keys, sel, n, hint)
			if err := sameGrouping(got, want); err != nil {
				t.Fatalf("%s sel=%s hint=%d: %v", label, sname, hint, err)
			}
		}
	}
}

// randIntKey draws an Int or Time column of n rows over a domain of
// roughly card distinct values.
func randIntKey(rng *rand.Rand, n, card int) bat.Vector {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(rng.Intn(card)) - int64(card/3)
	}
	if rng.Intn(2) == 0 {
		return bat.Times(xs)
	}
	return bat.Ints(xs)
}

func TestGroupDifferentialRandomInts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(600)
		width := 1 + rng.Intn(4)
		keys := make([]bat.Vector, width)
		for c := range keys {
			keys[c] = randIntKey(rng, n, 1+rng.Intn(40))
		}
		checkAgainstRef(t, fmt.Sprintf("iter %d width %d n %d", iter, width, n), keys, rng)
	}
}

func TestGroupDifferentialCollidingInts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	extremes := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, -1, 0, 1}
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(500)
		stride := int64(1) << uint(rng.Intn(40)) // multiples of a power-of-two table size
		width := 1 + rng.Intn(3)
		keys := make([]bat.Vector, width)
		for c := range keys {
			xs := make(bat.Ints, n)
			for i := range xs {
				switch rng.Intn(3) {
				case 0:
					xs[i] = extremes[rng.Intn(len(extremes))]
				case 1:
					xs[i] = -stride * int64(rng.Intn(50))
				default:
					xs[i] = stride * int64(rng.Intn(50))
				}
			}
			keys[c] = xs
		}
		checkAgainstRef(t, fmt.Sprintf("iter %d stride %d", iter, stride), keys, rng)
	}
}

// Composite keys whose full 64-bit hashes are equal but whose values
// differ: only the key comparison at the representative row can tell
// them apart.
func TestGroupDifferentialHashCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 64
	a, b := make(bat.Ints, 0, n), make(bat.Ints, 0, n)
	for len(a) < n {
		x0, x1, y0 := rng.Int63(), rng.Int63(), rng.Int63()
		h0 := func(x int64) int64 { return int64(bits.RotateLeft64(uint64(x)*hashMul, 29)) }
		y1 := x1 ^ h0(x0) ^ h0(y0)
		a = append(a, x0, y0)
		b = append(b, x1, y1)
	}
	keys := []bat.Vector{a, b}
	h := make([]uint64, len(a))
	hashInts(h, a, nil, true)
	hashInts(h, b, nil, false)
	for k := 0; k < len(h); k += 2 {
		if h[k] != h[k+1] {
			t.Fatalf("rows %d and %d were built to collide but hash differently", k, k+1)
		}
	}
	g := Group(keys, nil, len(a))
	if g.N != len(a) {
		t.Fatalf("%d groups over %d distinct colliding keys", g.N, len(a))
	}
	checkAgainstRef(t, "colliding hashes", keys, rng)
}

func TestGroupDifferentialFallbackComposites(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	strs := []string{"", "a", "b", "ab", "\x00"}
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(400)
		width := 1 + rng.Intn(4)
		keys := make([]bat.Vector, width)
		for c := range keys {
			switch rng.Intn(4) {
			case 0:
				xs := make(bat.Floats, n)
				for i := range xs {
					xs[i] = float64(rng.Intn(6)) / 4
				}
				keys[c] = xs
			case 1:
				xs := make(bat.Strs, n)
				for i := range xs {
					xs[i] = strs[rng.Intn(len(strs))]
				}
				keys[c] = xs
			case 2:
				xs := make(bat.Bools, n)
				for i := range xs {
					xs[i] = rng.Intn(2) == 0
				}
				keys[c] = xs
			default:
				keys[c] = randIntKey(rng, n, 8)
			}
		}
		checkAgainstRef(t, fmt.Sprintf("iter %d", iter), keys, rng)
	}
}

// An empty selection yields zero groups with an empty, non-nil Repr, so
// reconstructing the keys at Repr yields no rows rather than all of them.
func TestGroupEmptySelection(t *testing.T) {
	cases := map[string][]bat.Vector{
		"none":      nil,
		"int":       {ints(4, 5, 4)},
		"time":      {bat.Times{4, 5, 4}},
		"ints":      {ints(4, 5, 4), bat.Times{1, 1, 2}},
		"str":       {bat.Strs{"a", "b", "a"}},
		"composite": {ints(4, 5, 4), bat.Floats{1, 2, 1}},
	}
	for name, keys := range cases {
		g := Group(keys, Sel{}, 3)
		if g.N != 0 || len(g.GIDs) != 0 {
			t.Errorf("%s: grouping over Sel{} = %+v, want no groups", name, g)
		}
		if g.Repr == nil || len(g.Repr) != 0 {
			t.Errorf("%s: Repr = %#v, want empty non-nil", name, g.Repr)
		}
		for _, k := range keys {
			if got := Fetch(k, g.Repr).Len(); got != 0 {
				t.Errorf("%s: Fetch(key, Repr) has %d rows, want 0", name, got)
			}
		}
	}
}
