package kernel

import (
	"math"
	"math/rand"
	"testing"

	"datacell/internal/algebra"
	"datacell/internal/bat"
	"datacell/internal/expr"
	"datacell/internal/plan"
)

// partialAgg is a partial aggregate of the shape the merge tests feed
// Merge: one key of kind key, then count, float sum, integer sum, float
// min and string max.
func partialAgg(key bat.Kind) *plan.Aggregate {
	return aggSpec([]expr.Expr{col(0, key)},
		plan.AggSpec{Op: algebra.AggCount},
		plan.AggSpec{Op: algebra.AggSum, Arg: col(1, bat.Float)},
		plan.AggSpec{Op: algebra.AggSum, Arg: col(2, bat.Int)},
		plan.AggSpec{Op: algebra.AggMin, Arg: col(1, bat.Float)},
		plan.AggSpec{Op: algebra.AggMax, Arg: col(3, bat.Str)})
}

// mergeFloats are the float partial values: −0.0 and NaN, whose bits a
// recomputed sum or a comparison could change, among ordinary ones.
var mergeFloats = []float64{math.Copysign(0, -1), 0, math.NaN(), 0.1, -2.5, 7}

// randomPartial builds an n-row partial of agg's output schema over keys
// drawn from domain; with unique set its keys are distinct, as a real
// partial's are.
func randomPartial(rng *rand.Rand, agg *plan.Aggregate, domain []int, n int, unique bool) *bat.Chunk {
	p := bat.NewChunk(agg.Out)
	keys := rng.Perm(len(domain))
	for r := 0; r < n; r++ {
		k := domain[rng.Intn(len(domain))]
		if unique {
			if r >= len(keys) {
				break
			}
			k = domain[keys[r]]
		}
		kv := bat.IntValue(int64(k))
		if agg.Out.Kinds[0] == bat.Str {
			kv = bat.StrValue(string(rune('a' + k)))
		}
		f := func() bat.Value { return bat.FloatValue(mergeFloats[rng.Intn(len(mergeFloats))]) }
		_ = p.AppendRow(kv, bat.IntValue(int64(1+rng.Intn(4))), f(), bat.IntValue(int64(rng.Intn(9)-4)), f(),
			bat.StrValue(string(rune('p'+rng.Intn(5)))))
	}
	return p
}

// TestMergeAliasesOnlyWhatItWouldCopy: Merge is byte-identical to the
// merge plan over bat.Concat of the partials, for one to five partials
// (nil, empty and duplicate-key ones among them), −0.0 and NaN floats,
// and integer and string keys. Its key columns share the first partial's
// storage exactly when that partial's rows are the window's groups — its
// keys are distinct and no later partial adds a group; over a single
// such partial its count, integer sum and min/max columns are shared too,
// and a float sum is never shared.
func TestMergeAliasesOnlyWhatItWouldCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	shared := 0
	for _, key := range []bat.Kind{bat.Int, bat.Str} {
		agg := partialAgg(key)
		merge := plan.MergePlan(agg)
		for round := 0; round < 400; round++ {
			parts := make([]*bat.Chunk, 1+rng.Intn(5))
			var present []*bat.Chunk
			rows := 0
			firstKeys := rng.Perm(8)[:1+rng.Intn(8)]
			for i := range parts {
				if rng.Intn(6) == 0 {
					continue // a window that cached no partial
				}
				domain := firstKeys
				if len(present) > 0 && rng.Intn(3) == 0 {
					domain = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
				}
				n := rng.Intn(len(domain) + 2)
				parts[i] = randomPartial(rng, agg, domain, n, rng.Intn(5) > 0)
				present = append(present, parts[i])
				rows += parts[i].Rows()
			}
			got := Merge(merge, parts, 0)
			want := Aggregate(merge, NewView(bat.Concat(merge.Out, present, rows)), 0)
			mustSameBytes(t, got, want, "merge")
			if len(present) == 0 || present[0].Rows() == 0 {
				continue // no storage to share
			}
			first := present[0]
			wantShared := groupsAreRows(first, present)
			if isShared := colData(got.Cols[0]) == colData(first.Cols[0]); isShared != wantShared {
				t.Fatalf("%v keys, round %d: keys shared = %v, want %v\npartials: %v\nmerged: %v",
					key, round, isShared, wantShared, present, got)
			}
			if wantShared {
				shared++
			}
			for _, p := range present {
				if p.Rows() > 0 && colData(got.Cols[2]) == colData(p.Cols[2]) {
					t.Fatalf("%v keys, round %d: the float sum shares a partial's storage", key, round)
				}
			}
			single := wantShared && len(present) == 1
			for _, c := range []int{1, 3, 4, 5} {
				if isShared := colData(got.Cols[c]) == colData(first.Cols[c]); isShared != single {
					t.Fatalf("%v keys, round %d: column %d shared = %v, want %v", key, round, c, isShared, single)
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no round shared its keys: the test does not exercise sharing")
	}
}

// groupsAreRows reports whether first's keys are distinct and every key
// of every partial is one of them.
func groupsAreRows(first *bat.Chunk, parts []*bat.Chunk) bool {
	seen := map[bat.Value]bool{}
	for r := 0; r < first.Rows(); r++ {
		k := first.Cols[0].Get(r)
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	for _, p := range parts {
		for r := 0; r < p.Rows(); r++ {
			if !seen[p.Cols[0].Get(r)] {
				return false
			}
		}
	}
	return true
}

// TestMergeAllocs: a warm merge of four 64-group partials, the oldest
// holding every group, allocates only its output — the chunk, its column
// slice and each aggregate vector it does not share (the vector and its
// boxed slice header) — and nothing for its run list, dense inputs,
// grouping or keys. Over that partial alone it shares all but the float
// sum.
func TestMergeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	agg := aggSpec([]expr.Expr{col(0, bat.Int)},
		plan.AggSpec{Op: algebra.AggCount},
		plan.AggSpec{Op: algebra.AggSum, Arg: col(1, bat.Float)},
		plan.AggSpec{Op: algebra.AggMax, Arg: col(2, bat.Int)})
	merge := plan.MergePlan(agg)
	rng := rand.New(rand.NewSource(7))
	parts := make([]*bat.Chunk, 4)
	for i := range parts {
		p := bat.NewChunk(agg.Out)
		for _, k := range rng.Perm(64)[:64-12*i] {
			_ = p.AppendRow(bat.IntValue(int64(k)), bat.IntValue(int64(1+rng.Intn(9))),
				bat.FloatValue(float64(rng.Intn(400))/4), bat.IntValue(int64(rng.Intn(100))))
		}
		parts[i] = p
	}
	for _, c := range []struct {
		name     string
		parts    []*bat.Chunk
		unshared int // aggregate vectors the merge computes
	}{
		{"four partials", parts, 3},
		{"one partial", parts[:1], 1},
	} {
		out := Merge(merge, c.parts, 0) // warm the pools
		if colData(out.Cols[0]) != colData(c.parts[0].Cols[0]) {
			t.Fatalf("%s: the merged keys do not share the oldest partial's", c.name)
		}
		allocs := testing.AllocsPerRun(100, func() { Merge(merge, c.parts, 0) })
		t.Logf("%s: %.0f allocations per warm merge", c.name, allocs)
		if want := float64(2 + 2*c.unshared); allocs > want {
			t.Errorf("%s: a warm merge allocates %.0f times, want <= %.0f (chunk, column slice, %d aggregate vectors)",
				c.name, allocs, want, c.unshared)
		}
	}
}
