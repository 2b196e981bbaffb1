package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"datacell/internal/bat"
)

func ints(xs ...int64) bat.Ints { return bat.Ints(xs) }

func selEqual(a, b Sel) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSelectOps(t *testing.T) {
	v := ints(5, 1, 9, 5, 3)
	cases := []struct {
		op   CmpOp
		c    int64
		want Sel
	}{
		{EQ, 5, Sel{0, 3}},
		{NE, 5, Sel{1, 2, 4}},
		{LT, 5, Sel{1, 4}},
		{LE, 5, Sel{0, 1, 3, 4}},
		{GT, 5, Sel{2}},
		{GE, 5, Sel{0, 2, 3}},
	}
	for _, c := range cases {
		got := Select(v, nil, c.op, bat.IntValue(c.c))
		if !selEqual(got, c.want) {
			t.Errorf("Select %s %d = %v, want %v", c.op, c.c, got, c.want)
		}
	}
}

func TestSelectWithCandidates(t *testing.T) {
	v := ints(5, 1, 9, 5, 3)
	got := Select(v, Sel{0, 2, 4}, GE, bat.IntValue(4))
	if !selEqual(got, Sel{0, 2}) {
		t.Errorf("Select with candidates = %v", got)
	}
}

func TestSelectFloatsStrsBools(t *testing.T) {
	f := bat.Floats{1.5, 2.5, 3.5}
	if got := Select(f, nil, GT, bat.FloatValue(2.0)); !selEqual(got, Sel{1, 2}) {
		t.Errorf("float select = %v", got)
	}
	s := bat.Strs{"b", "a", "c"}
	if got := Select(s, nil, LE, bat.StrValue("b")); !selEqual(got, Sel{0, 1}) {
		t.Errorf("string select = %v", got)
	}
	b := bat.Bools{true, false, true}
	if got := Select(b, nil, EQ, bat.BoolValue(true)); !selEqual(got, Sel{0, 2}) {
		t.Errorf("bool select = %v", got)
	}
	if got := Select(b, nil, NE, bat.BoolValue(true)); !selEqual(got, Sel{1}) {
		t.Errorf("bool NE select = %v", got)
	}
	if got := Select(b, nil, LT, bat.BoolValue(true)); !selEqual(got, Sel{1}) {
		t.Errorf("bool LT select = %v", got)
	}
}

func TestSelectTimes(t *testing.T) {
	v := bat.Times{100, 200, 300}
	if got := Select(v, nil, GE, bat.TimeValue(200)); !selEqual(got, Sel{1, 2}) {
		t.Errorf("time select = %v", got)
	}
}

func TestSelSetOps(t *testing.T) {
	a, b := Sel{1, 3, 5}, Sel{3, 4, 5, 7}
	if got := SelIntersect(a, b); !selEqual(got, Sel{3, 5}) {
		t.Errorf("intersect = %v", got)
	}
	if got := SelIntersect(nil, b); !selEqual(got, b) {
		t.Errorf("intersect nil = %v", got)
	}
	if got := SelUnion(a, b, 8); !selEqual(got, Sel{1, 3, 4, 5, 7}) {
		t.Errorf("union = %v", got)
	}
	if got := SelUnion(a, nil, 8); got != nil {
		t.Errorf("union with nil should be nil (all), got %v", got)
	}
	if got := SelComplement(a, 6); !selEqual(got, Sel{0, 2, 4}) {
		t.Errorf("complement = %v", got)
	}
	if got := SelComplement(nil, 3); len(got) != 0 {
		t.Errorf("complement of all = %v", got)
	}
}

func TestAllSelAndSelLen(t *testing.T) {
	if got := AllSel(3); !selEqual(got, Sel{0, 1, 2}) {
		t.Errorf("AllSel = %v", got)
	}
	if SelLen(nil, 7) != 7 || SelLen(Sel{1}, 7) != 1 {
		t.Error("SelLen wrong")
	}
}

// naiveSelect is the row-at-a-time reference over a whole int column.
func naiveSelect(xs []int64, op CmpOp, c int64) Sel { return naiveCmp(xs, nil, op, c) }

// Property: bulk Select ≡ naive row-at-a-time select for every operator.
func TestQuickSelectMatchesNaive(t *testing.T) {
	f := func(xs []int64, c int64, opRaw uint8) bool {
		op := CmpOp(opRaw % 6)
		// Shrink the domain so matches actually occur.
		for i := range xs {
			xs[i] %= 16
		}
		c %= 16
		got := Select(bat.Ints(xs), nil, op, bat.IntValue(c))
		want := naiveSelect(xs, op, c)
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		return selEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// naiveCmp is the row-at-a-time reference for one comparison over the
// candidates of sel (nil = all rows).
func naiveCmp[T int64 | float64 | string](xs []T, sel Sel, op CmpOp, c T) Sel {
	out := Sel{}
	if sel == nil {
		sel = AllSel(len(xs))
	}
	for _, i := range sel {
		x, keep := xs[i], false
		switch op {
		case EQ:
			keep = x == c
		case NE:
			keep = x != c
		case LT:
			keep = x < c
		case LE:
			keep = x <= c
		case GT:
			keep = x > c
		case GE:
			keep = x >= c
		}
		if keep {
			out = append(out, i)
		}
	}
	return out
}

// naiveBool is the reference for boolean selections (false < true).
func naiveBool(xs []bool, sel Sel, op CmpOp, c bool) Sel {
	ys := make([]int64, len(xs))
	for i, x := range xs {
		ys[i] = int64(b2i(x))
	}
	return naiveCmp(ys, sel, op, int64(b2i(c)))
}

// selCoverage records, per operator and access path, which selectivity
// classes a differential sweep reached: none, about half, every row.
type selCoverage map[string]*[3]bool

func (cv selCoverage) note(op CmpOp, withSel bool, kept, cands int) {
	key := fmt.Sprintf("%s/cands=%v", op, withSel)
	if cv[key] == nil {
		cv[key] = new([3]bool)
	}
	switch {
	case kept == 0:
		cv[key][0] = true
	case kept == cands:
		cv[key][2] = true
	case 10*kept >= 4*cands && 10*kept <= 6*cands:
		cv[key][1] = true
	}
}

// selectDiffCase is one column, the constants it is compared against,
// and a reference select.
type selectDiffCase struct {
	family string // coverage is asserted per family; "" opts out
	v      bat.Vector
	consts []bat.Value
}

func (tc selectDiffCase) ref(sel Sel, op CmpOp, c bat.Value) Sel {
	switch xs := tc.v.(type) {
	case bat.Ints:
		return naiveCmp(xs, sel, op, c.I)
	case bat.Times:
		return naiveCmp(xs, sel, op, c.I)
	case bat.Floats:
		return naiveCmp(xs, sel, op, c.F)
	case bat.Strs:
		return naiveCmp(xs, sel, op, c.S)
	case bat.Bools:
		return naiveBool(xs, sel, op, c.B)
	}
	panic("unknown vector")
}

// twoValued returns a column of n rows holding a on half of them and b
// on the other half, interleaved (not sorted), and a column holding a on
// every row. Comparing both against a, b and constants outside the range
// reaches 0%, 50% and 100% selectivity for every operator.
func twoValued[T any](n int, a, b T) (mixed, uniform []T) {
	mixed, uniform = make([]T, n), make([]T, n)
	for i := range mixed {
		mixed[i], uniform[i] = a, a
		if (7*i)%4 < 2 {
			mixed[i] = b
		}
	}
	return mixed, uniform
}

func selectDiffCases() []selectDiffCase {
	const n = 200
	inf, nan := math.Inf(1), math.NaN()
	fv := func(xs ...float64) []bat.Value {
		out := make([]bat.Value, len(xs))
		for i, x := range xs {
			out[i] = bat.FloatValue(x)
		}
		return out
	}
	var cases []selectDiffCase
	add := func(family string, consts []bat.Value, vs ...bat.Vector) {
		for _, v := range vs {
			cases = append(cases, selectDiffCase{family, v, consts})
		}
	}
	fm, fu := twoValued(n, -1.5, 2.5)
	add("floats", fv(-1.5, 2.5, -inf, inf, 0), bat.Floats(fm), bat.Floats(fu))
	// NaN and infinite rows and constants: a NaN never satisfies EQ or
	// an ordered comparison and always satisfies NE.
	specials := append(bat.Floats(nil), fm...)
	for i := 0; i < n; i += 17 {
		specials[i] = []float64{nan, inf, -inf}[i%3]
	}
	add("", fv(-1.5, 2.5, -inf, inf, nan), specials)
	// The int family spans the whole int64 range, so no constant lies
	// outside it: uniform columns at both extremes stand in.
	im, iu := twoValued[int64](n, math.MinInt64, math.MaxInt64)
	_, iv := twoValued[int64](n, math.MaxInt64, math.MinInt64)
	add("ints", []bat.Value{bat.IntValue(math.MinInt64), bat.IntValue(math.MaxInt64), bat.IntValue(0)},
		bat.Ints(im), bat.Ints(iu), bat.Ints(iv))
	tm, tu := twoValued[int64](n, -7, 1<<40)
	add("times", []bat.Value{bat.TimeValue(-7), bat.TimeValue(1 << 40), bat.TimeValue(-8), bat.TimeValue(1<<40 + 1)},
		bat.Times(tm), bat.Times(tu))
	sm, su := twoValued(n, "apple", "apples")
	add("strs", []bat.Value{bat.StrValue("apple"), bat.StrValue("apples"), bat.StrValue(""), bat.StrValue("b")},
		bat.Strs(sm), bat.Strs(su))
	bm, bu := twoValued(n, false, true)
	_, bt := twoValued(n, true, false)
	add("bools", []bat.Value{bat.BoolValue(false), bat.BoolValue(true)}, bat.Bools(bm), bat.Bools(bu), bat.Bools(bt))
	return cases
}

// TestSelectDifferential checks every select kernel against the naive
// loop for every operator, with and without a candidate list, and asserts
// that each family's sweep reached 0%, about 50% and 100% selectivity on
// every operator and access path.
func TestSelectDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cov := map[string]selCoverage{}
	for _, tc := range selectDiffCases() {
		n := tc.v.Len()
		cands := Sel{}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				cands = append(cands, int32(i))
			}
		}
		if cov[tc.family] == nil {
			cov[tc.family] = selCoverage{}
		}
		for _, sel := range []Sel{nil, cands, {}} {
			for op := EQ; op <= GE; op++ {
				for _, c := range tc.consts {
					got := Select(tc.v, sel, op, c)
					want := tc.ref(sel, op, c)
					if got == nil || !selEqual(got, want) {
						t.Fatalf("%s %s %s %v (cands=%v): got %v, want %v",
							tc.family, tc.v.Kind(), op, c, sel != nil, got, want)
					}
					if sel == nil || len(sel) > 0 {
						cov[tc.family].note(op, sel != nil, len(got), SelLen(sel, n))
					}
				}
			}
		}
	}
	for family, fc := range cov {
		if family == "" {
			continue
		}
		if len(fc) != 12 {
			t.Errorf("%s: %d operator/path combinations swept, want 12", family, len(fc))
		}
		for key, hit := range fc {
			if *hit != [3]bool{true, true, true} {
				t.Errorf("%s %s: selectivity classes 0/50/100%% reached %v", family, key, *hit)
			}
		}
	}
}

// TestSelectViewPassesAndLends: SelectView returns nil when every row of
// an unselected vector qualifies (Select still returns the full list),
// an exactly sized list without a Scratch, and with one a list that
// Release poisons in test binaries — no position a vector has — so a
// read after release cannot pass for a valid selection.
func TestSelectViewPassesAndLends(t *testing.T) {
	v := bat.Ints{5, 1, 7, 3, 9}
	if got := SelectView(v, nil, GE, bat.IntValue(0), nil); got != nil {
		t.Fatalf("all-pass SelectView = %v, want nil", got)
	}
	if got := Select(v, nil, GE, bat.IntValue(0)); !selEqual(got, Sel{0, 1, 2, 3, 4}) {
		t.Fatalf("all-pass Select = %v, want the full list", got)
	}
	if got := SelectView(v, Sel{0, 1, 2, 3, 4}, GE, bat.IntValue(0), nil); !selEqual(got, Sel{0, 1, 2, 3, 4}) {
		t.Fatalf("SelectView under a selection = %v, want the full list", got)
	}
	if got := SelectView(v, nil, GT, bat.IntValue(100), nil); got == nil || len(got) != 0 {
		t.Fatalf("none-pass SelectView = %#v, want an empty non-nil list", got)
	}
	var s Scratch
	lent := SelectView(v, nil, GT, bat.IntValue(4), &s)
	if !selEqual(lent, Sel{0, 2, 4}) {
		t.Fatalf("SelectView into a Scratch = %v", lent)
	}
	if got := SelectView(v, lent, LT, bat.IntValue(8), &s); !selEqual(got, Sel{0, 2}) {
		t.Fatalf("SelectView into a Scratch under a lent selection = %v", got)
	}
	s.Release()
	if len(s.bufs) != 0 {
		t.Fatalf("released Scratch still lends %d buffers", len(s.bufs))
	}
	if poison {
		for _, p := range lent {
			if p != poisonPos {
				t.Fatalf("released selection reads %v, want poison", lent)
			}
		}
	}
}
