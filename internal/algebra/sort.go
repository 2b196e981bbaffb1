package algebra

import (
	"sort"

	"datacell/internal/bat"
)

// SortKey describes one ORDER BY key: the column vector and direction.
type SortKey struct {
	Col  bat.Vector
	Desc bool
}

// Order returns the positions covered by sel, stably ordered by the sort
// keys (first key most significant). The result is an index list usable
// with Gather; it is not a candidate list, since it is not ascending.
func Order(keys []SortKey, sel Sel, n int) []int32 {
	idx := make([]int32, 0, SelLen(sel, n))
	forSel(sel, n, func(i int32) { idx = append(idx, i) })
	if len(keys) == 0 {
		return idx
	}
	cmps := make([]func(a, b int32) int, len(keys))
	for k, key := range keys {
		cmps[k] = comparator(key.Col, key.Desc)
	}
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := idx[x], idx[y]
		for _, cmp := range cmps {
			if c := cmp(a, b); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return idx
}

// comparator builds a per-column positional comparator with the type
// switch hoisted out of the sort loop.
func comparator(v bat.Vector, desc bool) func(a, b int32) int {
	var cmp func(a, b int32) int
	switch xs := v.(type) {
	case bat.Ints:
		cmp = func(a, b int32) int { return cmpOrd(xs[a], xs[b]) }
	case bat.Times:
		cmp = func(a, b int32) int { return cmpOrd(xs[a], xs[b]) }
	case bat.Floats:
		cmp = func(a, b int32) int { return cmpOrd(xs[a], xs[b]) }
	case bat.Strs:
		cmp = func(a, b int32) int { return cmpOrd(xs[a], xs[b]) }
	case bat.Bools:
		cmp = func(a, b int32) int { return b2i(xs[a]) - b2i(xs[b]) }
	default:
		panic("algebra: sort on unknown vector")
	}
	if desc {
		inner := cmp
		cmp = func(a, b int32) int { return -inner(a, b) }
	}
	return cmp
}

func cmpOrd[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
