package algebra

import (
	"math/bits"
	"sync"

	"datacell/internal/bat"
)

// Grouping is the result of a Group call: a dense group id per qualifying
// input row, the number of groups, and one representative input position
// per group (in first-appearance order), from which the key columns can be
// reconstructed with Fetch.
type Grouping struct {
	// GIDs[k] is the group of the k-th qualifying row (the k-th row of
	// sel, or row k if sel is nil).
	GIDs []int32
	// N is the number of distinct groups.
	N int
	// Repr[g] is the input position of the first row of group g. It is
	// never nil — an empty grouping has an empty Repr — so Fetch(key,
	// Repr) reconstructs exactly the group keys even then (a nil
	// candidate list would mean "all rows").
	Repr Sel
}

// Group computes a dense grouping of the rows covered by sel over one or
// more key columns. With no key columns it returns a single group covering
// all rows (the SQL "aggregate without GROUP BY" case), or zero groups if
// the input is empty.
func Group(keys []bat.Vector, sel Sel, n int) Grouping {
	return GroupHint(keys, sel, n, defaultGroupHint)
}

// defaultGroupHint is the historical fixed capacity of the grouping hash
// tables — the pre-sizing baseline when no cardinality estimate exists.
const defaultGroupHint = 64

// GroupHint is Group with an explicit hash-table capacity hint, fed by
// observed per-window group cardinality (the factory remembers each
// pipeline's last output size). The hint only pre-sizes the group table —
// group ids, representatives and ordering are identical for every hint, so
// callers may pass any estimate without affecting results.
//
// Keys of the integer family (Int, Time) — one column or several — group
// through an open-addressing table (groupInts); a single string key uses a
// string map, and any composite holding a float, string or bool column
// goes through the binary key encoding.
func GroupHint(keys []bat.Vector, sel Sel, n, hint int) Grouping {
	rows := SelLen(sel, n)
	if hint <= 0 {
		hint = defaultGroupHint
	}
	if len(keys) == 0 {
		g := Grouping{GIDs: make([]int32, rows), Repr: Sel{}}
		if rows > 0 {
			g.N = 1
			g.Repr = Sel{firstPos(sel)}
		}
		return g
	}
	if allIntKind(keys) {
		return groupInts(keys, sel, rows, hint)
	}
	if len(keys) == 1 {
		if xs, ok := keys[0].(bat.Strs); ok {
			return groupStr(xs, sel, rows, hint)
		}
	}
	return groupComposite(keys, sel, rows, hint)
}

func firstPos(sel Sel) int32 {
	if sel == nil {
		return 0
	}
	return sel[0]
}

func allIntKind(keys []bat.Vector) bool {
	for _, k := range keys {
		if !isIntKind(k) {
			return false
		}
	}
	return true
}

// hashScratch recycles the per-row hash buffers of groupInts: they live
// only for one Group call, and the shared aggregate path groups every
// basic window, so a fresh buffer per call would be pure garbage.
var hashScratch = sync.Pool{New: func() any { return new([]uint64) }}

// hashMul is the 64-bit golden-ratio multiplier: one multiply spreads a
// key's low-order differences into the high bits the table indexes by.
const hashMul = 0x9E3779B97F4A7C15

// hashInts folds one integer key column into the per-row hashes h (one
// entry per qualifying row). first starts the fold; later columns mix
// into the running hash.
func hashInts(h []uint64, xs []int64, sel Sel, first bool) {
	switch {
	case sel == nil && first:
		for k := range h {
			h[k] = uint64(xs[k]) * hashMul
		}
	case sel == nil:
		for k := range h {
			h[k] = (bits.RotateLeft64(h[k], 29) ^ uint64(xs[k])) * hashMul
		}
	case first:
		for k, i := range sel {
			h[k] = uint64(xs[i]) * hashMul
		}
	default:
		for k, i := range sel {
			h[k] = (bits.RotateLeft64(h[k], 29) ^ uint64(xs[i])) * hashMul
		}
	}
}

// groupTable is an open-addressing (linear probing) table from key hash
// to group id. Slots hold id+1 (0 = empty) and are indexed by the hash's
// top bits; each group's full hash is kept so that growing never rehashes
// keys, and so that most probes reject a foreign group without touching
// the key columns.
type groupTable struct {
	slots []int32
	shift uint     // 64 - log2(len(slots))
	hash  []uint64 // hash[g] of group g
}

func newGroupTable(capacity int) groupTable {
	// Load factor ≤ 1/2, at least 16 slots.
	capacity = max(capacity, 8)
	logSize := bits.Len(uint(2*capacity - 1))
	return groupTable{
		slots: make([]int32, 1<<logSize),
		shift: uint(64 - logSize),
		hash:  make([]uint64, 0, capacity),
	}
}

// add registers a new group with hash h at the given empty slot and
// returns its id, growing the table when it passes half full.
func (t *groupTable) add(slot uint64, h uint64) int32 {
	id := int32(len(t.hash))
	t.slots[slot] = id + 1
	t.hash = append(t.hash, h)
	if 2*len(t.hash) > len(t.slots) {
		t.grow()
	}
	return id
}

func (t *groupTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	t.shift--
	mask := uint64(len(t.slots) - 1)
	for g, h := range t.hash {
		s := h >> t.shift
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(g) + 1
	}
}

// groupInts groups rows over integer-family key columns (any number). The
// per-row hashes are computed one column at a time into a pooled scratch
// buffer, then one probe pass assigns the groups.
func groupInts(keys []bat.Vector, sel Sel, rows, hint int) Grouping {
	cols := make([][]int64, len(keys))
	for c, k := range keys {
		cols[c] = bat.AsInts(k)
	}
	bp := hashScratch.Get().(*[]uint64)
	if cap(*bp) < rows {
		*bp = make([]uint64, rows)
	}
	h := (*bp)[:rows]
	for c, xs := range cols {
		hashInts(h, xs, sel, c == 0)
	}
	t := newGroupTable(min(hint, rows))
	g := Grouping{GIDs: make([]int32, rows), Repr: make(Sel, 0, min(hint, rows))}
	t.probe(&g, cols, sel, h)
	g.N = len(t.hash)
	hashScratch.Put(bp)
	return g
}

// probe assigns each qualifying row its group, registering new groups in
// first-appearance order. A candidate group matches when its hash does
// and the key columns agree at its representative row. A one-column hash
// is the key times an odd constant modulo 2⁶⁴ — a bijection — so there
// equal hashes already mean equal keys and the column is never read back.
func (t *groupTable) probe(g *Grouping, cols [][]int64, sel Sel, h []uint64) {
	single := len(cols) == 1
	for k, hk := range h {
		i := int32(k)
		if sel != nil {
			i = sel[k]
		}
		mask := uint64(len(t.slots) - 1)
		s := hk >> t.shift
		for {
			id := t.slots[s]
			if id == 0 {
				g.GIDs[k] = t.add(s, hk)
				g.Repr = append(g.Repr, i)
				break
			}
			if t.hash[id-1] == hk && (single || rowsEqual(cols, g.Repr[id-1], i)) {
				g.GIDs[k] = id - 1
				break
			}
			s = (s + 1) & mask
		}
	}
}

func rowsEqual(cols [][]int64, a, b int32) bool {
	for _, xs := range cols {
		if xs[a] != xs[b] {
			return false
		}
	}
	return true
}

func groupStr(xs []string, sel Sel, rows, hint int) Grouping {
	g := Grouping{GIDs: make([]int32, 0, rows), Repr: Sel{}}
	ids := make(map[string]int32, min(hint, rows))
	eachSel(xs, sel, func(i int32, x string) {
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

// groupComposite groups over keys that include a float, string or bool
// column, through the binary key encoding.
func groupComposite(keys []bat.Vector, sel Sel, rows, hint int) Grouping {
	g := Grouping{GIDs: make([]int32, 0, rows), Repr: Sel{}}
	ids := make(map[string]int32, min(hint, rows))
	var buf []byte
	n := keys[0].Len()
	forSel(sel, n, func(i int32) {
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
