package algebra

import (
	"math/bits"
	"sync"

	"datacell/internal/bat"
)

// Grouping is the result of a Group call: a dense group id per qualifying
// input row, the number of groups, and one representative input position
// per group (in first-appearance order), from which the key columns can be
// reconstructed with Fetch. Within derives from it the grouping of a
// subset of its rows that keeps its ids: several selections over the same
// rows then share one Group call.
type Grouping struct {
	// GIDs[k] is the group of the k-th qualifying row (the k-th row of
	// sel, or row k if sel is nil). A grouping Within a selection reads
	// it by row position instead, through At.
	GIDs []int32
	// N is the number of distinct groups: the size of the id space the
	// aggregate kernels accumulate in.
	N int
	// Repr[g] is the input position of the first row of group g — of the
	// g-th group to appear when Order is set. It is never nil — an empty
	// grouping has an empty Repr — so Fetch(key, Repr) reconstructs
	// exactly the group keys even then (a nil candidate list would mean
	// "all rows").
	Repr Sel
	// At, when set, lists the qualifying rows by position: the k-th is
	// row At[k], of group GIDs[At[k]]. The aggregate kernels read values
	// at the same positions, so their sel must be At.
	At Sel
	// Order, when set, lists the groups present in the order they first
	// appear over the qualifying rows; the groups of the id space that do
	// not appear are absent. Nil means every group appears, in id order.
	Order []int32

	// box, reprBox and orderBox hold GIDs', Repr's and Order's pooled
	// storage until Release (nil for storage the grouping borrows).
	box, reprBox, orderBox *[]int32
}

// due returns the j-th group to appear over the qualifying rows, or −1
// after the last.
func (g *Grouping) due(j int) int32 {
	switch {
	case g.Order != nil && j < len(g.Order):
		return g.Order[j]
	case g.Order == nil && j < g.N:
		return int32(j)
	}
	return -1
}

// gidScratch and reprScratch recycle the per-row group ids and the
// per-group lists (representatives, orders, first-seen marks): a
// grouping's GIDs and Repr are read only by the aggregate kernels and the
// key fetch its caller runs over it, and every basic window of a grouped
// aggregate groups afresh, so new vectors per call would be pure garbage.
// They pool apart because their sizes differ (one id per row, one entry
// per group).
var (
	gidScratch  = sync.Pool{New: func() any { return new([]int32) }}
	reprScratch = sync.Pool{New: func() any { return new([]int32) }}
)

// newGrouping starts a grouping of rows qualifying rows: pooled group ids
// of length rows (unzeroed) and an empty, non-nil pooled representative
// list with room for reprCap representatives.
func newGrouping(rows, reprCap int) Grouping {
	box := gidScratch.Get().(*[]int32)
	if cap(*box) < rows {
		*box = make([]int32, rows)
	}
	reprBox, repr := groupList(reprCap)
	return Grouping{GIDs: (*box)[:rows], Repr: repr, box: box, reprBox: reprBox}
}

// groupList returns an empty, non-nil pooled per-group list with room for
// n entries.
func groupList(n int) (*[]int32, []int32) {
	bp := reprScratch.Get().(*[]int32)
	if *bp == nil || cap(*bp) < n {
		*bp = make([]int32, 0, n)
	}
	return bp, (*bp)[:0]
}

// Release hands the grouping's pooled storage back for reuse by later
// Group and Within calls. Call it once the aggregate kernels and the key
// fetch have run, and only when nothing kept g.GIDs, g.Repr or g.Order;
// release a grouping Within g before g itself. A grouping that is never
// released is left to the garbage collector. Test binaries overwrite the
// released storage with poisonPos, so that a read after Release fails
// loudly instead of seeing a later grouping's ids.
func (g *Grouping) Release() {
	if g.box != nil {
		poisonBox(g.box)
		gidScratch.Put(g.box)
	}
	putList(g.reprBox, g.Repr)
	putList(g.orderBox, g.Order)
	*g = Grouping{}
}

// putList hands a per-group list back to its pool (nothing for a nil
// box). The list may have outgrown its box; the grown storage goes back
// instead.
func putList(box *[]int32, list []int32) {
	if box == nil {
		return
	}
	*box = list[:0]
	poisonBox(box)
	reprScratch.Put(box)
}

// Within returns the grouping of the rows at positions at under g, where
// g grouped every row of the same input (a Group call without a
// selection): the sub-grouping keeps g's ids, so the aggregate kernels
// accumulate in g's id space reading ids through at, and its Order and
// Repr list the groups at reaches, in first-appearance order over at, and
// their first rows. The scan that finds them stops once every group of g
// has appeared; when they appear in id order, Order is left nil and the
// kernels' results need no reordering. A nil at is g itself (borrowed).
// Release the result, which owns only its Order and Repr, before g.
func (g *Grouping) Within(at Sel) Grouping {
	sub := Grouping{GIDs: g.GIDs, N: g.N, Repr: g.Repr}
	if at == nil {
		return sub
	}
	sub.At = at
	sub.reprBox, sub.Repr = groupList(g.N)
	sub.orderBox, sub.Order = groupList(g.N)
	seenBox, _ := groupList(g.N)
	seen := (*seenBox)[:g.N]
	clear(seen)
	inOrder := true
	for _, i := range at {
		id := g.GIDs[i]
		if seen[id] != 0 {
			continue
		}
		seen[id] = 1
		inOrder = inOrder && int(id) == len(sub.Order)
		sub.Order = append(sub.Order, id)
		sub.Repr = append(sub.Repr, i)
		if len(sub.Order) == g.N {
			break
		}
	}
	putList(seenBox, seen)
	if inOrder {
		// Groups 0 … len−1 appeared in id order: the id space shrinks to
		// them and nothing needs reordering.
		sub.N = len(sub.Order)
		putList(sub.orderBox, sub.Order)
		sub.Order, sub.orderBox = nil, nil
	}
	return sub
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

// GroupHint is Group with an explicit capacity hint, fed by observed
// per-window group cardinality (the factory remembers each pipeline's
// last output size). The hint only pre-sizes the hash table and the
// representative list — group ids, representatives and ordering are
// identical for every hint, so callers may pass any estimate without
// affecting results.
//
// Keys of the integer family (Int, Time) — one column or several — group
// through groupInts: a direct table indexed by the mixed-radix key when
// the columns' observed ranges multiply to a small domain, an
// open-addressing hash table otherwise. A single string key uses a string
// map, and any composite holding a float, string or bool column goes
// through the binary key encoding.
func GroupHint(keys []bat.Vector, sel Sel, n, hint int) Grouping {
	rows := SelLen(sel, n)
	if hint <= 0 {
		hint = defaultGroupHint
	}
	if len(keys) == 0 {
		g := newGrouping(rows, 1)
		clear(g.GIDs)
		if rows > 0 {
			g.N = 1
			g.Repr = append(g.Repr, firstPos(sel))
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

// hashScratch recycles the per-row scratch of groupInts (hashes, or
// mixed-radix keys on the direct-table path): it lives only for one
// Group call, and the shared aggregate path groups every basic window,
// so a fresh buffer per call would be pure garbage.
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

// groupInts groups rows over integer-family key columns (any number).
// When the key columns' observed ranges over the qualifying rows multiply
// to a small domain, groupDense indexes a direct table by the mixed-radix
// key and never hashes or probes. Otherwise the per-row hashes are
// computed one column at a time into a pooled scratch buffer, then one
// probe pass assigns the groups. Both paths number groups in
// first-appearance order, so ids and representatives do not depend on
// the path taken.
func groupInts(keys []bat.Vector, sel Sel, rows, hint int) Grouping {
	var colBuf [maxDenseCols][]int64 // the usual key width allocates no column list
	cols := colBuf[:0]
	for _, k := range keys {
		cols = append(cols, bat.AsInts(k))
	}
	bp := hashScratch.Get().(*[]uint64)
	if cap(*bp) < rows {
		*bp = make([]uint64, rows)
	}
	h := (*bp)[:rows]
	defer hashScratch.Put(bp)
	if g, ok := groupDense(cols, sel, rows, hint, h); ok {
		return g
	}
	for c, xs := range cols {
		hashInts(h, xs, sel, c == 0)
	}
	t := newGroupTable(min(hint, rows))
	g := newGrouping(rows, min(hint, rows))
	t.probe(&g, cols, sel, h)
	g.N = len(t.hash)
	return g
}

// maxDenseCols caps the key width groupDense handles: its per-column
// bounds live in fixed arrays on the stack, so the dense path allocates
// nothing beyond the grouping itself. Wider keys hash.
const maxDenseCols = 8

// denseLimit is the largest key domain groupDense indexes directly for a
// grouping over rows qualifying rows. Clearing a table of that many
// slots costs no more than a pass over the rows, so the direct table is
// never asymptotically worse than hashing.
func denseLimit(rows int) uint64 { return uint64(max(2*rows, 1024)) }

// denseScratch recycles groupDense's direct tables (slots hold id+1,
// 0 = empty); each is cleared to the domain's size before use.
var denseScratch = sync.Pool{New: func() any { return new([]int32) }}

// groupDense groups rows through a direct table when the key domain —
// the product of the columns' observed ranges (max − min + 1) over the
// qualifying rows — is at most denseLimit(rows). ok is false (and
// nothing is allocated) otherwise. key is scratch for one mixed-radix
// key per row.
func groupDense(cols [][]int64, sel Sel, rows, hint int, key []uint64) (g Grouping, ok bool) {
	if len(cols) > maxDenseCols {
		return g, false
	}
	var lo [maxDenseCols]int64
	var size [maxDenseCols]uint64
	limit, domain := denseLimit(rows), uint64(1)
	for c, xs := range cols {
		// A column fits when span < limit/domain, i.e. when
		// domain·(span+1) ≤ limit: the running product never exceeds
		// limit, so it cannot overflow.
		l, span, fits := colSpan(xs, sel, limit/domain)
		if !fits {
			return g, false
		}
		lo[c], size[c] = l, span+1
		domain *= span + 1
	}
	for c, xs := range cols {
		denseKeys(key, xs, sel, lo[c], size[c], c == 0)
	}
	tp := denseScratch.Get().(*[]int32)
	if uint64(cap(*tp)) < domain {
		*tp = make([]int32, domain)
	}
	slots := (*tp)[:domain]
	clear(slots)
	g = newGrouping(rows, min(hint, rows))
	for k, x := range key {
		id := slots[x]
		if id == 0 {
			i := int32(k)
			if sel != nil {
				i = sel[k]
			}
			g.Repr = append(g.Repr, i)
			id = int32(len(g.Repr))
			slots[x] = id
		}
		g.GIDs[k] = id - 1
	}
	g.N = len(g.Repr)
	denseScratch.Put(tp)
	return g, true
}

// colSpan returns the minimum of xs over the qualifying rows and the
// span from it to the maximum, exact in uint64 even when hi−lo overflows
// int64 (both 0 when no row qualifies). ok is false once the span seen so
// far reaches maxSpan: the rows are scanned in blocks and a key too wide
// for the direct table is given up on after the first block that shows
// it, so the hash fallback pays for a prefix rather than a full pass.
func colSpan(xs []int64, sel Sel, maxSpan uint64) (lo int64, span uint64, ok bool) {
	const block = 256
	n := SelLen(sel, len(xs))
	if n == 0 {
		return 0, 0, true
	}
	if sel == nil {
		lo = xs[0]
	} else {
		lo = xs[sel[0]]
	}
	hi := lo
	for start := 0; start < n; start += block {
		end := min(start+block, n)
		if sel == nil {
			for _, x := range xs[start:end] {
				lo, hi = min(lo, x), max(hi, x)
			}
		} else {
			for _, i := range sel[start:end] {
				lo, hi = min(lo, xs[i]), max(hi, xs[i])
			}
		}
		if uint64(hi)-uint64(lo) >= maxSpan {
			return lo, 0, false
		}
	}
	return lo, uint64(hi) - uint64(lo), true
}

// denseKeys folds one key column into the per-row mixed-radix keys:
// first starts the fold, later columns scale the running key by their
// size and add their offset from the column minimum.
func denseKeys(key []uint64, xs []int64, sel Sel, lo int64, size uint64, first bool) {
	switch {
	case sel == nil && first:
		for k := range key {
			key[k] = uint64(xs[k]) - uint64(lo)
		}
	case sel == nil:
		for k := range key {
			key[k] = key[k]*size + (uint64(xs[k]) - uint64(lo))
		}
	case first:
		for k, i := range sel {
			key[k] = uint64(xs[i]) - uint64(lo)
		}
	default:
		for k, i := range sel {
			key[k] = key[k]*size + (uint64(xs[i]) - uint64(lo))
		}
	}
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
	g := newGrouping(rows, 0)
	g.GIDs = g.GIDs[:0]
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
	g := newGrouping(rows, 0)
	g.GIDs = g.GIDs[:0]
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
