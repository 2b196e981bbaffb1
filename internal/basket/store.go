package basket

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"datacell/internal/bat"
)

// store is one refcounted block of segment storage: a segment's column
// vectors (its column store), or its arrival and sequence stamps (its
// stamp store, two Ints vectors). The basket holds one reference while
// the segment is buffered and a consume holds one while its callback
// runs; the runs a window slicer cuts from a column store each hold one
// more (bat.Lease). When the last reference goes, the store returns to
// its basket's free list, and the next append of a fitting size writes
// into it again — unless a view was handed out without a lease, which
// pins the store: a pinned store is never reused.
type store struct {
	refs   atomic.Int32
	pinned atomic.Bool
	vecs   []bat.Vector // full capacity, length 0
	size   int          // the vectors' capacity, in rows
	free   *freeList    // nil: never reused
}

var _ bat.Lease = (*store)(nil)

func newStore(kinds []bat.Kind, size int, free *freeList) *store {
	st := &store{vecs: make([]bat.Vector, len(kinds)), size: size, free: free}
	for i, k := range kinds {
		st.vecs[i] = bat.NewVector(k, size)
	}
	st.refs.Store(1)
	return st
}

// stampKinds lays out a stamp store: arrivals, then sequence stamps.
var stampKinds = []bat.Kind{bat.Int, bat.Int}

// Retain adds a reference.
func (st *store) Retain() { st.refs.Add(1) }

// Release drops a reference; the last one hands an unpinned store back
// to its free list.
func (st *store) Release() {
	if st.refs.Add(-1) != 0 || st.free == nil || st.pinned.Load() {
		return
	}
	if poison {
		for _, v := range st.vecs {
			poisonVector(v)
		}
	}
	st.free.put(st)
}

// pin marks the store as never reused: a view of it went out without a
// lease, so nothing tells the basket when that view is dropped. Callers
// hold a reference (the basket's), so the store cannot be on the free
// list yet.
func (st *store) pin() { st.pinned.Store(true) }

// freeList holds a basket's released stores of one layout for reuse. It
// holds them weakly: a store nobody asks for before the next garbage
// collection is collected, so the list never adds to the live heap.
type freeList struct {
	mu    sync.Mutex
	kinds []bat.Kind
	items []weak.Pointer[store]
}

// maxFree bounds a free list; beyond it the oldest entry is dropped.
const maxFree = 64

// put hands a released store back.
func (l *freeList) put(st *store) {
	l.mu.Lock()
	if len(l.items) >= maxFree {
		l.items = append(l.items[:0], l.items[1:]...)
	}
	l.items = append(l.items, weak.Make(st))
	l.mu.Unlock()
}

// get returns a store for n rows holding one reference: the best-fitting
// released one, with room for n to n + n/8 rows (reused), or a fresh one
// with room for n + n/16. The fresh store's headroom lets it serve later
// requests a little larger than this one — a sharded stream's appends
// vary by a few percent per shard — and the reuse window lets a store
// serve requests up to an eighth smaller. Either way the caller caps the
// vectors at n (capped), so a retained view pins at most n/8 spare rows.
func (l *freeList) get(n int) (*store, bool) {
	l.mu.Lock()
	best, bestAt, kept := (*store)(nil), -1, 0
	for _, p := range l.items {
		cand := p.Value()
		if cand == nil {
			continue // collected: drop the entry
		}
		l.items[kept] = p
		if cand.size >= n && cand.size <= n+n/8 && (best == nil || cand.size < best.size) {
			best, bestAt = cand, kept
		}
		kept++
	}
	clear(l.items[kept:])
	l.items = l.items[:kept]
	if best != nil {
		l.items = append(l.items[:bestAt], l.items[bestAt+1:]...)
	}
	l.mu.Unlock()
	if best == nil {
		return newStore(l.kinds, n+n/16, l), false
	}
	best.refs.Store(1)
	return best, true
}

// capped returns the store's vectors emptied and capped at n rows, so a
// reused segment has exactly the room a fresh one would.
func (st *store) capped(n int) []bat.Vector {
	out := make([]bat.Vector, len(st.vecs))
	for i, v := range st.vecs {
		switch x := v.(type) {
		case bat.Ints:
			out[i] = x[:0:n]
		case bat.Floats:
			out[i] = x[:0:n]
		case bat.Strs:
			out[i] = x[:0:n]
		case bat.Bools:
			out[i] = x[:0:n]
		case bat.Times:
			out[i] = x[:0:n]
		}
	}
	return out
}

// poison is on in test binaries: every store handed back to a free list
// is overwritten first, so a run read after its release shows garbage
// (NaN, sentinel integers, poison strings) instead of plausible stale
// rows, and the equivalence tests catch it.
var poison = testing.Testing()

const (
	poisonInt = math.MinInt64 + 0x5eed
	poisonStr = "\x00released"
)

func poisonVector(v bat.Vector) {
	switch x := v.(type) {
	case bat.Ints:
		fill(x[:cap(x)], poisonInt)
	case bat.Times:
		fill(x[:cap(x)], poisonInt)
	case bat.Floats:
		fill(x[:cap(x)], math.NaN())
	case bat.Strs:
		fill(x[:cap(x)], poisonStr)
	case bat.Bools:
		fill(x[:cap(x)], true)
	}
}

func fill[T any](xs []T, v T) {
	for i := range xs {
		xs[i] = v
	}
}
