// Package algebra implements the bulk (vector-at-a-time) relational
// operators of the DataCell-Go kernel, mirroring the MonetDB columnar
// algebra the paper builds on: operators consume whole column vectors plus
// an optional candidate list and produce new vectors or candidate lists.
//
// A candidate list (Sel) is a sorted list of qualifying row positions — the
// columnar intermediate that the paper's incremental processing strategy
// caches and reuses ("we can selectively keep around the proper
// intermediates at the proper places of a plan").
package algebra

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"datacell/internal/bat"
)

// Sel is a candidate list: strictly increasing positions into a vector.
// A nil Sel means "all rows". Positions are int32, as dense selection
// vectors are the cache-resident intermediate of choice in columnar
// engines.
type Sel []int32

// AllSel materializes the identity candidate list [0, n).
func AllSel(n int) Sel {
	s := make(Sel, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// SelLen reports how many rows a candidate list covers over a vector of n
// rows (nil means all).
func SelLen(sel Sel, n int) int {
	if sel == nil {
		return n
	}
	return len(sel)
}

// CmpOp is a comparison operator for selections and join predicates.
type CmpOp uint8

// The comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String renders the SQL form of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// Select filters a vector with a single comparison against a constant and
// returns the qualifying candidate list, intersected with sel.
func Select(v bat.Vector, sel Sel, op CmpOp, c bat.Value) Sel {
	return selectTo(v, sel, op, c, selDst{})
}

// SelectView is Select for a lazy view's selection. When sel is nil and
// every row qualifies it returns nil (every row) and allocates nothing.
// With a non-nil s the survivors stay in the kernel's pooled candidate
// buffer, lent to s until s.Release, instead of being copied out.
func SelectView(v bat.Vector, sel Sel, op CmpOp, c bat.Value, s *Scratch) Sel {
	return selectTo(v, sel, op, c, selDst{view: true, s: s})
}

func selectTo(v bat.Vector, sel Sel, op CmpOp, c bat.Value, dst selDst) Sel {
	switch xs := v.(type) {
	case bat.Ints:
		return selectCmp(xs, sel, op, c.AsInt(), dst)
	case bat.Times:
		return selectCmp(xs, sel, op, c.AsInt(), dst)
	case bat.Floats:
		return selectCmp(xs, sel, op, c.AsFloat(), dst)
	case bat.Strs:
		return selectCmp(xs, sel, op, c.S, dst)
	case bat.Bools:
		return selectBool(xs, sel, op, c.B, dst)
	}
	panic(fmt.Sprintf("algebra: Select on unknown vector %T", v))
}

// selScratch recycles the candidate buffers of the select kernels: each
// call writes every candidate position into one and copies out only the
// survivors, so the buffer lives for a single call.
var selScratch = sync.Pool{New: func() any { return new([]int32) }}

// candBuf returns a pooled buffer with room for n candidate positions.
func candBuf(n int) (*[]int32, []int32) {
	bp := selScratch.Get().(*[]int32)
	if cap(*bp) < n {
		*bp = make([]int32, n)
	}
	return bp, (*bp)[:n]
}

// selDst says where a select kernel leaves its survivors: Select's zero
// value copies them into an exactly sized list; a view destination
// returns nil when every row of an unselected input qualifies, and with
// a Scratch keeps them in the candidate buffer.
type selDst struct {
	view bool
	s    *Scratch
}

// survivors hands over the k kept positions of a candidate buffer; all
// reports that the kernel scanned no selection and kept every row. An
// exactly sized copy appends to an empty non-nil list, which allocates
// without first zeroing the memory the copy overwrites and keeps an
// empty result non-nil (nil would select every row).
func (d selDst) survivors(bp *[]int32, buf []int32, k int, all bool) Sel {
	switch {
	case d.view && all:
		selScratch.Put(bp)
		return nil
	case d.s != nil && k > 0:
		d.s.bufs = append(d.s.bufs, bp)
		return buf[:k]
	}
	out := append(Sel{}, buf[:k]...)
	selScratch.Put(bp)
	return out
}

// Scratch lends the select kernels' candidate buffers to a caller that
// reads a selection only within one operator call, such as a filter
// whose only reader is an aggregate: a selection built into a Scratch is
// the kernel's own pooled buffer, and Release hands every buffer back at
// once. Nothing may read such a selection after Release; test binaries
// overwrite released buffers with out-of-range positions so that such a
// read fails loudly instead of seeing plausible stale candidates. The
// zero value is ready to use.
type Scratch struct {
	bufs []*[]int32
}

// Release hands every lent buffer back to the select kernels' pool and
// leaves s empty for reuse.
func (s *Scratch) Release() {
	for i, bp := range s.bufs {
		poisonBox(bp)
		selScratch.Put(bp)
		s.bufs[i] = nil
	}
	s.bufs = s.bufs[:0]
}

// poison is on in test binaries: released Scratch buffers and groupings
// are overwritten with poisonPos, a position (and group id) no vector has.
var poison = testing.Testing()

const poisonPos = math.MinInt32

// poisonBox overwrites the whole of a released pooled buffer with
// poisonPos when poison is on.
func poisonBox(bp *[]int32) {
	if poison {
		buf := (*bp)[:cap(*bp)]
		for j := range buf {
			buf[j] = poisonPos
		}
	}
}

// selectCmp is the generic single-comparison kernel, written predicated
// rather than branchy: every candidate position is stored into the
// scratch buffer and the write cursor advances by the comparison's
// outcome, so the loop carries no data-dependent branch and the result
// is copied out once at its exact size. The operator is hoisted out of
// the loops (one loop per operator and access path).
func selectCmp[T int64 | float64 | string](xs []T, sel Sel, op CmpOp, c T, dst selDst) Sel {
	bp, buf := candBuf(SelLen(sel, len(xs)))
	k := 0
	if sel == nil {
		switch op {
		case EQ:
			for i, x := range xs {
				buf[k] = int32(i)
				k += b2i(x == c)
			}
		case NE:
			for i, x := range xs {
				buf[k] = int32(i)
				k += b2i(x != c)
			}
		case LT:
			for i, x := range xs {
				buf[k] = int32(i)
				k += b2i(x < c)
			}
		case LE:
			for i, x := range xs {
				buf[k] = int32(i)
				k += b2i(x <= c)
			}
		case GT:
			for i, x := range xs {
				buf[k] = int32(i)
				k += b2i(x > c)
			}
		case GE:
			for i, x := range xs {
				buf[k] = int32(i)
				k += b2i(x >= c)
			}
		}
		return dst.survivors(bp, buf, k, k == len(xs))
	}
	switch op {
	case EQ:
		for _, i := range sel {
			buf[k] = i
			k += b2i(xs[i] == c)
		}
	case NE:
		for _, i := range sel {
			buf[k] = i
			k += b2i(xs[i] != c)
		}
	case LT:
		for _, i := range sel {
			buf[k] = i
			k += b2i(xs[i] < c)
		}
	case LE:
		for _, i := range sel {
			buf[k] = i
			k += b2i(xs[i] <= c)
		}
	case GT:
		for _, i := range sel {
			buf[k] = i
			k += b2i(xs[i] > c)
		}
	case GE:
		for _, i := range sel {
			buf[k] = i
			k += b2i(xs[i] >= c)
		}
	}
	return dst.survivors(bp, buf, k, false)
}

// selectBool decides the comparison once per boolean value (ordered
// comparisons use false < true) and collects through a two-entry keep
// table indexed by each row's value.
func selectBool(xs []bool, sel Sel, op CmpOp, c bool, dst selDst) Sel {
	var keep [2]int
	for x := range keep {
		keep[x] = b2i(cmpInts(x, b2i(c), op))
	}
	bp, buf := candBuf(SelLen(sel, len(xs)))
	k := 0
	if sel == nil {
		for i, x := range xs {
			buf[k] = int32(i)
			k += keep[b2i(x)]
		}
	} else {
		for _, i := range sel {
			buf[k] = i
			k += keep[b2i(xs[i])]
		}
	}
	return dst.survivors(bp, buf, k, sel == nil && k == len(xs))
}

func cmpInts(a, b int, op CmpOp) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	return false
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// eachSel iterates a slice restricted to a candidate list.
func eachSel[T any](xs []T, sel Sel, f func(i int32, x T)) {
	if sel == nil {
		for i, x := range xs {
			f(int32(i), x)
		}
		return
	}
	for _, i := range sel {
		f(i, xs[i])
	}
}

// SelIntersect intersects two sorted candidate lists (nil = all).
func SelIntersect(a, b Sel) Sel {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(Sel, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// SelUnion merges two sorted candidate lists (nil = all rows, which
// dominates).
func SelUnion(a, b Sel, n int) Sel {
	if a == nil || b == nil {
		return nil
	}
	out := make(Sel, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// SelComplement returns all positions in [0, n) not present in sorted a.
func SelComplement(a Sel, n int) Sel {
	if a == nil {
		return Sel{}
	}
	out := make(Sel, 0, n-len(a))
	j := 0
	for i := int32(0); i < int32(n); i++ {
		if j < len(a) && a[j] == i {
			j++
			continue
		}
		out = append(out, i)
	}
	return out
}
