package bat

import (
	"fmt"
	"strings"
)

// Vector is a densely packed, typed column of values — the tail of a BAT.
// All bulk operators in internal/algebra consume and produce Vectors.
//
// The concrete implementations (Ints, Floats, Strs, Bools, Times) are named
// slice types so that hot loops can type-switch once per operator call and
// then run over a raw slice, the "vector-at-a-time" execution style of the
// MonetDB kernel that the paper builds on.
type Vector interface {
	// Kind reports the element type.
	Kind() Kind
	// Len reports the number of elements.
	Len() int
	// Get boxes element i. It is used only at the engine edges; bulk
	// operators access the underlying slices directly.
	Get(i int) Value
	// Append adds a boxed value of the vector's kind and returns the
	// (possibly reallocated) vector, in the manner of the append builtin.
	Append(v Value) Vector
	// AppendVector bulk-appends another vector of the same kind.
	AppendVector(o Vector) Vector
	// Slice returns a view of elements [lo, hi). The view shares storage,
	// but its capacity ends at hi: appending to the view reallocates
	// instead of writing into the elements that follow it.
	Slice(lo, hi int) Vector
	// CopyRange returns a freshly allocated copy of elements [lo, hi).
	CopyRange(lo, hi int) Vector
	// New returns an empty vector of the same kind with the given capacity.
	New(capacity int) Vector
}

// NewVector returns an empty vector of the given kind.
func NewVector(k Kind, capacity int) Vector {
	switch k {
	case Int:
		return make(Ints, 0, capacity)
	case Float:
		return make(Floats, 0, capacity)
	case Str:
		return make(Strs, 0, capacity)
	case Bool:
		return make(Bools, 0, capacity)
	case Time:
		return make(Times, 0, capacity)
	default:
		panic(fmt.Sprintf("bat: NewVector of unknown kind %d", k))
	}
}

// Ints is a vector of 64-bit integers.
type Ints []int64

// Kind implements Vector.
func (v Ints) Kind() Kind { return Int }

// Len implements Vector.
func (v Ints) Len() int { return len(v) }

// Get implements Vector.
func (v Ints) Get(i int) Value { return IntValue(v[i]) }

// Append implements Vector.
func (v Ints) Append(x Value) Vector { return append(v, x.AsInt()) }

// AppendVector implements Vector.
func (v Ints) AppendVector(o Vector) Vector { return append(v, o.(Ints)...) }

// Slice implements Vector.
func (v Ints) Slice(lo, hi int) Vector { return v[lo:hi:hi] }

// CopyRange implements Vector.
func (v Ints) CopyRange(lo, hi int) Vector {
	out := make(Ints, hi-lo)
	copy(out, v[lo:hi])
	return out
}

// New implements Vector.
func (v Ints) New(capacity int) Vector { return make(Ints, 0, capacity) }

// Floats is a vector of 64-bit floating point numbers.
type Floats []float64

// Kind implements Vector.
func (v Floats) Kind() Kind { return Float }

// Len implements Vector.
func (v Floats) Len() int { return len(v) }

// Get implements Vector.
func (v Floats) Get(i int) Value { return FloatValue(v[i]) }

// Append implements Vector.
func (v Floats) Append(x Value) Vector { return append(v, x.AsFloat()) }

// AppendVector implements Vector.
func (v Floats) AppendVector(o Vector) Vector { return append(v, o.(Floats)...) }

// Slice implements Vector.
func (v Floats) Slice(lo, hi int) Vector { return v[lo:hi:hi] }

// CopyRange implements Vector.
func (v Floats) CopyRange(lo, hi int) Vector {
	out := make(Floats, hi-lo)
	copy(out, v[lo:hi])
	return out
}

// New implements Vector.
func (v Floats) New(capacity int) Vector { return make(Floats, 0, capacity) }

// Strs is a vector of strings.
type Strs []string

// Kind implements Vector.
func (v Strs) Kind() Kind { return Str }

// Len implements Vector.
func (v Strs) Len() int { return len(v) }

// Get implements Vector.
func (v Strs) Get(i int) Value { return StrValue(v[i]) }

// Append implements Vector.
func (v Strs) Append(x Value) Vector { return append(v, x.S) }

// AppendVector implements Vector.
func (v Strs) AppendVector(o Vector) Vector { return append(v, o.(Strs)...) }

// Slice implements Vector.
func (v Strs) Slice(lo, hi int) Vector { return v[lo:hi:hi] }

// CopyRange implements Vector.
func (v Strs) CopyRange(lo, hi int) Vector {
	out := make(Strs, hi-lo)
	copy(out, v[lo:hi])
	return out
}

// New implements Vector.
func (v Strs) New(capacity int) Vector { return make(Strs, 0, capacity) }

// Bools is a vector of booleans.
type Bools []bool

// Kind implements Vector.
func (v Bools) Kind() Kind { return Bool }

// Len implements Vector.
func (v Bools) Len() int { return len(v) }

// Get implements Vector.
func (v Bools) Get(i int) Value { return BoolValue(v[i]) }

// Append implements Vector.
func (v Bools) Append(x Value) Vector { return append(v, x.B) }

// AppendVector implements Vector.
func (v Bools) AppendVector(o Vector) Vector { return append(v, o.(Bools)...) }

// Slice implements Vector.
func (v Bools) Slice(lo, hi int) Vector { return v[lo:hi:hi] }

// CopyRange implements Vector.
func (v Bools) CopyRange(lo, hi int) Vector {
	out := make(Bools, hi-lo)
	copy(out, v[lo:hi])
	return out
}

// New implements Vector.
func (v Bools) New(capacity int) Vector { return make(Bools, 0, capacity) }

// Times is a vector of timestamps, stored as microseconds since the epoch.
// It is a distinct type from Ints so that results render as timestamps and
// the binder can type-check temporal expressions.
type Times []int64

// Kind implements Vector.
func (v Times) Kind() Kind { return Time }

// Len implements Vector.
func (v Times) Len() int { return len(v) }

// Get implements Vector.
func (v Times) Get(i int) Value { return TimeValue(v[i]) }

// Append implements Vector.
func (v Times) Append(x Value) Vector { return append(v, x.AsInt()) }

// AppendVector implements Vector.
func (v Times) AppendVector(o Vector) Vector { return append(v, o.(Times)...) }

// Slice implements Vector.
func (v Times) Slice(lo, hi int) Vector { return v[lo:hi:hi] }

// CopyRange implements Vector.
func (v Times) CopyRange(lo, hi int) Vector {
	out := make(Times, hi-lo)
	copy(out, v[lo:hi])
	return out
}

// New implements Vector.
func (v Times) New(capacity int) Vector { return make(Times, 0, capacity) }

// AsInts returns the underlying int64 slice of an Int or Time vector. The
// two kinds share a payload representation, which lets numeric kernels
// handle timestamps for free.
func AsInts(v Vector) []int64 {
	switch x := v.(type) {
	case Ints:
		return x
	case Times:
		return x
	}
	panic(fmt.Sprintf("bat: AsInts on %s vector", v.Kind()))
}

// VectorString renders a vector for debugging and the demo monitor,
// truncating long vectors.
func VectorString(v Vector) string {
	const maxShow = 16
	var b strings.Builder
	b.WriteString(v.Kind().String())
	b.WriteByte('[')
	n := v.Len()
	for i := 0; i < n && i < maxShow; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.Get(i).String())
	}
	if n > maxShow {
		fmt.Fprintf(&b, " … +%d", n-maxShow)
	}
	b.WriteByte(']')
	return b.String()
}

// AppendFetch appends src's elements at the sel positions onto dst,
// returning the (possibly reallocated) destination — a fused
// gather+append that lets a sharded basket route rows into its shards
// with a single copy. dst and src must share a kind.
func AppendFetch(dst, src Vector, sel []int32) Vector {
	switch d := dst.(type) {
	case Ints:
		return Ints(appendFetch(d, src.(Ints), sel))
	case Times:
		return Times(appendFetch(d, src.(Times), sel))
	case Floats:
		return Floats(appendFetch(d, src.(Floats), sel))
	case Strs:
		return Strs(appendFetch(d, src.(Strs), sel))
	case Bools:
		return Bools(appendFetch(d, src.(Bools), sel))
	}
	panic(fmt.Sprintf("bat: AppendFetch on unknown vector %T", dst))
}

func appendFetch[T any](dst, src []T, sel []int32) []T {
	for _, i := range sel {
		dst = append(dst, src[i])
	}
	return dst
}
