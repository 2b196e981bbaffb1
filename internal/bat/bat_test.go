package bat

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Int: "INT", Float: "FLOAT", Str: "STRING", Bool: "BOOL", Time: "TIMESTAMP",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"INT": Int, "INTEGER": Int, "BIGINT": Int,
		"FLOAT": Float, "DOUBLE": Float,
		"VARCHAR": Str, "TEXT": Str,
		"BOOLEAN": Bool, "TIMESTAMP": Time,
	} {
		got, err := ParseKind(name)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ParseKind(%q) = %s, want %s", name, got, want)
		}
	}
	if _, err := ParseKind("BLOB"); err == nil {
		t.Error("ParseKind(BLOB) should fail")
	}
}

func TestKindNumeric(t *testing.T) {
	for k, want := range map[Kind]bool{Int: true, Float: true, Time: true, Str: false, Bool: false} {
		if got := k.Numeric(); got != want {
			t.Errorf("%s.Numeric() = %v, want %v", k, got, want)
		}
	}
}

func TestGoValueRoundTrip(t *testing.T) {
	now := time.Now().Truncate(time.Microsecond).UTC()
	cases := []any{int(7), int64(-3), 2.5, "hello", true, now}
	for _, in := range cases {
		v, err := GoValue(in)
		if err != nil {
			t.Fatalf("GoValue(%v): %v", in, err)
		}
		out := v.Go()
		switch x := in.(type) {
		case int:
			if out.(int64) != int64(x) {
				t.Errorf("round trip %v -> %v", in, out)
			}
		case time.Time:
			if !out.(time.Time).Equal(x) {
				t.Errorf("round trip %v -> %v", in, out)
			}
		default:
			if out != in {
				t.Errorf("round trip %v -> %v", in, out)
			}
		}
	}
	if _, err := GoValue(struct{}{}); err == nil {
		t.Error("GoValue(struct{}{}) should fail")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntValue(1), IntValue(2), -1},
		{IntValue(2), IntValue(2), 0},
		{IntValue(3), IntValue(2), 1},
		{FloatValue(1.5), FloatValue(2.5), -1},
		{IntValue(2), FloatValue(1.5), 1}, // cross-kind numeric widening
		{StrValue("a"), StrValue("b"), -1},
		{BoolValue(false), BoolValue(true), -1},
		{BoolValue(true), BoolValue(true), 0},
		{TimeValue(10), TimeValue(20), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestValueEqualCrossKind: numeric kinds compare by widening, and any
// other kind mismatch is refused, never reported as equal.
func TestValueEqualCrossKind(t *testing.T) {
	if IntValue(2).Compare(FloatValue(2.0)) != 0 {
		t.Error("INT 2 should equal FLOAT 2.0")
	}
	defer func() {
		if recover() == nil {
			t.Error("comparing INT with STRING should panic")
		}
	}()
	IntValue(2).Compare(StrValue("2"))
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue(Int, "42")
	if err != nil || v.I != 42 {
		t.Fatalf("ParseValue(Int, 42) = %v, %v", v, err)
	}
	v, err = ParseValue(Float, "2.5")
	if err != nil || v.F != 2.5 {
		t.Fatalf("ParseValue(Float, 2.5) = %v, %v", v, err)
	}
	v, err = ParseValue(Bool, "true")
	if err != nil || !v.B {
		t.Fatalf("ParseValue(Bool, true) = %v, %v", v, err)
	}
	v, err = ParseValue(Time, "123456")
	if err != nil || v.I != 123456 {
		t.Fatalf("ParseValue(Time, usec) = %v, %v", v, err)
	}
	if _, err := ParseValue(Time, "2024-01-02T03:04:05Z"); err != nil {
		t.Fatalf("ParseValue(Time, RFC3339): %v", err)
	}
	if _, err := ParseValue(Int, "abc"); err == nil {
		t.Error("ParseValue(Int, abc) should fail")
	}
	if _, err := ParseValue(Float, "x"); err == nil {
		t.Error("ParseValue(Float, x) should fail")
	}
	if _, err := ParseValue(Bool, "x"); err == nil {
		t.Error("ParseValue(Bool, x) should fail")
	}
}

func TestValueStringRendering(t *testing.T) {
	if got := IntValue(-5).String(); got != "-5" {
		t.Errorf("IntValue.String() = %q", got)
	}
	if got := FloatValue(0.5).String(); got != "0.5" {
		t.Errorf("FloatValue.String() = %q", got)
	}
	if got := BoolValue(true).String(); got != "true" {
		t.Errorf("BoolValue.String() = %q", got)
	}
}

func TestVectorBasics(t *testing.T) {
	for _, k := range []Kind{Int, Float, Str, Bool, Time} {
		v := NewVector(k, 4)
		if v.Kind() != k {
			t.Errorf("NewVector(%s).Kind() = %s", k, v.Kind())
		}
		if v.Len() != 0 {
			t.Errorf("NewVector(%s) not empty", k)
		}
	}
}

func TestVectorAppendGetSlice(t *testing.T) {
	var v Vector = Ints(nil)
	for i := int64(0); i < 10; i++ {
		v = v.Append(IntValue(i))
	}
	if v.Len() != 10 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.Get(7).I != 7 {
		t.Errorf("Get(7) = %v", v.Get(7))
	}
	s := v.Slice(2, 5)
	if s.Len() != 3 || s.Get(0).I != 2 {
		t.Errorf("Slice(2,5) = %v", VectorString(s))
	}
	c := v.CopyRange(2, 5)
	// Mutating the copy must not affect the original.
	c.(Ints)[0] = 99
	if v.Get(2).I != 2 {
		t.Error("CopyRange shares storage with original")
	}
}

func TestVectorAppendVector(t *testing.T) {
	a := Ints{1, 2}
	b := Ints{3, 4}
	out := a.AppendVector(b)
	if out.Len() != 4 || out.Get(3).I != 4 {
		t.Errorf("AppendVector = %v", VectorString(out))
	}
	s := Strs{"x"}.AppendVector(Strs{"y"})
	if s.Len() != 2 || s.Get(1).S != "y" {
		t.Errorf("Strs AppendVector = %v", VectorString(s))
	}
}

func TestAsInts(t *testing.T) {
	if got := AsInts(Ints{1, 2}); len(got) != 2 {
		t.Error("AsInts on Ints")
	}
	if got := AsInts(Times{3}); got[0] != 3 {
		t.Error("AsInts on Times")
	}
	defer func() {
		if recover() == nil {
			t.Error("AsInts on Floats should panic")
		}
	}()
	AsInts(Floats{1})
}

func TestBAT(t *testing.T) {
	b := &BAT{Tail: NewVector(Int, 0)}
	b.Tail = b.Tail.Append(IntValue(5)).Append(IntValue(6))
	if b.Len() != 2 || b.Hi() != 2 {
		t.Errorf("Len/Hi = %d/%d", b.Len(), b.Hi())
	}
	b.Seq = 10
	if b.Hi() != 12 {
		t.Errorf("Hi with seqbase = %d", b.Hi())
	}
	if b.String() == "" {
		t.Error("empty String()")
	}
}

func TestChunkAppendRow(t *testing.T) {
	sch := NewSchema([]string{"a", "b"}, []Kind{Int, Str})
	c := NewChunk(sch)
	if err := c.AppendRow(IntValue(1), StrValue("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRow(IntValue(1)); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := c.AppendRow(StrValue("y"), StrValue("x")); err == nil {
		t.Error("type mismatch should fail")
	}
	if c.Rows() != 1 {
		t.Errorf("Rows = %d", c.Rows())
	}
	row := c.Row(0)
	if row[0].I != 1 || row[1].S != "x" {
		t.Errorf("Row(0) = %v", row)
	}
}

func TestChunkNumericCoercion(t *testing.T) {
	sch := NewSchema([]string{"f"}, []Kind{Float})
	c := NewChunk(sch)
	if err := c.AppendRow(IntValue(3)); err != nil {
		t.Fatal(err)
	}
	if got := c.Cols[0].Get(0); got.Kind != Float || got.F != 3.0 {
		t.Errorf("coerced value = %v", got)
	}
}

func TestChunkSliceAndCopy(t *testing.T) {
	sch := NewSchema([]string{"a"}, []Kind{Int})
	c := NewChunk(sch)
	for i := 0; i < 6; i++ {
		if err := c.AppendRow(IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Slice(2, 4)
	if s.Rows() != 2 || s.Row(0)[0].I != 2 {
		t.Errorf("Slice rows = %d", s.Rows())
	}
	cp := c.CopyRange(0, 3)
	cp.Cols[0].(Ints)[0] = 42
	if c.Row(0)[0].I != 0 {
		t.Error("CopyRange shares storage")
	}
}

// TestSliceAppendLeavesSourceRows: a view's capacity ends at its last
// row, so appending to it reallocates instead of overwriting the rows
// that follow it in the source — which a producer may still be filling.
func TestSliceAppendLeavesSourceRows(t *testing.T) {
	src := make(Ints, 4, 16)
	for i := range src {
		src[i] = int64(i)
	}
	full := src[:8]
	for i := 4; i < 8; i++ {
		full[i] = int64(i)
	}
	for _, view := range []Vector{src.Slice(1, 3), (&Chunk{Cols: []Vector{src}}).Slice(1, 3).Cols[0]} {
		grown := view.AppendVector(Ints{-1, -2, -3})
		if grown.Len() != 5 || grown.Get(2).I != -1 {
			t.Fatalf("grown view = %v", VectorString(grown))
		}
		for i := 3; i < 8; i++ {
			if full[i] != int64(i) {
				t.Fatalf("append to Slice(1,3) wrote source row %d: %v", i, full)
			}
		}
	}
}

func TestConcat(t *testing.T) {
	sch := NewSchema([]string{"a", "s"}, []Kind{Int, Str})
	mk := func(vals ...int64) *Chunk {
		c := NewChunk(sch)
		for _, v := range vals {
			_ = c.AppendRow(IntValue(v), StrValue(fmt.Sprint(v)))
		}
		return c
	}
	if got := Concat(sch, nil, 0); got.Rows() != 0 || len(got.Cols) != 2 {
		t.Fatalf("Concat of nothing = %v", got)
	}
	one := mk(1, 2, 3)
	view := Concat(sch, []*Chunk{nil, NewChunk(sch), one}, 3)
	if view.Rows() != 3 || &view.Cols[0].(Ints)[0] != &one.Cols[0].(Ints)[0] {
		t.Fatal("a single chunk must pass through as a view")
	}
	if c := view.Cols[0].(Ints); cap(c) != len(c) {
		t.Fatalf("view capacity %d, want %d", cap(c), len(c))
	}
	two := mk(4, 5)
	cat := Concat(sch, []*Chunk{one, nil, two}, 5)
	if cat.Rows() != 5 || cat.Row(3)[0].I != 4 || cat.Row(4)[1].S != "5" {
		t.Fatalf("Concat = %v", cat)
	}
	if c := cat.Cols[1].(Strs); cap(c) != 5 {
		t.Fatalf("copied column capacity %d, want exactly 5", cap(c))
	}
	cat.Cols[0].(Ints)[0] = 99
	if one.Row(0)[0].I != 1 {
		t.Fatal("a multi-chunk Concat must copy")
	}
}

func TestChunkAppendChunk(t *testing.T) {
	sch := NewSchema([]string{"a"}, []Kind{Int})
	a, b := NewChunk(sch), NewChunk(sch)
	_ = a.AppendRow(IntValue(1))
	_ = b.AppendRow(IntValue(2))
	a.AppendChunk(b)
	if a.Rows() != 2 || a.Row(1)[0].I != 2 {
		t.Errorf("AppendChunk = %v", a)
	}
}

func TestChunkString(t *testing.T) {
	sch := NewSchema([]string{"id", "name"}, []Kind{Int, Str})
	c := NewChunk(sch)
	_ = c.AppendRow(IntValue(1), StrValue("alpha"))
	out := c.String()
	if out == "" {
		t.Fatal("empty chunk render")
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := NewSchema([]string{"a", "b"}, []Kind{Int, Str})
	if s.Width() != 2 || s.Index("b") != 1 || s.Index("z") != -1 {
		t.Errorf("schema helpers broken: %v", s)
	}
	c := s.Clone()
	c.Names[0] = "zz"
	if s.Names[0] != "a" {
		t.Error("Clone shares storage")
	}
	if s.String() != "a INT, b STRING" {
		t.Errorf("String() = %q", s.String())
	}
}

// Property: Value.Compare is antisymmetric for random int pairs.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := IntValue(a), IntValue(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: appending n values yields Len n and Get returns them in order.
func TestQuickVectorAppendOrder(t *testing.T) {
	f := func(xs []int64) bool {
		var v Vector = Ints(nil)
		for _, x := range xs {
			v = v.Append(IntValue(x))
		}
		if v.Len() != len(xs) {
			return false
		}
		for i, x := range xs {
			if v.Get(i).I != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
