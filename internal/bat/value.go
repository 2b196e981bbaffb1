package bat

import (
	"fmt"
	"strconv"
	"time"
)

// Value is a single typed scalar. It is the boxed representation used at
// the edges of the engine (SQL literals, receptor input, emitted rows);
// the inner query loops never box values — they operate on whole vectors.
type Value struct {
	Kind Kind
	I    int64 // Int and Time payload
	F    float64
	S    string
	B    bool
}

// Convenience constructors.

// IntValue returns an Int-kind value.
func IntValue(i int64) Value { return Value{Kind: Int, I: i} }

// FloatValue returns a Float-kind value.
func FloatValue(f float64) Value { return Value{Kind: Float, F: f} }

// StrValue returns a Str-kind value.
func StrValue(s string) Value { return Value{Kind: Str, S: s} }

// BoolValue returns a Bool-kind value.
func BoolValue(b bool) Value { return Value{Kind: Bool, B: b} }

// TimeValue returns a Time-kind value holding microseconds since the epoch.
func TimeValue(usec int64) Value { return Value{Kind: Time, I: usec} }

// GoValue boxes a native Go value into a Value. Supported inputs are the
// Go types that receptors accept: int, int32, int64, float64, string, bool
// and time.Time.
func GoValue(v any) (Value, error) {
	switch x := v.(type) {
	case int:
		return IntValue(int64(x)), nil
	case int32:
		return IntValue(int64(x)), nil
	case int64:
		return IntValue(x), nil
	case float64:
		return FloatValue(x), nil
	case float32:
		return FloatValue(float64(x)), nil
	case string:
		return StrValue(x), nil
	case bool:
		return BoolValue(x), nil
	case time.Time:
		return TimeValue(x.UnixMicro()), nil
	case Value:
		return x, nil
	default:
		return Value{}, fmt.Errorf("bat: unsupported Go value %T", v)
	}
}

// Go unboxes the value into its natural Go representation.
func (v Value) Go() any {
	switch v.Kind {
	case Int:
		return v.I
	case Float:
		return v.F
	case Str:
		return v.S
	case Bool:
		return v.B
	case Time:
		return time.UnixMicro(v.I).UTC()
	default:
		return nil
	}
}

// AsFloat widens the value to float64; only valid for numeric kinds.
func (v Value) AsFloat() float64 {
	if v.Kind == Float {
		return v.F
	}
	return float64(v.I)
}

// AsInt returns the integral payload; only valid for Int and Time, or Float
// (truncating).
func (v Value) AsInt() int64 {
	if v.Kind == Float {
		return int64(v.F)
	}
	return v.I
}

// String renders the value the way emitters print it.
func (v Value) String() string {
	switch v.Kind {
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Str:
		return v.S
	case Bool:
		if v.B {
			return "true"
		}
		return "false"
	case Time:
		return time.UnixMicro(v.I).UTC().Format(time.RFC3339Nano)
	default:
		return "?"
	}
}

// Compare orders two values of the same kind: -1, 0 or +1. Comparing values
// of different numeric kinds (Int vs Float) widens to float64; any other
// kind mismatch panics, because the binder guarantees operand types match.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		if v.Kind.Numeric() && o.Kind.Numeric() {
			return cmpFloat(v.AsFloat(), o.AsFloat())
		}
		panic(fmt.Sprintf("bat: comparing %s with %s", v.Kind, o.Kind))
	}
	switch v.Kind {
	case Int, Time:
		return cmpInt(v.I, o.I)
	case Float:
		return cmpFloat(v.F, o.F)
	case Str:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	case Bool:
		switch {
		case !v.B && o.B:
			return -1
		case v.B && !o.B:
			return 1
		}
		return 0
	}
	return 0
}

// ParseValue parses the textual form of a value of the given kind, the
// format spoken by CSV receptors. Timestamps accept RFC3339 or raw
// microseconds.
func ParseValue(k Kind, s string) (Value, error) {
	switch k {
	case Int:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bat: parsing %q as INT: %w", s, err)
		}
		return IntValue(i), nil
	case Float:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bat: parsing %q as FLOAT: %w", s, err)
		}
		return FloatValue(f), nil
	case Str:
		return StrValue(s), nil
	case Bool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("bat: parsing %q as BOOL: %w", s, err)
		}
		return BoolValue(b), nil
	case Time:
		if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
			return TimeValue(t.UnixMicro()), nil
		}
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bat: parsing %q as TIMESTAMP: %w", s, err)
		}
		return TimeValue(i), nil
	default:
		return Value{}, fmt.Errorf("bat: cannot parse kind %s", k)
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
