package bat

import (
	"fmt"
	"strings"
)

// Schema describes the columns of a table, stream, basket or intermediate
// result: parallel slices of names and kinds.
type Schema struct {
	Names []string
	Kinds []Kind
}

// NewSchema builds a schema from alternating name/kind pairs.
func NewSchema(names []string, kinds []Kind) Schema {
	if len(names) != len(kinds) {
		panic("bat: schema name/kind length mismatch")
	}
	return Schema{Names: names, Kinds: kinds}
}

// Width reports the number of columns.
func (s Schema) Width() int { return len(s.Names) }

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, n := range s.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Clone deep-copies the schema so callers can extend it safely.
func (s Schema) Clone() Schema {
	return Schema{
		Names: append([]string(nil), s.Names...),
		Kinds: append([]Kind(nil), s.Kinds...),
	}
}

// String renders "name TYPE, ...".
func (s Schema) String() string {
	parts := make([]string, len(s.Names))
	for i := range s.Names {
		parts[i] = s.Names[i] + " " + s.Kinds[i].String()
	}
	return strings.Join(parts, ", ")
}

// Chunk is a horizontal slice of a relation in columnar form: one vector
// per column, all of equal length. Chunks flow between operators, between
// factories and baskets, and out to emitters. They are the unit in which
// DataCell keeps intermediate results around for reuse.
type Chunk struct {
	Schema Schema
	Cols   []Vector
}

// NewChunk returns an empty chunk with the given schema.
func NewChunk(s Schema) *Chunk {
	cols := make([]Vector, s.Width())
	for i, k := range s.Kinds {
		cols[i] = NewVector(k, 0)
	}
	return &Chunk{Schema: s, Cols: cols}
}

// Rows reports the number of tuples in the chunk.
func (c *Chunk) Rows() int {
	if len(c.Cols) == 0 {
		return 0
	}
	return c.Cols[0].Len()
}

// AppendRow adds one boxed tuple. Values must match the schema kinds.
func (c *Chunk) AppendRow(vals ...Value) error {
	if len(vals) != len(c.Cols) {
		return fmt.Errorf("bat: row has %d values, schema has %d columns", len(vals), len(c.Cols))
	}
	for i, v := range vals {
		k := c.Schema.Kinds[i]
		if v.Kind != k && !(v.Kind.Numeric() && k.Numeric()) {
			return fmt.Errorf("bat: column %s expects %s, got %s",
				c.Schema.Names[i], k, v.Kind)
		}
		c.Cols[i] = c.Cols[i].Append(coerce(v, k))
	}
	return nil
}

// AppendChunk bulk-appends another chunk with an identical schema layout.
func (c *Chunk) AppendChunk(o *Chunk) {
	for i := range c.Cols {
		c.Cols[i] = c.Cols[i].AppendVector(o.Cols[i])
	}
}

// Row boxes tuple i.
func (c *Chunk) Row(i int) []Value {
	out := make([]Value, len(c.Cols))
	for j, col := range c.Cols {
		out[j] = col.Get(i)
	}
	return out
}

// Slice returns a view of rows [lo, hi) sharing storage with c. Like
// Vector.Slice, its columns' capacity ends at hi, so appending to the
// view never writes into c's following rows.
func (c *Chunk) Slice(lo, hi int) *Chunk {
	cols := make([]Vector, len(c.Cols))
	for i, col := range c.Cols {
		cols[i] = col.Slice(lo, hi)
	}
	return &Chunk{Schema: c.Schema, Cols: cols}
}

// Concat returns the rows of chunks, in order, as one chunk with the
// given schema; rows is their total row count. Nil and empty chunks are
// skipped. A single remaining chunk passes through as a view sharing its
// storage (capacity-capped, see Slice); several are copied once into
// exactly sized columns.
func Concat(schema Schema, chunks []*Chunk, rows int) *Chunk {
	var only *Chunk
	n := 0
	for _, c := range chunks {
		if c != nil && c.Rows() > 0 {
			only = c
			n++
		}
	}
	switch n {
	case 0:
		return NewChunk(schema)
	case 1:
		v := only.Slice(0, only.Rows())
		v.Schema = schema
		return v
	}
	cols := make([]Vector, schema.Width())
	for i, k := range schema.Kinds {
		col := NewVector(k, rows)
		for _, c := range chunks {
			if c != nil {
				col = col.AppendVector(c.Cols[i])
			}
		}
		cols[i] = col
	}
	return &Chunk{Schema: schema, Cols: cols}
}

// CopyRange returns a deep copy of rows [lo, hi).
func (c *Chunk) CopyRange(lo, hi int) *Chunk {
	cols := make([]Vector, len(c.Cols))
	for i, col := range c.Cols {
		cols[i] = col.CopyRange(lo, hi)
	}
	return &Chunk{Schema: c.Schema, Cols: cols}
}

// String renders the chunk as an aligned table, used by emitters and the
// demo CLI.
func (c *Chunk) String() string {
	var b strings.Builder
	widths := make([]int, len(c.Cols))
	rows := c.Rows()
	cells := make([][]string, rows)
	for j, n := range c.Schema.Names {
		widths[j] = len(n)
	}
	for i := 0; i < rows; i++ {
		cells[i] = make([]string, len(c.Cols))
		for j, col := range c.Cols {
			s := col.Get(i).String()
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	for j, n := range c.Schema.Names {
		if j > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[j], n)
	}
	b.WriteByte('\n')
	for i := 0; i < rows; i++ {
		for j := range c.Cols {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], cells[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// coerce widens numeric values to the column kind so that, e.g., an INT
// literal can be appended to a FLOAT column.
func coerce(v Value, k Kind) Value {
	if v.Kind == k {
		return v
	}
	switch k {
	case Float:
		return FloatValue(v.AsFloat())
	case Int:
		return IntValue(v.AsInt())
	case Time:
		return TimeValue(v.AsInt())
	}
	return v
}
