package bat

// Runs is a relation held as an ordered sequence of immutable chunks —
// runs — sharing one schema: reading the runs in order yields exactly the
// rows Concat would copy into one chunk. A sharded basic window is the
// runs of its shards' basket segments in canonical order (shard order,
// then arrival order within a shard); consumers read through the runs in
// place and copy them together (Concat) only where they need one dense
// chunk. Empty chunks are never kept, so every run holds at least one
// row.
type Runs struct {
	Schema Schema
	Chunks []*Chunk
	rows   int
}

// NewRuns builds a run list over chunks, in order. The chunks are views:
// they are not copied, and nothing may write into their rows afterwards.
func NewRuns(schema Schema, chunks ...*Chunk) *Runs {
	r := &Runs{Schema: schema}
	for _, c := range chunks {
		r.Append(c)
	}
	return r
}

// Append adds c as the last run (skipping it when it is empty).
func (r *Runs) Append(c *Chunk) {
	if n := c.Rows(); n > 0 {
		r.Chunks = append(r.Chunks, c)
		r.rows += n
	}
}

// Rows reports the total row count across the runs.
func (r *Runs) Rows() int { return r.rows }

// Concat returns the runs as one dense chunk with the run list's schema.
// A single run passes through as a view (see Concat); several are copied
// once.
func (r *Runs) Concat() *Chunk { return Concat(r.Schema, r.Chunks, r.rows) }
