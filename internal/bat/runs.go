package bat

// Runs is a relation held as an ordered sequence of immutable chunks —
// runs — sharing one schema: reading the runs in order yields exactly the
// rows Concat would copy into one chunk. A sharded basic window is the
// runs of its shards' basket segments in canonical order (shard order,
// then arrival order within a shard); consumers read through the runs in
// place and copy them together (Concat) only where they need one dense
// chunk. Empty chunks are never kept, so every run holds at least one
// row.
//
// A run over basket storage may come with a lease on that storage. The
// run list holds the leases until Release hands them back, after which
// the storage may be reused and no run may be read again. A run list
// dropped without Release keeps its storage for the garbage collector,
// so only an owner that knows nobody still reads the runs releases them.
type Runs struct {
	Schema Schema
	Chunks []*Chunk
	leases []Lease
	rows   int
}

// Lease is one reference on the storage some runs' vectors live in.
// Retain adds a reference; Release drops one, and the storage may be
// reused once the last is gone.
type Lease interface {
	Retain()
	Release()
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
func (r *Runs) Append(c *Chunk) { r.AppendLeased(c, nil) }

// AppendLeased adds c as the last run and takes a reference on l, the
// storage c's vectors live in (nil: c holds no lease). An empty c is
// skipped and takes no reference.
func (r *Runs) AppendLeased(c *Chunk, l Lease) {
	n := c.Rows()
	if n == 0 {
		return
	}
	r.Chunks = append(r.Chunks, c)
	r.rows += n
	if l != nil {
		l.Retain()
		r.leases = append(r.leases, l)
	}
}

// Take appends o's runs after r's and moves o's leases to r: o must not
// be released afterwards.
func (r *Runs) Take(o *Runs) {
	r.Chunks = append(r.Chunks, o.Chunks...)
	r.rows += o.rows
	r.leases = append(r.leases, o.leases...)
	o.leases = nil
}

// Release drops the run list's leases; nothing may read the runs
// afterwards. Releasing twice is harmless.
func (r *Runs) Release() {
	for _, l := range r.leases {
		l.Release()
	}
	r.leases = nil
}

// Rows reports the total row count across the runs.
func (r *Runs) Rows() int { return r.rows }

// Concat returns the runs as one dense chunk with the run list's schema.
// A single run passes through as a view (see Concat); several are copied
// once.
func (r *Runs) Concat() *Chunk { return Concat(r.Schema, r.Chunks, r.rows) }
