// Package window implements the sliding-window machinery of DataCell's
// incremental processing mode (paper §3): windows are partitioned into
// basic windows — "each basic window is of equal size to the sliding step"
// — which are processed separately, their columnar intermediates cached,
// and merged per slide. Because whole basic windows expire at once, all
// cached partials stay valid until their basic window leaves the ring; no
// per-tuple invertibility is needed.
//
// Two slicing paths exist. Slicer is the single-stream reference
// implementation: it cuts one ordered tuple stream into basic windows in
// arrival order. ShardSlicer + ShardMerge form the sharded path: each
// shard cuts its own rows into globally consistent epochs (by global
// sequence stamp for tuple windows, by absolute slide bucket for time
// windows) and a per-query merger assembles complete basic windows once
// every shard's flush watermark has passed an epoch. The union of the
// shards' epoch fragments is exactly the basic window the single-stream
// slicer would produce, so everything downstream of the merge — Ring,
// JoinCache, partial-aggregate merging — is oblivious to sharding.
package window

import (
	"fmt"

	"datacell/internal/bat"
	"datacell/internal/plan"
)

// BW is one completed basic window plus whatever intermediates the factory
// cached for it.
type BW struct {
	// Gen is the basic window's global sequence number (0, 1, 2, ...).
	Gen int64
	// Epoch is the absolute epoch the basic window covers, set by
	// ShardMerge: for tuple windows the basic-window number (sequence /
	// slide), for time windows the slide bucket (⌊ts/slide⌋). Unlike Gen
	// it does not depend on where the merged stream started, so it aligns
	// the windows of two streams in time.
	Epoch int64
	// Data holds the raw stream tuples of the basic window.
	Data *bat.Chunk
	// MaxArrival is the latest arrival stamp among the tuples
	// (microseconds), used for response-time accounting. Zero for empty
	// basic windows.
	MaxArrival int64
	// Out caches the per-basic-window pipeline output (incremental mode,
	// non-aggregate path and the inputs of join plans).
	Out *bat.Chunk
	// Partial caches the per-basic-window partial aggregate (incremental
	// mode, aggregate path).
	Partial *bat.Chunk
	// Merged, when non-nil, is the group-resolved full-window merged view
	// this basic window completed: the member's merge class evaluated the
	// merge once for every member, and the tail only runs its private
	// post-merge fragment over it. Set by shared-merge group members whose
	// post fragment did not register in the post-merge trie.
	Merged *bat.Chunk
	// Final, when non-nil, is the complete per-slide result for the
	// window this basic window completed: merge AND post-merge fragment
	// were resolved through the group's shared machinery, and the tail
	// only emits. Merged and Final are mutually exclusive.
	Final *bat.Chunk
	// Free, when non-nil, releases the basic window's share of a group's
	// refcounted data buffer. Query-group members set it; standalone
	// factories leave it nil.
	Free func()
}

// ReleaseData drops the basic window's raw tuples and fires the Free hook
// exactly once. Callers use it when the raw data is no longer needed: an
// incremental tail after caching its intermediates, or any tail when the
// basic window leaves its ring.
func (bw *BW) ReleaseData() {
	bw.Data = nil
	if bw.Free != nil {
		f := bw.Free
		bw.Free = nil
		f()
	}
}

// Slicer cuts a stream's arriving tuples into basic windows. Tuple windows
// close after exactly Slide tuples; time windows close when the stream's
// ordering attribute crosses a slide-aligned bucket boundary (streams are
// assumed in arrival order on that attribute, which is what DataCell's
// baskets preserve). Time gaps emit empty basic windows so the ring stays
// aligned with wall-clock slides.
type Slicer struct {
	w      *plan.Window
	schema bat.Schema

	buf    *bat.Chunk
	maxArr int64

	// Time-window state.
	started   bool
	bucket    int64 // current bucket index = floor(ts / slide)
	nextGen   int64
	slideUsec int64
}

// NewSlicer builds a slicer for a stream scan's bound window.
func NewSlicer(w *plan.Window, schema bat.Schema) *Slicer {
	s := &Slicer{w: w, schema: schema, buf: bat.NewChunk(schema)}
	if !w.Tuples {
		s.slideUsec = w.SlideDur.Microseconds()
	}
	return s
}

// Push feeds newly arrived tuples (with their arrival stamps) into the
// slicer and returns the basic windows that completed.
func (s *Slicer) Push(c *bat.Chunk, arrivals bat.Ints) []*BW {
	if s.w.Tuples {
		return s.pushTuples(c, arrivals)
	}
	return s.pushTime(c, arrivals)
}

func (s *Slicer) pushTuples(c *bat.Chunk, arrivals bat.Ints) []*BW {
	var done []*BW
	rows := c.Rows()
	pos := 0
	for pos < rows {
		need := int(s.w.Slide) - s.buf.Rows()
		take := rows - pos
		if take > need {
			take = need
		}
		s.buf.AppendChunk(c.Slice(pos, pos+take))
		for _, a := range arrivals[pos : pos+take] {
			if a > s.maxArr {
				s.maxArr = a
			}
		}
		pos += take
		if s.buf.Rows() == int(s.w.Slide) {
			done = append(done, s.closeBuf())
		}
	}
	return done
}

func (s *Slicer) pushTime(c *bat.Chunk, arrivals bat.Ints) []*BW {
	var done []*BW
	ts := bat.AsInts(c.Cols[s.w.TimeIdx])
	rows := c.Rows()
	for i := 0; i < rows; i++ {
		b := ts[i] / s.slideUsec
		if ts[i] < 0 {
			// Floor division for negative timestamps.
			if ts[i]%s.slideUsec != 0 {
				b--
			}
		}
		if !s.started {
			s.started = true
			s.bucket = b
		}
		// Close the current bucket, plus empty buckets for any gap.
		for s.bucket < b {
			done = append(done, s.closeBuf())
			s.bucket++
		}
		// Late tuples (b < s.bucket) are clamped into the open bucket;
		// DataCell consumes baskets in arrival order, so this only happens
		// on slightly out-of-order sources.
		s.buf.AppendChunk(c.Slice(i, i+1))
		if arrivals[i] > s.maxArr {
			s.maxArr = arrivals[i]
		}
	}
	return done
}

// AdvanceTime closes time buckets up to (excluding) the bucket containing
// ts. It implements the scheduler's time constraints: an idle stream's
// open windows can be forced shut by a heartbeat watermark.
func (s *Slicer) AdvanceTime(ts int64) []*BW {
	if s.w.Tuples || !s.started {
		return nil
	}
	var done []*BW
	b := ts / s.slideUsec
	for s.bucket < b {
		done = append(done, s.closeBuf())
		s.bucket++
	}
	return done
}

func (s *Slicer) closeBuf() *BW {
	bw := &BW{Gen: s.nextGen, Data: s.buf, MaxArrival: s.maxArr}
	s.nextGen++
	s.buf = bat.NewChunk(s.schema)
	s.maxArr = 0
	return bw
}

// Pending reports how many tuples are buffered in the open basic window.
func (s *Slicer) Pending() int { return s.buf.Rows() }

// Ring keeps the last n basic windows — the live window contents.
type Ring struct {
	n   int
	bws []*BW
}

// NewRing builds a ring holding n basic windows.
func NewRing(n int) *Ring {
	if n <= 0 {
		panic(fmt.Sprintf("window: ring of %d basic windows", n))
	}
	return &Ring{n: n}
}

// Push appends a basic window, evicting the oldest when the ring is full.
// It returns the evicted basic window (nil if none).
func (r *Ring) Push(bw *BW) *BW {
	r.bws = append(r.bws, bw)
	if len(r.bws) > r.n {
		old := r.bws[0]
		// Copy down rather than re-slicing so evicted windows are GC-able.
		copy(r.bws, r.bws[1:])
		r.bws = r.bws[:r.n]
		return old
	}
	return nil
}

// Full reports whether the ring holds a complete window.
func (r *Ring) Full() bool { return len(r.bws) == r.n }

// Live returns the current basic windows, oldest first.
func (r *Ring) Live() []*BW { return r.bws }

// Parts reports the ring capacity.
func (r *Ring) Parts() int { return r.n }

// MaxArrival reports the latest arrival stamp across live basic windows.
func (r *Ring) MaxArrival() int64 {
	var m int64
	for _, bw := range r.bws {
		if bw.MaxArrival > m {
			m = bw.MaxArrival
		}
	}
	return m
}

// ConcatData concatenates the raw tuples of the live basic windows — the
// full current window, used by the re-evaluation mode.
func (r *Ring) ConcatData(schema bat.Schema) *bat.Chunk {
	out := bat.NewChunk(schema)
	for _, bw := range r.bws {
		out.AppendChunk(bw.Data)
	}
	return out
}

// ConcatOuts concatenates the cached pipeline outputs of the live basic
// windows — the merged intermediate for non-aggregate incremental plans.
func (r *Ring) ConcatOuts(schema bat.Schema) *bat.Chunk {
	out := bat.NewChunk(schema)
	for _, bw := range r.bws {
		if bw.Out != nil {
			out.AppendChunk(bw.Out)
		}
	}
	return out
}

// ConcatPartials concatenates the cached partial aggregates; feeding the
// result through plan.MergeAggregate yields the full-window aggregate.
func (r *Ring) ConcatPartials(schema bat.Schema) *bat.Chunk {
	out := bat.NewChunk(schema)
	for _, bw := range r.bws {
		if bw.Partial != nil {
			out.AppendChunk(bw.Partial)
		}
	}
	return out
}
