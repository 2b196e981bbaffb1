// Package window implements the sliding-window machinery of DataCell's
// incremental processing mode (paper §3): windows are partitioned into
// basic windows — "each basic window is of equal size to the sliding step"
// — which are processed separately, their columnar intermediates cached,
// and merged per slide. Because whole basic windows expire at once, all
// cached partials stay valid until their basic window leaves the ring; no
// per-tuple invertibility is needed.
//
// Slicing is ShardSlicer + ShardMerge: each shard cuts its own rows into
// globally consistent epochs (by global sequence stamp for tuple windows,
// by absolute slide bucket for time windows) and a per-query merger
// assembles complete basic windows once every shard's flush watermark has
// passed an epoch. The union of the shards' epoch fragments is exactly the
// basic window a single ordered stream would be cut into, so everything
// downstream of the merge — Ring, SharedPairCache, partial-aggregate merging —
// is oblivious to sharding. An unsharded stream is the one-shard case.
//
// Slicing copies nothing: an epoch fragment is the list of basket-segment
// runs its rows arrived in, and a basic window is its fragments' runs in
// shard order (bat.Runs) — the same rows, in the same order, that
// concatenating them would produce. The kernels read through the runs in
// place; a dense copy is made only where a consumer needs one chunk (the
// wire and snapshot encodings, an operator that reorders rows). The runs
// are immutable until released: each run holds a lease on its basket
// segment's storage (bat.Runs), the slicer's fragment takes it and the
// merged basic window inherits it. A query group whose
// members keep nothing but partial aggregates releases a basic window's
// leases when the last reference to the window goes (each holder calls
// BW.Free once), and the basket reuses the storage; everywhere else the leases are dropped unreleased and the
// garbage collector frees the storage once no view references it.
package window

import (
	"fmt"

	"datacell/internal/bat"
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
	// Data holds the raw stream tuples of the basic window: its shards'
	// basket-segment runs in canonical order (shard order, then arrival
	// order within a shard).
	Data *bat.Runs
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
	// Final, when non-nil, is the complete per-slide result for the
	// window this basic window completed: merge AND post-merge fragment
	// were resolved through the group's shared machinery, and the tail
	// only emits.
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

// Ring keeps the last n basic windows — the live window contents — in n
// slots it reuses in place: pushing into a full ring releases the oldest
// window's raw data (ReleaseData) and overwrites its slot. A slot's
// address is stable for the ring's lifetime, so callers may hold slot
// pointers (a join's pair cache reads Gen and Out through them); what a
// slot holds changes on every push that reuses it.
type Ring struct {
	slots []BW
	live  []*BW // the filled slots, oldest first
}

// NewRing builds a ring holding n basic windows.
func NewRing(n int) *Ring {
	if n <= 0 {
		panic(fmt.Sprintf("window: ring of %d basic windows", n))
	}
	return &Ring{slots: make([]BW, n), live: make([]*BW, 0, n)}
}

// Push stores bw as the newest basic window, evicting the oldest when the
// ring is full, and returns the slot that now holds it.
func (r *Ring) Push(bw BW) *BW {
	var slot *BW
	if n := len(r.live); n < len(r.slots) {
		slot = &r.slots[n]
		r.live = append(r.live, slot)
	} else {
		slot = r.live[0]
		slot.ReleaseData()
		copy(r.live, r.live[1:])
		r.live[n-1] = slot
	}
	*slot = bw
	return slot
}

// Full reports whether the ring holds a complete window.
func (r *Ring) Full() bool { return len(r.live) == len(r.slots) }

// Live returns the current basic windows, oldest first.
func (r *Ring) Live() []*BW { return r.live }

// Parts reports the ring capacity.
func (r *Ring) Parts() int { return len(r.slots) }

// MaxArrival reports the latest arrival stamp across live basic windows.
func (r *Ring) MaxArrival() int64 {
	var m int64
	for _, bw := range r.live {
		if bw.MaxArrival > m {
			m = bw.MaxArrival
		}
	}
	return m
}

// Runs lists the raw tuples of the live basic windows as one run list —
// the full current window the re-evaluation mode reads, without copying
// it.
func (r *Ring) Runs(schema bat.Schema) *bat.Runs {
	runs := &bat.Runs{Schema: schema}
	for _, bw := range r.live {
		if bw.Data != nil {
			for _, c := range bw.Data.Chunks {
				runs.Append(c)
			}
		}
	}
	return runs
}

// ConcatOuts concatenates the cached pipeline outputs of the live basic
// windows (nil ones are skipped) — the merged intermediate for
// non-aggregate incremental plans — through bat.Concat: a window whose
// rows all sit in one basic window is that basic window's chunk, uncopied.
// (Partial aggregates are not concatenated: the factory merges them as
// runs.)
func (r *Ring) ConcatOuts(schema bat.Schema) *bat.Chunk {
	chunks := make([]*bat.Chunk, len(r.live))
	rows := 0
	for i, bw := range r.live {
		if bw.Out != nil {
			chunks[i] = bw.Out
			rows += bw.Out.Rows()
		}
	}
	return bat.Concat(schema, chunks, rows)
}
