package window

import (
	"testing"
	"time"

	"datacell/internal/bat"
	"datacell/internal/plan"
)

func shardSchema() bat.Schema {
	return bat.NewSchema([]string{"ts", "v"}, []bat.Kind{bat.Time, bat.Int})
}

func shardChunk(ts ...int64) *bat.Chunk {
	c := bat.NewChunk(shardSchema())
	for _, t := range ts {
		_ = c.AppendRow(bat.TimeValue(t), bat.IntValue(t))
	}
	return c
}

func seqsOf(vals ...int64) bat.Ints { return bat.Ints(vals) }

func TestShardSlicerTupleEpochs(t *testing.T) {
	w := &plan.Window{Tuples: true, Size: 4, Slide: 2}
	s := NewShardSlicer(w, shardSchema())
	// This shard holds global rows 0, 3, 4 (rows 1, 2, 5 went elsewhere).
	s.Push(shardChunk(10, 13, 14), nil, seqsOf(1, 1, 1), seqsOf(0, 3, 4))
	if got := s.Pending(); got != 3 {
		t.Fatalf("pending = %d", got)
	}
	// Watermark 2 (settled=4, slide=2): seals epochs 0 and 1.
	frags := s.Flush(2)
	if len(frags) != 2 || frags[0].Gen != 0 || frags[1].Gen != 1 {
		t.Fatalf("frags = %+v", frags)
	}
	if frags[0].Data.Rows() != 1 || frags[1].Data.Rows() != 1 {
		t.Fatalf("fragment sizes wrong: %d, %d", frags[0].Data.Rows(), frags[1].Data.Rows())
	}
	if s.Watermark() != 2 {
		t.Errorf("watermark = %d", s.Watermark())
	}
	// Epoch 2 (seq 4) still open; re-flushing at the same watermark is a
	// no-op.
	if got := s.Flush(2); got != nil {
		t.Errorf("re-flush produced %v", got)
	}
	if got := s.Flush(3); len(got) != 1 || got[0].Gen != 2 {
		t.Errorf("epoch 2 flush = %v", got)
	}
}

func TestShardSlicerTimeBucketsAndClamp(t *testing.T) {
	w := &plan.Window{Range: 2 * time.Second, SlideDur: time.Second, TimeIdx: 0}
	s := NewShardSlicer(w, shardSchema())
	sec := int64(1_000_000)
	s.Push(shardChunk(sec/2, sec+sec/2), nil, seqsOf(1, 2), seqsOf(0, 1))
	frags := s.Flush(s.TimeGen(sec + sec/2))
	if len(frags) != 1 || frags[0].Gen != 0 {
		t.Fatalf("frags = %+v", frags)
	}
	// A late tuple for the flushed bucket 0 clamps into the oldest open
	// epoch (bucket 1), like the pre-sharding slicer.
	s.Push(shardChunk(sec/4), nil, seqsOf(3), seqsOf(2))
	frags = s.Flush(3)
	if len(frags) != 1 || frags[0].Gen != 1 || frags[0].Data.Rows() != 2 {
		t.Fatalf("clamped frags = %+v", frags)
	}
}

func TestShardMergeCompletesAtMinWatermark(t *testing.T) {
	sch := shardSchema()
	m := NewShardMerge(MergeConfig{Shards: 2, Data: sch})
	// Shard 0 delivers epoch 0 data and watermark 1; epoch 0 is not
	// complete until shard 1's watermark passes it too.
	bws := m.Offer(0, []*Frag{{Gen: 0, Data: runsOf(shardChunk(1, 2)), MaxArrival: 5}}, 1)
	if bws != nil {
		t.Fatalf("completed before min watermark: %v", bws)
	}
	bws = m.Offer(1, []*Frag{{Gen: 0, Data: runsOf(shardChunk(3)), MaxArrival: 9}}, 1)
	if len(bws) != 1 || bws[0].Gen != 0 || bws[0].Data.Rows() != 3 || bws[0].MaxArrival != 9 {
		t.Fatalf("merged bw = %+v", bws)
	}
	// Gap epochs below the joint watermark emit empty basic windows with
	// consecutive generations.
	m.Offer(0, nil, 4)
	bws = m.Offer(1, []*Frag{{Gen: 3, Data: runsOf(shardChunk(7))}}, 4)
	if len(bws) != 3 {
		t.Fatalf("gap fill: %d bws, want 3", len(bws))
	}
	if bws[0].Gen != 1 || bws[0].Data.Rows() != 0 || bws[2].Gen != 3 || bws[2].Data.Rows() != 1 {
		t.Fatalf("gap bws = %+v", bws)
	}
}

func TestShardMergeStartsAtFirstEpoch(t *testing.T) {
	sch := shardSchema()
	m := NewShardMerge(MergeConfig{Shards: 2, Data: sch})
	// Time windows start at an absolute bucket (here 10); the merged
	// stream renumbers output generations from 0.
	m.Offer(0, []*Frag{{Gen: 10, Data: runsOf(shardChunk(1))}}, 12)
	bws := m.Offer(1, nil, 12)
	if len(bws) != 2 || bws[0].Gen != 0 || bws[1].Gen != 1 {
		t.Fatalf("bws = %+v", bws)
	}
	if bws[0].Data.Rows() != 1 || bws[1].Data.Rows() != 0 {
		t.Fatalf("bw contents wrong")
	}
}

// TestShardSlicerLateTupleParity pins single-basket parity for
// out-of-order time tuples inside one batch: a row older than the newest
// seen epoch folds into that epoch (the pre-sharding slicer's rule), so
// at 1 shard window assignment is bit-identical to the old engine.
func TestShardSlicerLateTupleParity(t *testing.T) {
	w := &plan.Window{Range: 2 * time.Second, SlideDur: time.Second, TimeIdx: 0}
	s := NewShardSlicer(w, shardSchema())
	sec := int64(1_000_000)
	// Batch arrives out of order: 7.3s then 5.1s. The old engine put both
	// rows in bucket 7; so must we.
	s.Push(shardChunk(7*sec+sec/4, 5*sec+sec/10), nil, seqsOf(1, 2), seqsOf(0, 1))
	if got := s.Flush(s.TimeGen(7*sec + sec/4)); got != nil {
		t.Fatalf("late tuple escaped into its own epoch: %+v", got)
	}
	if got := s.Pending(); got != 2 {
		t.Fatalf("pending = %d, want both rows in the newest epoch", got)
	}
	frags := s.Flush(8)
	if len(frags) != 1 || frags[0].Gen != 7 || frags[0].Data.Rows() != 2 {
		t.Fatalf("frags = %+v, want one 2-row fragment in epoch 7", frags)
	}
}
