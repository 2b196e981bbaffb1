package window

import (
	"testing"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/plan"
)

// firstInt is the address of a column's first element: two vectors with
// the same one share a backing array.
func firstInt(v bat.Vector) *int64 { return &bat.AsInts(v)[0] }

// TestSingleRunEpochSharesBasketSegment: a tuple epoch cut from one run of
// one basket segment is a view over that segment — slicing copies nothing
// — and merging a lone fragment into a basic window adopts the same array.
func TestSingleRunEpochSharesBasketSegment(t *testing.T) {
	bk := basket.New("s", shardSchema())
	cid := bk.Register()
	if err := bk.Append(shardChunk(10, 11, 12, 13), 7); err != nil {
		t.Fatal(err)
	}
	var seg *bat.Chunk
	var arrivals, seqs bat.Ints
	bk.ConsumeEach(cid, func(c *bat.Chunk, arr, ss bat.Ints) { seg, arrivals, seqs = c, arr, ss })

	w := &plan.Window{Tuples: true, Size: 8, Slide: 4}
	s := NewShardSlicer(w, shardSchema())
	s.Push(seg, nil, arrivals, seqs)
	frags := s.Flush(1)
	if len(frags) != 1 || frags[0].Data.Rows() != 4 {
		t.Fatalf("frags = %+v", frags)
	}
	for i := range seg.Cols {
		if firstInt(frags[0].Data.Chunks[0].Cols[i]) != firstInt(seg.Cols[i]) {
			t.Fatalf("column %d of the epoch was copied out of its basket segment", i)
		}
	}

	m := NewShardMerge(MergeConfig{Shards: 1, Data: shardSchema()})
	bws := m.Offer(0, frags, s.Watermark())
	if len(bws) != 1 || bws[0].MaxArrival != 7 {
		t.Fatalf("basic windows = %+v", bws)
	}
	for i := range seg.Cols {
		if firstInt(bws[0].Data.Chunks[0].Cols[i]) != firstInt(seg.Cols[i]) {
			t.Fatalf("column %d of a one-fragment basic window was copied", i)
		}
	}
}

// TestEpochRunsAppendWithoutWritingSegment: an epoch's later runs are
// listed after its first one, nothing is copied, and the basket rows after
// the first view — which the producer has already filled — are untouched.
// Two basic windows cut from two shards' fragments list all their runs in
// shard order, again without a copy.
func TestEpochRunsAppendWithoutWritingSegment(t *testing.T) {
	bk := basket.New("s", shardSchema())
	cid := bk.Register()
	_ = bk.Append(shardChunk(10, 11), 1)
	var first *bat.Chunk
	var arr, seqs bat.Ints
	bk.ConsumeEach(cid, func(c *bat.Chunk, arrivals, ss bat.Ints) { first, arr, seqs = c, arrivals, ss })
	_ = bk.Append(shardChunk(12, 13), 2) // same segment, right after the view

	w := &plan.Window{Tuples: true, Size: 16, Slide: 8}
	s := NewShardSlicer(w, shardSchema())
	s.Push(first, nil, arr, seqs)
	s.Push(shardChunk(90, 91), nil, bat.Ints{3, 3}, seqsOf(2, 3))
	var next *bat.Chunk
	bk.ConsumeEach(cid, func(c *bat.Chunk, _, _ bat.Ints) { next = c })
	if next.String() != shardChunk(12, 13).String() {
		t.Fatalf("appending to the epoch wrote into the basket segment:\n%s", next)
	}
	frags := s.Flush(1)
	if len(frags) != 1 || frags[0].Data.Concat().String() != shardChunk(10, 11, 90, 91).String() || frags[0].MaxArrival != 3 {
		t.Fatalf("epoch 0 = %+v", frags)
	}
	if runs := frags[0].Data.Chunks; len(runs) != 2 || firstInt(runs[0].Cols[1]) != firstInt(first.Cols[1]) {
		t.Fatalf("epoch 0 is not its two runs, the first over the basket segment: %+v", runs)
	}

	other := NewShardSlicer(w, shardSchema())
	other.Push(shardChunk(50, 51), nil, bat.Ints{4, 4}, seqsOf(4, 5))
	m := NewShardMerge(MergeConfig{Shards: 2, Data: shardSchema()})
	m.Offer(1, frags, s.Watermark())
	bws := m.Offer(0, other.Flush(1), other.Watermark())
	if len(bws) != 1 || bws[0].Data.Concat().String() != shardChunk(50, 51, 10, 11, 90, 91).String() {
		t.Fatalf("basic window = %+v", bws)
	}
	if runs := bws[0].Data.Chunks; len(runs) != 3 || firstInt(runs[1].Cols[1]) != firstInt(first.Cols[1]) {
		t.Fatalf("basic window runs were copied or reordered: %+v", runs)
	}
}
