package window

import (
	"reflect"
	"testing"

	"datacell/internal/bat"
)

// runsOf lists chunks as one run list with the first chunk's schema.
func runsOf(chunks ...*bat.Chunk) *bat.Runs { return bat.NewRuns(chunks[0].Schema, chunks...) }

// concatOrNil is the dense form of a run list, nil for none.
func concatOrNil(r *bat.Runs) *bat.Chunk {
	if r == nil {
		return nil
	}
	return r.Concat()
}

func codecChunk(vals ...int64) *bat.Chunk {
	sch := bat.NewSchema([]string{"k"}, []bat.Kind{bat.Int})
	return &bat.Chunk{Schema: sch, Cols: []bat.Vector{bat.Ints(append([]int64{}, vals...))}}
}

func TestFragCodecRoundTrip(t *testing.T) {
	want := &Frag{Gen: 17, Shard: 3, MaxArrival: 99, Data: runsOf(codecChunk(4), codecChunk(5))}
	buf := MarshalFrag(nil, want)
	got, rest, err := UnmarshalFrag(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v rest=%d", err, len(rest))
	}
	if got.Gen != want.Gen || got.Shard != want.Shard || got.MaxArrival != want.MaxArrival {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if g, w := got.Data.Concat(), want.Data.Concat(); !reflect.DeepEqual(g.Cols, w.Cols) {
		t.Fatalf("data = %v, want %v", g.Cols, w.Cols)
	}
	// Truncations error.
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := UnmarshalFrag(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

// TestShardMergeCanonicalOrder pins the fabric-critical determinism
// invariant: an epoch's fragments concatenate in shard order no matter
// which shard's flush reached the merger first.
func TestShardMergeCanonicalOrder(t *testing.T) {
	sch := bat.NewSchema([]string{"k"}, []bat.Kind{bat.Int})
	build := func(order []int) []int64 {
		m := NewShardMerge(MergeConfig{Shards: 3, Data: sch})
		var out []*BW
		for _, sh := range order {
			frag := &Frag{Gen: 0, Data: runsOf(codecChunk(int64(sh*10), int64(sh*10+1)))}
			out = append(out, m.Offer(sh, []*Frag{frag}, 1)...)
		}
		if len(out) != 1 {
			t.Fatalf("order %v sealed %d windows, want 1", order, len(out))
		}
		return bat.AsInts(out[0].Data.Concat().Cols[0])
	}
	want := build([]int{0, 1, 2})
	for _, order := range [][]int{{2, 1, 0}, {1, 0, 2}, {2, 0, 1}} {
		if got := build(order); !reflect.DeepEqual(got, want) {
			t.Fatalf("delivery order %v produced %v, want %v", order, got, want)
		}
	}
}
