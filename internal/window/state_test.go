package window

import (
	"bytes"
	"testing"

	"datacell/internal/bat"
	"datacell/internal/plan"
)

func slicerChunk(t *testing.T, lo, hi int) (*bat.Chunk, bat.Ints, bat.Ints) {
	t.Helper()
	sch := bat.NewSchema([]string{"ts", "v"}, []bat.Kind{bat.Time, bat.Float})
	n := hi - lo
	ts := make(bat.Times, n)
	vs := make(bat.Floats, n)
	arr := make(bat.Ints, n)
	seqs := make(bat.Ints, n)
	for i := range ts {
		g := lo + i
		ts[i] = int64(g) * 1000
		vs[i] = float64(g)
		arr[i] = int64(100 + g)
		seqs[i] = int64(g)
	}
	return &bat.Chunk{Schema: sch, Cols: []bat.Vector{ts, vs}}, arr, seqs
}

// cloneSlicerState deep-copies an exported image the way the snapshot
// codec does (ExportState returns views; the restore side owns memory).
func cloneSlicerState(t *testing.T, st SlicerState) SlicerState {
	t.Helper()
	out := SlicerState{NextGen: st.NextGen, MaxGen: st.MaxGen}
	for _, e := range st.Open {
		data, _, err := bat.UnmarshalChunk(bat.MarshalChunk(nil, e.Data))
		if err != nil {
			t.Fatal(err)
		}
		out.Open = append(out.Open, OpenEpoch{Gen: e.Gen, MaxArrival: e.MaxArrival, Data: data})
	}
	return out
}

// TestSlicerStateRoundTrip pins the worker-restore contract for the
// slicer: a ShardSlicer rebuilt mid-epoch from an exported image, fed the
// same remaining rows, flushes byte-identical fragments to the original.
func TestSlicerStateRoundTrip(t *testing.T) {
	win := &plan.Window{Tuples: true, Size: 4, Slide: 2}
	c1, arr1, seqs1 := slicerChunk(t, 0, 5)
	s := NewShardSlicer(win, c1.Schema)
	s.Push(c1, nil, arr1, seqs1)

	st := cloneSlicerState(t, s.ExportState())
	if len(st.Open) == 0 {
		t.Fatal("exported no open epochs; the test needs a mid-epoch image")
	}
	s2 := NewShardSlicerFromState(win, c1.Schema, st)
	if s2.Watermark() != s.Watermark() {
		t.Fatalf("restored watermark %d, original %d", s2.Watermark(), s.Watermark())
	}
	if s2.Pending() != s.Pending() {
		t.Fatalf("restored pending %d, original %d", s2.Pending(), s.Pending())
	}

	c2, arr2, seqs2 := slicerChunk(t, 5, 9)
	s.Push(c2, nil, arr2, seqs2)
	s2.Push(c2, nil, arr2, seqs2)
	for _, wm := range []int64{2, 4, 5} {
		fa, fb := s.Flush(wm), s2.Flush(wm)
		if len(fa) != len(fb) {
			t.Fatalf("wm %d: original flushed %d frags, restored %d", wm, len(fa), len(fb))
		}
		for i := range fa {
			a, b := MarshalFrag(nil, fa[i]), MarshalFrag(nil, fb[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("wm %d frag %d diverges:\noriginal %+v\nrestored %+v", wm, i, fa[i], fb[i])
			}
		}
	}
}
