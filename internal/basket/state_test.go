package basket

import (
	"testing"

	"datacell/internal/bat"
)

func stateChunk(t *testing.T, n, off int) (*bat.Chunk, bat.Ints) {
	t.Helper()
	sch := bat.NewSchema([]string{"ts", "v"}, []bat.Kind{bat.Time, bat.Float})
	ts := make(bat.Times, n)
	vs := make(bat.Floats, n)
	seqs := make(bat.Ints, n)
	for i := range ts {
		ts[i] = int64(off+i) * 1000
		vs[i] = float64(off + i)
		seqs[i] = int64(off + i)
	}
	return &bat.Chunk{Schema: sch, Cols: []bat.Vector{ts, vs}}, seqs
}

// cloneState deep-copies an exported image the way the snapshot codec
// does (ExportState returns views; NewFromState must adopt owned memory).
func cloneState(t *testing.T, st State) State {
	t.Helper()
	rows, _, err := bat.UnmarshalChunk(bat.MarshalChunk(nil, st.Rows))
	if err != nil {
		t.Fatal(err)
	}
	return State{
		Base:     st.Base,
		NextSeq:  st.NextSeq,
		TotalIn:  st.TotalIn,
		Rows:     rows,
		Arrivals: append(bat.Ints(nil), st.Arrivals...),
		Seqs:     append(bat.Ints(nil), st.Seqs...),
	}
}

// TestBasketStateRoundTrip pins the worker-restore contract: a basket
// rebuilt from an exported image, with its consumer re-registered at the
// tracked cursor, serves exactly the rows the original would have.
func TestBasketStateRoundTrip(t *testing.T) {
	c1, s1 := stateChunk(t, 10, 0)
	b := New("s/0", c1.Schema)
	if err := b.AppendSeqs(c1, 100, s1); err != nil {
		t.Fatal(err)
	}
	id := b.RegisterAt(0)
	b.Consume(id, 4)

	st := cloneState(t, b.ExportState())
	if st.Base != 0 || st.TotalIn != 10 || st.Rows.Rows() != 10 {
		t.Fatalf("unexpected image: %+v", st)
	}
	cur, ok := b.Cursor(id)
	if !ok || cur != 4 {
		t.Fatalf("cursor = (%d, %v), want (4, true)", cur, ok)
	}

	b2 := NewFromState("s/0", c1.Schema, st)
	id2 := b2.RegisterAt(cur)
	if got, _ := b2.Cursor(id2); got != 4 {
		t.Fatalf("restored cursor = %d, want 4", got)
	}
	if got, want := b2.Available(id2), b.Available(id); got != want {
		t.Fatalf("restored Available = %d, original %d", got, want)
	}

	// Both baskets receive the same new rows; their full contents and the
	// consumer's pending view must stay identical.
	c2, s2 := stateChunk(t, 5, 10)
	for _, bk := range []*Basket{b, b2} {
		if err := bk.AppendSeqs(c2, 101, s2); err != nil {
			t.Fatal(err)
		}
	}
	gotC, gotSeqs := b2.SnapshotSeqs()
	wantC, wantSeqs := b.SnapshotSeqs()
	if gotC.String() != wantC.String() {
		t.Fatalf("contents diverge:\nrestored:\n%s\noriginal:\n%s", gotC, wantC)
	}
	if len(gotSeqs) != len(wantSeqs) {
		t.Fatalf("seq stamps diverge: %v vs %v", gotSeqs, wantSeqs)
	}
	for i := range wantSeqs {
		if gotSeqs[i] != wantSeqs[i] {
			t.Fatalf("seq stamps diverge at %d: %v vs %v", i, gotSeqs, wantSeqs)
		}
	}

	// RegisterAt clamps into the buffered range.
	if lo := b2.RegisterAt(-99); func() int64 { c, _ := b2.Cursor(lo); return c }() != 0 {
		t.Fatal("RegisterAt did not clamp below base")
	}
	if hi := b2.RegisterAt(1 << 40); func() int64 { c, _ := b2.Cursor(hi); return c }() != 15 {
		t.Fatal("RegisterAt did not clamp above end")
	}

	// The restored image is one segment and the new rows another: the
	// consumer drains them segment by segment.
	var pseqs bat.Ints
	for {
		_, _, seqs := b2.PeekSeqs(id2, 1<<30)
		if seqs == nil {
			break
		}
		pseqs = append(pseqs, seqs...)
		b2.Consume(id2, int64(len(seqs)))
	}
	if len(pseqs) != 11 || pseqs[0] != 4 {
		t.Fatalf("restored consumer sees seqs %v, want 11 from 4", pseqs)
	}
}
