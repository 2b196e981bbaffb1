package snapshot

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/emitter"
	"datacell/internal/plan"
	"datacell/internal/window"
)

// sampleSnapshot builds a representative checkpoint: two streams, tuple
// and time specs, shards with rows, open epochs, and unacked outbox
// frames — every branch of the codec.
func sampleSnapshot() *Snapshot {
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	chunk := func(n, off int) *bat.Chunk {
		ts := make(bat.Times, n)
		ks := make(bat.Ints, n)
		vs := make(bat.Floats, n)
		for i := range ts {
			ts[i] = int64(off+i) * 1000
			ks[i] = int64(i % 3)
			vs[i] = float64(i) / 2
		}
		return &bat.Chunk{Schema: sch, Cols: []bat.Vector{ts, ks, vs}}
	}
	tupleWin := &plan.Window{Tuples: true, Size: 20, Slide: 10}
	timeWin := &plan.Window{Range: 2 * time.Second, SlideDur: time.Second, TimeIdx: 0}
	return &Snapshot{
		Index: 1,
		TxSeq: 41,
		RxSeq: 117,
		Outbox: []emitter.Frame{
			{Type: 13, Seq: 40, Payload: []byte("frag-bytes")},
			{Type: 13, Seq: 41, Payload: nil},
		},
		Streams: []StreamState{
			{
				Name:    "s",
				Schema:  sch,
				Shards:  4,
				Settled: 220,
				Times:   []int64{5_000_000, math.MinInt64, math.MinInt64},
				Specs: []SpecState{
					{ID: 1, Win: tupleWin},
					{ID: 2, Win: timeWin},
				},
				Locals: []ShardState{
					{
						Global: 2,
						Basket: basket.State{
							Base: 30, NextSeq: 7, TotalIn: 45,
							Rows:     chunk(15, 30),
							Arrivals: bat.Ints{200, 200, 201, 202, 202, 203, 203, 204, 204, 205, 206, 207, 208, 209, 210},
							Seqs:     bat.Ints{30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44},
						},
						Specs: []ShardSpecState{
							{
								Spec: 1, Cursor: 38, SentWm: 190,
								Slicer: window.SlicerState{
									NextGen: 4, MaxGen: 3,
									Open: []window.OpenEpoch{
										{Gen: 3, MaxArrival: 203, Data: chunk(6, 30)},
										{Gen: 4, MaxArrival: 209, Data: chunk(2, 36)},
									},
								},
							},
							{
								Spec: 2, Cursor: 45, SentWm: 4_000_000,
								Slicer: window.SlicerState{NextGen: 0, MaxGen: 5},
							},
						},
					},
					{
						Global: 3,
						Basket: basket.State{Rows: chunk(0, 0), Arrivals: bat.Ints{}, Seqs: bat.Ints{}},
					},
				},
			},
			{Name: "t", Schema: sch, Shards: 2, Settled: -1},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	enc := Encode(nil, want)
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Semantic spot checks plus byte-identity of the re-encoding (the
	// encoding is canonical; decode may normalize nil vs empty slices, so
	// the re-encoding — not DeepEqual — is the round-trip oracle).
	if got.Index != want.Index || got.TxSeq != want.TxSeq || got.RxSeq != want.RxSeq {
		t.Fatalf("cursors diverge: %+v vs %+v", got, want)
	}
	if len(got.Outbox) != 2 || got.Outbox[0].Seq != 40 || string(got.Outbox[0].Payload) != "frag-bytes" {
		t.Fatalf("outbox diverges: %+v", got.Outbox)
	}
	if len(got.Streams) != 2 || got.Streams[0].Name != "s" || got.Streams[0].Settled != 220 {
		t.Fatalf("streams diverge: %+v", got.Streams)
	}
	sh := got.Streams[0].Locals[0]
	if sh.Global != 2 || sh.Basket.Base != 30 || sh.Basket.Rows.Rows() != 15 ||
		len(sh.Specs) != 2 || len(sh.Specs[0].Slicer.Open) != 2 ||
		sh.Specs[0].Slicer.Open[1].Data.Rows() != 2 {
		t.Fatalf("shard state diverges: %+v", sh)
	}
	if w := got.Streams[0].Specs[1].Win; w.Tuples || w.Range != 2*time.Second || w.SlideDur != time.Second {
		t.Fatalf("time window diverges: %+v", w)
	}
	if !bytes.Equal(Encode(nil, got), enc) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

func TestShardStateRoundTrip(t *testing.T) {
	want := &sampleSnapshot().Streams[0].Locals[0]
	enc := AppendShardState(nil, want)
	var got ShardState
	rest, err := ReadShardState(enc, &got)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	if !bytes.Equal(AppendShardState(nil, &got), enc) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

// TestDecodeMalformed pins that truncations and corruptions of a valid
// snapshot error out rather than panic or succeed silently.
func TestDecodeMalformed(t *testing.T) {
	enc := Encode(nil, sampleSnapshot())
	if _, err := Decode(nil); err == nil {
		t.Fatal("decoded empty input")
	}
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("decoded truncation at %d", cut)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Fatal("decoded bad magic")
	}
	for _, v := range []byte{version - 1, version + 1} {
		bad = append([]byte(nil), enc...)
		bad[4] = v
		if _, err := Decode(bad); err == nil {
			t.Fatalf("decoded unsupported version %d", v)
		}
	}
}

func TestStoreSaveLoadRemove(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps") // Save must MkdirAll
	if s, err := Load(dir, 3); err != nil || s != nil {
		t.Fatalf("missing snapshot: got (%v, %v), want (nil, nil)", s, err)
	}
	want := sampleSnapshot()
	if err := Save(dir, 3, Encode(nil, want)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(nil, got), Encode(nil, want)) {
		t.Fatal("loaded snapshot differs from saved")
	}
	// Overwrite goes through a temp file + rename; no temp litter remains.
	if err := Save(dir, 3, Encode(nil, want)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "worker-3.snap" {
		t.Fatalf("directory not clean after overwrite: %v", entries)
	}
	// A corrupt file surfaces as an error, not a panic or a nil snapshot.
	if err := os.WriteFile(FileName(dir, 3), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 3); err == nil {
		t.Fatal("loaded corrupt snapshot")
	}
	Remove(dir, 3)
	if s, err := Load(dir, 3); err != nil || s != nil {
		t.Fatalf("after Remove: got (%v, %v), want (nil, nil)", s, err)
	}
}

// FuzzSnapshotRoundTrip pins the decoder's two safety properties:
// arbitrary input never panics, and anything that decodes re-encodes to a
// canonical fixed point (encode∘decode is identity on encoder output).
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(Encode(nil, sampleSnapshot()))
	f.Add(Encode(nil, &Snapshot{}))
	f.Add([]byte("DCSN\x02"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		enc := Encode(nil, s)
		s2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v", err)
		}
		if !bytes.Equal(Encode(nil, s2), enc) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}
