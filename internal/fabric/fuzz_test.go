package fabric

// Fuzzing of the fabric payload codecs. FuzzReadFrame (internal/emitter)
// covers the outer length-prefixed framing; this target drives the typed
// payload decoders that sit behind it — including the fragment and spec
// traffic a join's two fabric-fed sides generate — and pins a canonical
// round trip: any payload that parses re-marshals to bytes that parse to
// the same marshaling.

import (
	"bytes"
	"testing"

	"datacell/internal/bat"
	"datacell/internal/plan"
	"datacell/internal/window"
)

// The payload kinds the fuzzer dispatches on, mirroring the session frame
// types that carry typed payloads.
const (
	fzHello byte = iota
	fzStream
	fzSpec
	fzAppend
	fzWatermark
	fzFrag
	fzBatch
)

func fuzzChunk() *bat.Chunk {
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	return &bat.Chunk{Schema: sch, Cols: []bat.Vector{
		bat.Times{1000, 2000, 3000},
		bat.Ints{0, 1, 2},
		bat.Floats{0.5, 1.5, 2.5},
	}}
}

func FuzzWirePayloads(f *testing.F) {
	ch := fuzzChunk()
	f.Add(fzHello, marshalHello(helloMsg{Version: protoVersion, Index: 1, Snap: 42, ID: "w-1"}))
	f.Add(fzStream, marshalStream(streamMsg{Name: "s", Schema: ch.Schema, Shards: 4, Lo: 0, Hi: 2}))
	// Join sides register one spec each; the sliding window is the joined
	// window both sides cut at.
	f.Add(fzSpec, marshalSpec(specMsg{ID: 7, Stream: "s", Win: &plan.Window{Size: 24, Slide: 12}}))
	f.Add(fzSpec, marshalSpec(specMsg{ID: 8, Stream: "r", Win: &plan.Window{Size: 24, Slide: 12}}))
	f.Add(fzAppend, marshalAppend(appendMsg{Stream: "s", Shard: 2, Arrival: 5, Seqs: bat.Ints{10, 11, 12}, Chunk: ch}))
	f.Add(fzAppend, marshalAppend(appendMsg{Stream: "r", Shard: 0, Arrival: 5, Seqs: bat.Ints{3, 9, 40}, Chunk: ch}))
	f.Add(fzWatermark, marshalWatermark(watermarkMsg{Stream: "s", Settled: 99, Times: []colTime{{Col: 0, Ts: 5000}, {Col: 2, Ts: -7}}}))
	f.Add(fzFrag, marshalFragMsg(fragMsg{Spec: 7, Shard: 1, Wm: 36, Frags: []*window.Frag{
		{Gen: 3, Shard: 1, Data: bat.NewRuns(ch.Schema, ch), MaxArrival: 5},
		{Gen: 4, Shard: 1, Data: bat.NewRuns(ch.Schema, ch), MaxArrival: 6},
	}}))
	// A coalesced batch as the lanes emit it: spec + append + frag back to
	// back.
	var batch []byte
	batch = appendSubFrame(batch, frameSpec, marshalSpec(specMsg{ID: 9, Stream: "s", Win: &plan.Window{Size: 8, Slide: 8}}))
	batch = appendSubFrame(batch, frameAppend, marshalAppend(appendMsg{Stream: "s", Shard: 1, Arrival: 1, Seqs: bat.Ints{0, 1, 2}, Chunk: ch}))
	batch = appendSubFrame(batch, frameFrag, marshalFragMsg(fragMsg{Spec: 9, Shard: 1, Wm: 8}))
	f.Add(fzBatch, batch)

	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		// remarshal parses data as the given kind and, on success, returns
		// the canonical bytes; a decode error returns nil.
		remarshal := func(src []byte) []byte {
			switch kind {
			case fzHello:
				m, err := unmarshalHello(src)
				if err != nil {
					return nil
				}
				return marshalHello(m)
			case fzStream:
				m, err := unmarshalStream(src)
				if err != nil {
					return nil
				}
				return marshalStream(m)
			case fzSpec:
				m, err := unmarshalSpec(src)
				if err != nil {
					return nil
				}
				return marshalSpec(m)
			case fzAppend:
				m, err := unmarshalAppend(src)
				if err != nil {
					return nil
				}
				return marshalAppend(m)
			case fzWatermark:
				m, err := unmarshalWatermark(src)
				if err != nil {
					return nil
				}
				return marshalWatermark(m)
			case fzFrag:
				m, err := unmarshalFragMsg(src)
				if err != nil {
					return nil
				}
				return marshalFragMsg(m)
			case fzBatch:
				var out []byte
				err := forEachSubFrame(src, func(ty byte, payload []byte) error {
					out = appendSubFrame(out, ty, payload)
					return nil
				})
				if err != nil {
					return nil
				}
				return out
			default:
				return nil
			}
		}
		b1 := remarshal(data)
		if b1 == nil {
			return
		}
		b2 := remarshal(b1)
		if b2 == nil {
			t.Fatalf("kind %d: canonical bytes failed to re-parse (%d bytes)", kind, len(b1))
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("kind %d: round trip diverged:\n%x\n%x", kind, b1, b2)
		}
	})
}
