package emitter

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame pins the frame decoder's safety properties: arbitrary
// bytes never panic (malformed input errors), and any frame that parses
// survives a write→read round trip intact.
func FuzzReadFrame(f *testing.F) {
	seed := func(fr Frame) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(Frame{Type: 1, Seq: 7, Payload: []byte("hello")}))
	f.Add(seed(Frame{Type: 13, Seq: 1 << 40}))
	// The fabric's coalesced traffic: a batch frame (type 18) whose payload
	// concatenates {type, uvarint len, payload} sub-frames — here a spec
	// (type 6, as a join side registers per side) and a fragment (type 13)
	// — and a type the fabric no longer defines (19, the retired
	// data-plane handshake, carrying a version-3 Hello). The framing layer
	// treats types and payloads as opaque; these seeds keep the corpus
	// shaped like live traffic.
	f.Add(seed(Frame{Type: 18, Seq: 3, Payload: []byte{6, 4, 14, 1, 115, 0, 13, 2, 9, 9}}))
	f.Add(seed(Frame{Type: 19, Seq: 1, Payload: []byte{3, 1, 0, 3, 119, 45, 49, 0}}))
	f.Add([]byte(nil))
	// Oversized length prefix: must be rejected before allocation.
	huge := make([]byte, frameHeaderLen)
	binary.BigEndian.PutUint32(huge, MaxFramePayload+1)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("re-write of parsed frame failed: %v", err)
		}
		fr2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if fr2.Type != fr.Type || fr2.Seq != fr.Seq || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("round trip diverged: %+v vs %+v", fr, fr2)
		}
	})
}
