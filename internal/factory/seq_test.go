package factory

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"datacell/internal/plan"
	"datacell/internal/window"
)

var (
	tupleWin = &plan.Window{Tuples: true, Size: 8, Slide: 4}
	timeWin  = &plan.Window{Range: 3 * time.Second, SlideDur: time.Second}
)

// seqPush is one delivery to a sequencer: an input's freshly sealed
// epochs and its merger's sealed frontier afterwards.
type seqPush struct {
	side   int
	epochs []int64
	sealed int64
}

// runSeq feeds pushes through a sequencer over wins and renders the
// release order as "side:epoch" items.
func runSeq(t *testing.T, wins []*plan.Window, pushes []seqPush) (*inputSeq, string) {
	t.Helper()
	s := newInputSeq(wins)
	if s == nil {
		t.Fatal("no sequencer")
	}
	var got []string
	for _, p := range pushes {
		ready := make([]*window.BW, len(p.epochs))
		for i, e := range p.epochs {
			ready[i] = &window.BW{Epoch: e}
		}
		s.push(p.side, ready, p.sealed, func(idx int, bw *window.BW) {
			got = append(got, fmt.Sprintf("%d:%d", idx, bw.Epoch))
		})
	}
	return s, strings.Join(got, " ")
}

// TestInputSeqCanonicalOrder: whatever order two inputs seal their tuple
// windows in, the sequencer releases them as left 0, right 0, left 1, ...
// — a window goes once the other side's frontier passed its end.
func TestInputSeqCanonicalOrder(t *testing.T) {
	for name, pushes := range map[string][]seqPush{
		"alternating": {{0, []int64{0}, 1}, {1, []int64{0}, 1}, {0, []int64{1}, 2}, {1, []int64{1}, 2}, {0, []int64{2}, 3}, {1, []int64{2}, 3}},
		"left_ahead":  {{0, []int64{0, 1, 2}, 3}, {1, []int64{0}, 1}, {1, []int64{1, 2}, 3}},
		"right_first": {{1, []int64{0, 1}, 2}, {1, []int64{2}, 3}, {0, []int64{0, 1, 2}, 3}},
	} {
		t.Run(name, func(t *testing.T) {
			s, got := runSeq(t, []*plan.Window{tupleWin, tupleWin}, pushes)
			const want = "0:0 1:0 0:1 1:1 0:2 1:2"
			if got != want {
				t.Fatalf("released %q, want %q", got, want)
			}
			for i := range s.ins {
				if n := len(s.ins[i].pending); n != 0 {
					t.Errorf("input %d still holds %d windows", i, n)
				}
			}
		})
	}
}

// TestInputSeqAlignsTimeWindowsByEpoch: time windows pair by event time,
// not by how many windows each side has sealed. The right stream starts
// ten slides after the left one; left buckets 0..9 go first (the right
// ring is empty while they enter), then the two sides interleave bucket
// by bucket — right bucket 10 is never paired with left bucket 0.
func TestInputSeqAlignsTimeWindowsByEpoch(t *testing.T) {
	var leftAll []int64
	for e := int64(0); e < 13; e++ {
		leftAll = append(leftAll, e)
	}
	_, got := runSeq(t, []*plan.Window{timeWin, timeWin}, []seqPush{
		// Left seals buckets 0..12 before the right stream has a
		// watermark: everything waits.
		{0, leftAll, 13},
		// Right's first rows fall in bucket 10: its shards seal every
		// bucket below it without a window, and that bare frontier
		// releases left 0..9.
		{1, nil, 10},
		// Right's merger starts at bucket 10.
		{1, []int64{10, 11}, 12},
		{1, []int64{12}, 13},
	})
	var want []string
	for e := 0; e < 10; e++ {
		want = append(want, fmt.Sprintf("0:%d", e))
	}
	want = append(want, "0:10", "1:10", "0:11", "1:11", "0:12", "1:12")
	if got != strings.Join(want, " ") {
		t.Fatalf("released %q\nwant     %q", got, strings.Join(want, " "))
	}
}

// TestInputSeqDifferentSlides: time windows with different slides meet on
// the event-time axis: a 2 s bucket e ends where the 1 s bucket 2e+1
// ends, and ties go to the lower input.
func TestInputSeqDifferentSlides(t *testing.T) {
	wide := &plan.Window{Range: 4 * time.Second, SlideDur: 2 * time.Second}
	_, got := runSeq(t, []*plan.Window{wide, timeWin}, []seqPush{
		{1, []int64{0, 1, 2, 3}, 4},
		{0, []int64{0, 1}, 2},
	})
	// ends: right 0→1s 1→2s 2→3s 3→4s; left 0→2s 1→4s.
	if want := "1:0 0:0 1:1 1:2 0:1 1:3"; got != want {
		t.Fatalf("released %q, want %q", got, want)
	}
}

// TestInputSeqBoundsLead: a join whose other input never seals anything
// (no rows, so no watermark) holds at most lead windows of the live
// input; older ones are released against the other ring as it stands.
func TestInputSeqBoundsLead(t *testing.T) {
	for _, w := range []*plan.Window{tupleWin, timeWin, {Tuples: true, Size: 200, Slide: 1}} {
		s := newInputSeq([]*plan.Window{w, w})
		lead := max(maxLead, w.Parts())
		released := 0
		for e := int64(0); e < 1000; e++ {
			s.push(0, []*window.BW{{Epoch: e}}, e+1, func(int, *window.BW) { released++ })
			if n := len(s.ins[0].pending); n > lead {
				t.Fatalf("%v: %d windows queued after %d sealed, bound %d", w, n, e+1, lead)
			}
		}
		if want := 1000 - lead; released != want {
			t.Fatalf("%v: released %d, want %d", w, released, want)
		}
	}
}

// TestInputSeqNeedsOneAxis: inputs without a window, or mixing tuple and
// time windows, get no sequencer — they release in seal order.
func TestInputSeqNeedsOneAxis(t *testing.T) {
	for _, wins := range [][]*plan.Window{
		{tupleWin},
		{tupleWin, nil},
		{tupleWin, timeWin},
	} {
		if newInputSeq(wins) != nil {
			t.Errorf("%v: got a sequencer", wins)
		}
	}
}
