package factory

import (
	"math"

	"datacell/internal/plan"
	"datacell/internal/window"
)

// inputSeq releases the sealed basic windows of a multi-input (join)
// query in one canonical order, whatever order the inputs' shard firings
// seal them in. A join evaluates on each window it releases against the
// other inputs' rings as they stand, so without a fixed order the result
// sequence would depend on scheduling; with it, a shared join group and an
// isolated twin over the same log emit identical results.
//
// The order is by where a window ends on an axis the inputs share: a time
// window's slide bucket e ends at (e+1)·slide µs of event time, a tuple
// window's basic window e ends at e+1 — tuple windows of two streams pair
// by basic-window number, time windows by event time, however late either
// stream started. Ties go to the lower input. A window is released as
// soon as no other input can still seal a window that sorts before it:
// every other input's merger frontier has passed the epoch holding its
// end (for a lower input, the epoch ending there too).
//
// An input that runs ahead of the others waits here, but not without
// bound: once more than lead of its windows queue — a stalled or idle
// partner stream, or count windows over streams of different rates — the
// oldest is released at once and joins the other inputs' rings as they
// stand. Only then does the result sequence depend on scheduling again.
// Windows still queued when the query stops are never evaluated: their
// partner stream never reached them.
//
// The caller serializes access (the factory's stepMu, the join group's
// seqMu).
type inputSeq struct {
	ins []seqInput
}

type seqInput struct {
	unit    int64 // key units per epoch: slide µs (time windows) or 1
	front   int64 // sealed frontier in key units; MinInt64 while unknown
	lead    int   // most windows that may queue before the oldest goes
	pending []*window.BW
}

// maxLead is the least number of basic windows an input may run ahead of
// its partners before they stop waiting for them; inputs with wider
// windows may lead by one full window.
const maxLead = 64

// newInputSeq builds the sequencer for the inputs' windows. It returns nil
// — release in seal order — unless every input is windowed and all
// windows are of one kind: tuple epochs and event time share no axis.
func newInputSeq(wins []*plan.Window) *inputSeq {
	if len(wins) < 2 {
		return nil
	}
	s := &inputSeq{ins: make([]seqInput, len(wins))}
	for i, w := range wins {
		if w == nil || w.Tuples != wins[0].Tuples {
			return nil
		}
		// Tuple epochs start at 0, so a tuple input's frontier is known
		// before its first seal; a time input has none until it has rows.
		unit, front := int64(1), int64(0)
		if !w.Tuples {
			unit, front = w.SlideDur.Microseconds(), math.MinInt64
		}
		s.ins[i] = seqInput{unit: unit, front: front, lead: max(maxLead, w.Parts())}
	}
	return s
}

// push queues input idx's freshly sealed windows (oldest first), records
// its merger's sealed frontier (window.NoEpoch while it has none) and
// calls release for every window that is now next in canonical order, and
// for the oldest windows of an input that ran more than lead ahead.
func (s *inputSeq) push(idx int, ready []*window.BW, sealed int64, release func(idx int, bw *window.BW)) {
	in := &s.ins[idx]
	if sealed != window.NoEpoch {
		in.front = sealed * in.unit
	}
	in.pending = append(in.pending, ready...)
	for i := s.next(); i >= 0; i = s.next() {
		release(i, s.pop(i))
	}
	for i := range s.ins {
		for len(s.ins[i].pending) > s.ins[i].lead {
			release(i, s.pop(i))
		}
	}
}

// end is the canonical sort key of input i's window bw.
func (s *inputSeq) end(i int, bw *window.BW) int64 { return (bw.Epoch + 1) * s.ins[i].unit }

// next picks the input whose oldest queued window sorts first, or -1 when
// that window must still wait for another input's frontier.
func (s *inputSeq) next() int {
	best, key := -1, int64(0)
	for i := range s.ins {
		if len(s.ins[i].pending) == 0 {
			continue
		}
		if k := s.end(i, s.ins[i].pending[0]); best < 0 || k < key {
			best, key = i, k
		}
	}
	if best < 0 {
		return -1
	}
	for j, in := range s.ins {
		if j == best {
			continue
		}
		// in's next window to seal ends at front+unit or later; it sorts
		// first if it ends before key, or at key from a lower input.
		if in.front == math.MinInt64 || in.front+in.unit < key || (j < best && in.front+in.unit == key) {
			return -1
		}
	}
	return best
}

// pop removes input i's oldest queued window.
func (s *inputSeq) pop(i int) *window.BW {
	q := s.ins[i].pending
	bw := q[0]
	q[0] = nil // the queue no longer pins a released window
	if len(q) == 1 {
		s.ins[i].pending = q[:0]
	} else {
		s.ins[i].pending = q[1:]
	}
	return bw
}
