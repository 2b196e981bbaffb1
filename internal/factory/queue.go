package factory

import (
	"slices"
	"sync"
	"sync/atomic"

	"datacell/internal/window"
)

// memberQueue is the lock-sensitive heart of a group member: sealed
// basic windows queue here between the group's fan-out and the member's
// tail firing. enqueue refuses items after close (the fan-out then
// releases the window's buffers itself), drain empties in order, and
// ready mirrors the length in an atomic so scheduler Ready callbacks
// never wait on the mutex.
//
// free holds emptied window records the member's tail retired (at most
// maxFreeRecords): enqueue stores each window in one, so a steady member
// — whose ring evicts a window per window it receives — allocates none.
type memberQueue struct {
	mu       sync.Mutex
	pending  []memberBW
	free     []*window.BW
	closed   bool
	pendingN atomic.Int64 // mirrors len(pending) for lock-free ready
}

// enqueue queues window bw, in a record of its own, as item; false means
// the member already left and the caller must release bw's resources.
// more is the number of items the caller expects to enqueue from here
// on, this one included: a full buffer grows once to hold them all
// rather than doubling per item.
func (q *memberQueue) enqueue(item memberBW, bw window.BW, more int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if k := len(q.free); k > 0 {
		item.bw = q.free[k-1]
		q.free[k-1] = nil
		q.free = q.free[:k-1]
	} else {
		item.bw = new(window.BW)
	}
	*item.bw = bw
	if len(q.pending) == cap(q.pending) {
		q.pending = slices.Grow(q.pending, more)
	}
	q.pending = append(q.pending, item)
	q.pendingN.Add(1)
	return true
}

// drain removes and returns everything queued, in order. spare, an
// emptied batch the caller no longer reads, becomes the next pending
// buffer, so a member's enqueue/drain cycle alternates two buffers;
// retired are emptied records the caller no longer references, kept for
// reuse.
func (q *memberQueue) drain(spare []memberBW, retired []*window.BW) []memberBW {
	q.mu.Lock()
	defer q.mu.Unlock()
	items := q.pending
	q.pending = spare[:0]
	q.pendingN.Store(0)
	q.free = append(q.free, retired[:min(len(retired), maxFreeRecords-len(q.free))]...)
	return items
}

// closeDrain marks the queue closed and returns anything still queued
// for the caller to release.
func (q *memberQueue) closeDrain() []memberBW {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	items := q.pending
	q.pending, q.free = nil, nil
	q.pendingN.Store(0)
	return items
}

// maxFreeRecords bounds the emptied window records a member keeps, in its
// queue and in its tail's hand: a steady member needs one or two, and a
// backlog's records, kept, would stay live for nothing. Past them a
// window's record is a fresh allocation.
const maxFreeRecords = 4

// ready reports whether items await the member's tail (atomic read
// only; the scheduler calls it under its own lock).
func (q *memberQueue) ready() bool { return q.pendingN.Load() > 0 }
