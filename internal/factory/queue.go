package factory

import (
	"sync"
	"sync/atomic"
)

// memberQueue is the lock-sensitive heart of a group member: sealed
// basic windows queue here between the group's fan-out and the member's
// tail firing. enqueue refuses items after close (the fan-out then
// releases the item's buffers itself), drain empties in order, and
// ready mirrors the length in an atomic so scheduler Ready callbacks
// never wait on the mutex.
type memberQueue struct {
	mu       sync.Mutex
	pending  []memberBW
	closed   bool
	pendingN atomic.Int64 // mirrors len(pending) for lock-free ready
}

// enqueue appends an item; false means the member already left and the
// caller must release the item's resources.
func (q *memberQueue) enqueue(item memberBW) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.pending = append(q.pending, item)
	q.pendingN.Add(1)
	return true
}

// drain removes and returns everything queued, in order. spare, an
// emptied batch the caller no longer reads, becomes the next pending
// buffer, so a member's enqueue/drain cycle alternates two buffers.
func (q *memberQueue) drain(spare []memberBW) []memberBW {
	q.mu.Lock()
	defer q.mu.Unlock()
	items := q.pending
	q.pending = spare[:0]
	q.pendingN.Store(0)
	return items
}

// closeDrain marks the queue closed and returns anything still queued
// for the caller to release.
func (q *memberQueue) closeDrain() []memberBW {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	items := q.pending
	q.pending = nil
	q.pendingN.Store(0)
	return items
}

// ready reports whether items await the member's tail (atomic read
// only; the scheduler calls it under its own lock).
func (q *memberQueue) ready() bool { return q.pendingN.Load() > 0 }
