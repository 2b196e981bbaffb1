package basket

import "datacell/internal/bat"

// Test-only readers: the engine consumes through ConsumeEach and
// ConsumeLeased.

// PeekSeqs returns up to n of the consumer's pending rows, with their
// arrival and sequence stamps, without consuming them. The rows all come
// from one segment and are zero-copy views handed out without a lease,
// so they pin the segment's storage: it is never reused, and the views
// stay valid after any later append, consume or vacuum (a vacuum only
// drops the basket's reference). A consumer drains its backlog by
// peeking and consuming until nothing is returned; nil means nothing is
// pending. ConsumeLeased is the read path that lets storage be reused.
func (b *Basket) PeekSeqs(id int, n int) (*bat.Chunk, bat.Ints, bat.Ints) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sg, lo, ok := b.pendingLocked(id)
	if !ok || n <= 0 {
		return nil, nil, nil
	}
	sg.pin()
	return sg.view(b.schema, lo, min(sg.rows(), lo+n))
}

// Peek returns up to n pending tuples for the consumer without consuming
// them, plus their arrival stamps. Like PeekSeqs it returns the pending
// rows of at most one segment, so it may return fewer than are Available.
// It returns nil when nothing is pending.
func (b *Basket) Peek(id int, n int) (*bat.Chunk, bat.Ints) {
	c, arr, _ := b.PeekSeqs(id, n)
	return c, arr
}

// Consume advances the consumer's cursor by n tuples and vacuums tuples
// every consumer has passed.
func (b *Basket) Consume(id int, n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur, ok := b.consumers[id]
	if !ok {
		return
	}
	b.consumers[id] = min(cur+n, b.end)
	b.vacuumLocked()
}
