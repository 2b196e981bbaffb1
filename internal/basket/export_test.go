package basket

import "datacell/internal/bat"

// Test-only readers: the engine consumes through ConsumeEach and
// ConsumeLeased.

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
