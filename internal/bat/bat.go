package bat

import "fmt"

// BAT is a Binary Association Table in the MonetDB sense: a mapping from a
// dense range of row ids (the void head, represented only by its sequence
// base Seq) to typed values (the Tail vector). Persistent tables and stream
// baskets are collections of BATs, one per attribute, all sharing the same
// head sequence.
type BAT struct {
	// Seq is the row id of the first tail element (the void head's
	// sequence base). Baskets advance Seq as consumed tuples are dropped.
	Seq int64
	// Tail holds the attribute values.
	Tail Vector
}

// Len reports the number of tuples in the BAT.
func (b *BAT) Len() int { return b.Tail.Len() }

// Hi reports the row id one past the last tuple.
func (b *BAT) Hi() int64 { return b.Seq + int64(b.Tail.Len()) }

// String summarizes the BAT for the monitor.
func (b *BAT) String() string {
	return fmt.Sprintf("BAT@%d %s", b.Seq, VectorString(b.Tail))
}
