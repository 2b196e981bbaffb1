package factory

import (
	"sync/atomic"

	"datacell/internal/bat"
)

// deliveryLog is a group's one record of the basic windows it fanned out,
// in release order: the fan-out appends one delivery per window, and each
// member reads the log from its own cursor. Nothing is copied per member;
// a member-window costs the member its cursor step.
//
// The log is a chain of fixed blocks that never move, so a member reads
// an entry without a lock: the fan-out fills an entry, then publishes it
// by raising head, and a reader reads only entries below the head it
// loaded. Appends happen under the group's mu, which is also where a
// joining member takes its cursor (the current head) and where an entry's
// reference count is fixed (the members at that moment), so a member
// reads exactly the windows fanned out after it joined. A block nobody's
// cursor points into any more is garbage.
type deliveryLog struct {
	head atomic.Int64 // entries published
	tail *logBlock    // the block the next entry goes into
	n    int          // entries used in tail
}

// logBlockLen is the number of entries in a log block.
const logBlockLen = 64

type logBlock struct {
	ents [logBlockLen]delivery
	next *logBlock // set before the first entry of the next block is published
}

// delivery is one fanned-out basic window: its side and group-global
// generation, its raw runs and newest arrival stamp, its shared memo
// table, and its merge cells by class ordinal (nil without an active
// class). refs counts the members that had joined when it was appended
// plus the merge-class rings it entered; each releases one reference
// through free once done with the raw runs. The last release drops the
// live-buffer gauge, returns the runs' storage to the basket where no
// member keeps a view of them (recycle), and clears the entry, so the log
// pins nothing a member no longer reads.
type delivery struct {
	g          *Group
	side       int
	recycle    bool
	refs       atomic.Int32
	gen        int64
	data       *bat.Runs
	maxArrival int64
	free       func() // release, bound once per entry
	dw         *dagWin
	cells      []*mergeCell
}

// reserve makes sure the tail block has room for the next entry.
// Callers hold the group's mu.
func (l *deliveryLog) reserve() {
	if l.tail == nil || l.n == logBlockLen {
		b := new(logBlock)
		if l.tail != nil {
			l.tail.next = b
		}
		l.tail, l.n = b, 0
	}
}

// append returns the next entry slot; the caller fills it and then
// publishes it (head.Add). Callers hold the group's mu.
func (l *deliveryLog) append() *delivery {
	l.reserve()
	e := &l.tail.ents[l.n]
	l.n++
	return e
}

// start places cursor c at the log's head: the member reads every entry
// published from now on. Callers hold the group's mu.
func (l *deliveryLog) start(c *logCursor) {
	l.reserve()
	c.blk, c.off = l.tail, l.n
	c.read.Store(l.head.Load())
}

// release drops one reference; the last one releases the window.
func (e *delivery) release() {
	if e.refs.Add(-1) != 0 {
		return
	}
	e.g.liveBufs.Add(-1)
	if e.recycle {
		e.data.Release()
	}
	e.data, e.free, e.dw, e.cells = nil, nil, nil, nil
}

// logCursor is a member's read position: the entries read so far, and
// the block and offset of the next one.
type logCursor struct {
	read atomic.Int64
	blk  *logBlock
	off  int
}

// next returns the entry at the cursor and steps past it. The caller
// checked that it is published (read < head).
func (c *logCursor) next() *delivery {
	if c.off == logBlockLen {
		c.blk, c.off = c.blk.next, 0
	}
	e := &c.blk.ents[c.off]
	c.off++
	return e
}
