package fabric

import (
	"net"
	"sync"
	"time"

	"datacell/internal/emitter"
)

// session is one direction-pair of the fabric's resumable transport. Both
// ends of a coordinator↔worker link own one: it stamps outgoing session
// frames with a monotone transmit sequence, retains them until the peer
// acknowledges, dedups incoming frames by receive cursor, and — after a
// reconnect — replays everything past the peer's acknowledged cursor.
// That replay is what turns a connection dropped mid-frame into an exact
// resume: the truncated frame is retransmitted whole, already-processed
// duplicates are skipped by sequence, and no window is lost or applied
// twice.
//
// All sends enqueue; one writer goroutine per session, living across
// reconnects, performs the blocking network writes, so no engine or
// routing lock is ever held across IO and a stalled peer can never
// deadlock the frame readers (slow peers instead grow the outbox, which
// is bounded only by the disconnection window).
//
// Every frame of a link rides its one connection, in sequence order, so
// the receiver applies frames exactly as they arrive and treats any gap
// as a broken stream (see accept).
type session struct {
	mu     sync.Mutex
	cond   *sync.Cond
	txSeq  uint64          // last stamped transmit sequence
	rxSeq  uint64          // highest in-order receive sequence processed
	outbox []emitter.Frame // stamped frames retained until acked
	next   int             // outbox index of the writer's next frame
	ctl    []emitter.Frame // unstamped control frames (hello/welcome/ack)
	conn   net.Conn
	gen    uint64 // bumped on every attach/detach; guards stale writes
	closed bool
	// peerAcked is the highest transmit sequence the peer has ever
	// acknowledged.
	peerAcked uint64
	// retain keeps acknowledged frames in the outbox until the peer has
	// made them durable (snapAcked) — the coordinator-side replay log. An
	// acked frame lives only in the peer's memory; if the peer process
	// dies it must be replayed, so only a durable snapshot cursor (or,
	// for a worker that never snapshots, nothing) releases it.
	retain    bool
	snapAcked uint64 // highest cursor the peer has durably snapshotted

	// Counters for \fabric introspection.
	framesOut, framesIn uint64
	reconnects          uint64
}

// newSession starts a session. retain=true keeps acked frames as a
// replay log bounded by the peer's snapshot cursor (the coordinator's
// side of every worker link); retain=false prunes on ack (the worker's
// side — the coordinator is not restartable, so nothing is replayed to
// it from before its own cursors).
func newSession(retain bool) *session {
	s := &session{retain: retain}
	s.cond = sync.NewCond(&s.mu)
	go s.writeLoop()
	return s
}

// send stamps and enqueues one session frame.
func (s *session) send(t byte, payload []byte) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.txSeq++
	s.outbox = append(s.outbox, emitter.Frame{Type: t, Seq: s.txSeq, Payload: payload})
	s.mu.Unlock()
	s.cond.Broadcast()
}

// sendCtl enqueues an unstamped control frame (written before pending
// session frames).
func (s *session) sendCtl(f emitter.Frame) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.ctl = append(s.ctl, f)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// attach installs a (re)connected conn: frames the peer acknowledged are
// pruned (down to the retention floor), the write cursor is positioned at
// the first frame past the peer's cursor, and an optional control frame
// (the handshake reply) is queued ahead of the replay. Any previous conn
// is closed.
func (s *session) attach(conn net.Conn, peerRx uint64, ctl *emitter.Frame) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	old := s.conn
	// The handshake cursor is authoritative for this peer life: a peer
	// that restarted from scratch (or an older snapshot) has forgotten
	// frames its previous life acknowledged.
	s.peerAcked = peerRx
	s.pruneLocked(peerRx)
	// Replay starts at the first retained frame the peer does not have.
	// Outbox sequences are contiguous, so the index is arithmetic — a
	// retained replay log must not be rescanned (or resent) on every
	// reconnect.
	s.next = 0
	if len(s.outbox) > 0 && peerRx >= s.outbox[0].Seq {
		s.next = int(peerRx - s.outbox[0].Seq + 1)
		if s.next > len(s.outbox) {
			s.next = len(s.outbox)
		}
	}
	// Control frames are connection-scoped (acks, handshake replies): any
	// retained from the previous conn are stale — an old ack written ahead
	// of the new handshake reply would make the peer drop the fresh conn.
	s.ctl = nil
	if ctl != nil {
		s.ctl = append(s.ctl, *ctl)
	}
	s.conn = conn
	s.gen++
	s.reconnects++
	s.mu.Unlock()
	s.cond.Broadcast()
	if old != nil {
		_ = old.Close()
	}
}

// detach drops conn if it is still the session's active conn (a reader
// noticing an error races the next attach).
func (s *session) detach(conn net.Conn) {
	s.mu.Lock()
	if s.conn == conn {
		s.conn = nil
		s.gen++
		s.ctl = nil // connection-scoped frames die with the conn
	}
	s.mu.Unlock()
	_ = conn.Close()
}

// advanceSnap records the peer's durable snapshot cursor, releasing the
// replay-log prefix at or below it — the coordinator's replay-log garbage
// collection (driven by Hello.Snap and snapshot-ack frames).
func (s *session) advanceSnap(cursor uint64) {
	s.mu.Lock()
	if cursor > s.snapAcked {
		s.snapAcked = cursor
		s.pruneLocked(s.peerAcked)
	}
	s.mu.Unlock()
}

// restore rewinds the session to checkpointed cursors before the first
// dial: the restart path loading a worker snapshot. The outbox holds the
// checkpoint's sent-but-unacknowledged frames; replay regenerates
// everything after txSeq.
func (s *session) restore(txSeq, rxSeq uint64, outbox []emitter.Frame) {
	s.mu.Lock()
	s.txSeq, s.rxSeq, s.peerAcked = txSeq, rxSeq, 0
	s.outbox = outbox
	s.next = 0
	s.ctl = nil
	s.gen++
	s.mu.Unlock()
}

// exportState captures the transmit cursor and the unacknowledged
// outbox — the session half of a worker checkpoint. The caller must hold
// whatever lock serializes sends (the worker's state mutex), so the
// cursor and the captured state agree.
func (s *session) exportState() (txSeq uint64, outbox []emitter.Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txSeq, append([]emitter.Frame(nil), s.outbox...)
}

// onAck prunes frames the peer has processed.
func (s *session) onAck(peerRx uint64) {
	s.mu.Lock()
	s.pruneLocked(peerRx)
	s.mu.Unlock()
}

func (s *session) pruneLocked(peerRx uint64) {
	if peerRx > s.peerAcked {
		s.peerAcked = peerRx
	}
	limit := s.peerAcked
	if s.retain && s.snapAcked < limit {
		limit = s.snapAcked
	}
	if len(s.outbox) == 0 || s.outbox[0].Seq > limit {
		return
	}
	// Sequences are contiguous: the drop count is arithmetic, not a scan
	// (the retained prefix can be long between snapshot cursors).
	drop := int(limit - s.outbox[0].Seq + 1)
	if drop > len(s.outbox) {
		drop = len(s.outbox)
	}
	s.outbox = append([]emitter.Frame(nil), s.outbox[drop:]...)
	s.next -= drop
	if s.next < 0 {
		s.next = 0
	}
}

// accept advances the receive cursor for an incoming session frame.
// fresh=false means an already-processed duplicate (replayed after a
// reconnect) to be skipped; gap=true means the stream is inconsistent and
// the caller must drop the connection (the resume handshake repairs it).
func (s *session) accept(seq uint64) (fresh, gap bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.framesIn++
	switch {
	case seq <= s.rxSeq:
		return false, false
	case seq == s.rxSeq+1:
		s.rxSeq = seq
		return true, false
	default:
		return false, true
	}
}

// sentSeq reports the last stamped transmit sequence — what the peer's
// receive cursor could at most legitimately be. A Hello claiming more
// identifies cursors from another session life.
func (s *session) sentSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txSeq
}

// cursor reports the receive cursor (for handshakes and acks).
func (s *session) cursor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rxSeq
}

// pendingOut reports the number of unacknowledged session frames.
func (s *session) pendingOut() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.outbox)
}

// connected reports whether a live conn is attached.
func (s *session) connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn != nil
}

// flushWait blocks until every queued frame has been written (not
// necessarily acked) or the timeout passes — used for orderly shutdown so
// the Bye frame reaches the peer. A session with no attached conn returns
// immediately: there is nothing to flush to, and waiting for a reconnect
// would stall shutdown.
func (s *session) flushWait(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		done := s.closed || s.conn == nil || (len(s.ctl) == 0 && s.next >= len(s.outbox))
		s.mu.Unlock()
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the writer goroutine and closes any attached conn.
func (s *session) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conn := s.conn
	s.conn = nil
	s.gen++
	s.mu.Unlock()
	s.cond.Broadcast()
	if conn != nil {
		_ = conn.Close()
	}
}

// writeLoop is the session's writer: it drains control frames first,
// then unsent outbox frames, never holding the session mutex across a
// blocking write. A write that completes after a reattach (generation
// changed) is ignored — the reattach already rewound the cursor and the
// frame will be replayed, with the receiver deduplicating by sequence.
func (s *session) writeLoop() {
	for {
		s.mu.Lock()
		for !s.closed && (s.conn == nil || (len(s.ctl) == 0 && s.next >= len(s.outbox))) {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		var frame emitter.Frame
		isCtl := len(s.ctl) > 0
		if isCtl {
			frame = s.ctl[0]
		} else {
			frame = s.outbox[s.next]
		}
		conn, gen := s.conn, s.gen
		s.mu.Unlock()

		err := emitter.WriteFrame(conn, frame)

		s.mu.Lock()
		if s.gen == gen {
			switch {
			case err != nil:
				s.conn = nil
				s.gen++
			case isCtl:
				s.ctl = s.ctl[1:]
				s.framesOut++
			default:
				s.next = s.pastLocked(s.next, frame.Seq)
				s.framesOut++
			}
		}
		s.mu.Unlock()
		if err != nil {
			_ = conn.Close()
		}
	}
}

// pastLocked returns a writer cursor moved past the frame with sequence
// seq that the writer just wrote with the mutex released. The cursor is
// an outbox index, and the outbox may have changed during the write: an
// ack can prune the written frame (and any prefix) — pruneLocked then
// leaves the cursor at the first surviving frame, which is unsent. So
// the cursor advances only if it still points at the written frame; an
// index increment would skip an unsent frame after such a prune.
func (s *session) pastLocked(cursor int, seq uint64) int {
	if cursor < len(s.outbox) && s.outbox[cursor].Seq == seq {
		return cursor + 1
	}
	return cursor
}
