package fabric

import "datacell/internal/emitter"

// Kill stops the worker WITHOUT the close-time checkpoint — the
// in-process equivalent of a SIGKILL, for crash-recovery tests: whatever
// the last checkpoint (if any) did not capture must come back via the
// coordinator's replay log.
func (w *Worker) Kill() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	w.retire()
	w.sess.close()
	w.wg.Wait()
}

// DupSafe reports whether a frame may be duplicated in transit without
// desynchronizing a session: stamped session frames are deduplicated by
// sequence on receive, but control frames (Hello/Welcome/Ack/SnapAck) are
// connection-scoped and carry cursors, not sequences — duplicating a
// handshake confuses the accept loop. Fault-injection harnesses
// (fabrictest.FaultProxy) consult this before applying a duplicate fault.
func DupSafe(f emitter.Frame) bool { return f.Type > frameSnapAck }
