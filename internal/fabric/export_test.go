package fabric

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
