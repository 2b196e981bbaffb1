package window

import "sync/atomic"

// SharedBuf refcounts the raw tuples of one merged basic window shared
// across a query group's members. The runs are immutable views — members
// only read them — so sharing needs no copies; the refcount tracks the
// window's lifetime: each member releases its reference when it no
// longer needs the raw tuples (an incremental tail after caching its
// per-basic-window intermediates, a re-evaluation tail when the basic
// window leaves its ring), and the last release runs the group's hook,
// which drops the live-buffer gauge and, where the group's members keep
// no view of the runs, releases the runs' leases so the basket reuses
// their storage. After zero nobody may read the runs.
type SharedBuf struct {
	refs   atomic.Int32
	onFree func()
}

// NewSharedBuf starts a count of refs references. onFree, if non-nil,
// runs exactly once when the count reaches zero.
func NewSharedBuf(refs int, onFree func()) *SharedBuf {
	s := &SharedBuf{onFree: onFree}
	s.refs.Store(int32(refs))
	return s
}

// Release drops one reference; the last release fires the onFree hook.
func (s *SharedBuf) Release() {
	if s.refs.Add(-1) == 0 && s.onFree != nil {
		s.onFree()
	}
}
