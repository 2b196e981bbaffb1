package window

import "sync/atomic"

// SharedBuf refcounts the raw tuples of one merged basic window shared
// across a query group's members. The runs themselves are immutable views
// — members only read them — so sharing needs no copies; the refcount
// exists to observe the window's lifetime: each member releases its
// reference when it no longer needs the raw tuples (an incremental tail
// after caching its per-basic-window intermediates, a re-evaluation tail
// when the basic window leaves its ring), and the group's live-buffer
// gauge drops when the last member lets go.
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
