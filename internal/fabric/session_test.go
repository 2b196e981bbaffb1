package fabric

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// ackingConn is a scripted conn whose peer acknowledges every frame
// before Write returns — the widest form of the race where an ack is read
// and pruned while the writer is still between its unlocked write and
// re-locking the session.
type ackingConn struct {
	net.Conn // unused methods
	s        *session
	mu       sync.Mutex
	written  []uint64
}

func (c *ackingConn) Write(b []byte) (int, error) {
	seq := binary.BigEndian.Uint64(b[5:13])
	c.mu.Lock()
	c.written = append(c.written, seq)
	c.mu.Unlock()
	c.s.onAck(seq)
	return len(b), nil
}

func (c *ackingConn) Close() error { return nil }

// TestSessionAckDuringWriteSkipsNothing: a frame acknowledged (and
// pruned) while its write is in flight must not move the writer past the
// next unsent frame — every stamped frame reaches the wire, in order.
func TestSessionAckDuringWriteSkipsNothing(t *testing.T) {
	s := newSession(false)
	defer s.close()
	const n = 5
	for i := 0; i < n; i++ {
		s.send(frameBatch+1, []byte{byte(i)})
	}
	c := &ackingConn{s: s}
	s.attach(c, 0, nil)
	deadline := time.Now().Add(5 * time.Second)
	for s.pendingOut() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.mu.Lock()
	got := fmt.Sprint(c.written)
	c.mu.Unlock()
	if want := "[1 2 3 4 5]"; got != want {
		t.Fatalf("frames written %s, want %s", got, want)
	}
}
