package emitter

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"datacell/internal/bat"
)

// TCPServer is a network emitter: clients connect and receive every result
// as CSV lines preceded by a metadata comment line. A slow or dead client
// is dropped rather than allowed to stall the query network — emitters are
// the per-client delivery processes of the paper's Figure 1.
type TCPServer struct {
	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// ListenTCP starts an emitter server on addr (e.g. "127.0.0.1:0").
func ListenTCP(addr string) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{ln: ln, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the listener address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
	}
}

// Emit implements Emitter: broadcast the rendered result to every client,
// dropping clients whose writes fail or stall.
func (s *TCPServer) Emit(c *bat.Chunk, m Meta) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s seq=%d rows=%d latency=%dus\n", m.Query, m.Seq, c.Rows(), m.LatencyUsec)
	rows := c.Rows()
	for i := 0; i < rows; i++ {
		vals := c.Row(i)
		parts := make([]string, len(vals))
		for j, v := range vals {
			parts[j] = v.String()
		}
		b.WriteString(strings.Join(parts, ","))
		b.WriteByte('\n')
	}
	payload := []byte(b.String())

	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := conn.Write(payload); err != nil {
			_ = conn.Close()
			delete(s.conns, conn)
		}
	}
}

// Close implements Emitter.
func (s *TCPServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	_ = s.ln.Close()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.conns = make(map[net.Conn]bool)
	s.mu.Unlock()
	s.wg.Wait()
}
