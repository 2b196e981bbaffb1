package emitter

// Test-only reader: nothing outside the tests asks for the client count.

// Clients reports the number of connected clients.
func (s *TCPServer) Clients() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}
