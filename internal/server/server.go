// Package server implements the interactive surface of the demo: a
// session that dispatches SQL statements and backslash control commands
// (the textual equivalent of the demo GUI's panes), and a TCP server
// exposing the same protocol so cmd/dcmon can inspect a running instance
// remotely.
//
// Protocol: one request per line. Lines starting with '\' are control
// commands; anything else is SQL (a trailing ';' is optional). Responses
// are text blocks terminated by a line containing a single '.'.
package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"datacell"
)

// Session wraps an engine with the demo's command set. Sessions are safe
// for concurrent use by multiple connections sharing one engine.
type Session struct {
	eng *datacell.Engine
}

// NewSession creates a session over an engine.
func NewSession(eng *datacell.Engine) *Session { return &Session{eng: eng} }

// Help is the command reference printed by \help.
const Help = `commands:
  <sql>;                 execute SQL (DDL, INSERT, SELECT, REGISTER QUERY)
  \help                  this text
  \catalog               list tables and streams
  \network               query network: baskets and queries (Figure 3)
  \queries               list registered continuous queries
  \groups                execution groups (members, live buffers)
  \tenants               per-tenant quotas, usage and throttle counters
  \fabric                distributed shard fabric (workers, streams, specs)
  \plan <query>          optimized one-time plan shape
  \cplan <query>         continuous (split/merge) plan shape
  \stats <query>         one query's counters
  \results <query> [n]   drain up to n pending results (default 1)
  \pause <query>         suspend a query          \resume <query>  reactivate
  \pause-stream <s>      hold a stream's arrivals \resume-stream <s> release
  \shards <s>            per-shard occupancy of a sharded stream
  \advance <usec>        close time windows up to a watermark
  \quit                  close the connection`

// Dispatch executes one input line (SQL or control command) and returns
// the textual response. The boolean reports whether the session should
// terminate.
func (s *Session) Dispatch(line string) (string, bool) {
	line = strings.TrimSpace(line)
	if line == "" {
		return "", false
	}
	if !strings.HasPrefix(line, `\`) {
		res, err := s.eng.ExecScript(line)
		if err != nil {
			return "error: " + err.Error(), false
		}
		switch {
		case res == nil:
			return "ok", false
		case res.Chunk != nil:
			return strings.TrimRight(res.Chunk.String(), "\n"), false
		default:
			return res.Msg, false
		}
	}

	fields := strings.Fields(line)
	cmd := fields[0]
	arg := func(i int) string {
		if len(fields) > i {
			return fields[i]
		}
		return ""
	}
	switch cmd {
	case `\help`:
		return Help, false
	case `\quit`:
		return "bye", true
	case `\catalog`:
		return strings.TrimRight(s.eng.Catalog(), "\n"), false
	case `\network`:
		return strings.TrimRight(s.eng.NetworkString(), "\n"), false
	case `\queries`:
		names := s.eng.QueryNames()
		if len(names) == 0 {
			return "(none)", false
		}
		return strings.Join(names, "\n"), false
	case `\groups`:
		groups := s.eng.Groups()
		if len(groups) == 0 {
			return "(none)", false
		}
		var b strings.Builder
		for _, g := range groups {
			fmt.Fprintf(&b, "%s kind=%s members=%d shards=%d windows=%d livebufs=%d dag_nodes=%d memo_hits=%d memo_misses=%d hit_rate=%.1f%%",
				g.Key, g.Kind, g.Members, g.Shards, g.WindowsOut, g.LiveBufs,
				g.DagNodes, g.MemoHits, g.MemoMisses, 100*g.MemoHitRate())
			if g.MergeClasses > 0 || g.PostNodes > 0 {
				fmt.Fprintf(&b, " merge_classes=%d merge_hits=%d merge_misses=%d merge_rate=%.1f%% post_nodes=%d post_hits=%d post_misses=%d post_rate=%.1f%%",
					g.MergeClasses, g.MergeHits, g.MergeMisses, 100*g.MergeHitRate(),
					g.PostNodes, g.PostHits, g.PostMisses, 100*g.PostHitRate())
			}
			if g.Kind == "join" {
				fmt.Fprintf(&b, " pair_caches=%d cached_pairs=%d pairs_computed=%d",
					g.PairCaches, g.CachedPairs, g.PairsComputed)
			}
			b.WriteByte('\n')
		}
		return strings.TrimRight(b.String(), "\n"), false
	case `\tenants`:
		tenants := s.eng.TenantStats()
		if len(tenants) == 0 {
			return "(none)", false
		}
		var b strings.Builder
		for _, t := range tenants {
			fmt.Fprintf(&b, "%s queries=%d", t.Name, t.Queries)
			if t.Quota.MaxQueries > 0 {
				fmt.Fprintf(&b, "/%d", t.Quota.MaxQueries)
			}
			if t.Quota.MaxAppendRowsPerSec > 0 {
				fmt.Fprintf(&b, " rate_limit=%.0frows/s", t.Quota.MaxAppendRowsPerSec)
			}
			if t.Quota.MaxLagWindows > 0 {
				fmt.Fprintf(&b, " lag=%d/%d", t.LagWindows, t.Quota.MaxLagWindows)
			}
			fmt.Fprintf(&b, " rejected=%d appended=%d throttled=%d throttle_wait=%dµs\n",
				t.RejectedQueries, t.AppendedRows, t.ThrottledAppends, t.ThrottleWaitUsec)
		}
		return strings.TrimRight(b.String(), "\n"), false
	case `\fabric`:
		return s.eng.FabricStatus(), false
	case `\plan`, `\cplan`, `\stats`, `\pause`, `\resume`, `\results`:
		q, ok := s.eng.Query(arg(1))
		if !ok {
			return fmt.Sprintf("error: no query %q", arg(1)), false
		}
		switch cmd {
		case `\plan`:
			return strings.TrimRight(q.PlanString(), "\n"), false
		case `\cplan`:
			return strings.TrimRight(q.ContinuousPlanString(), "\n"), false
		case `\stats`:
			st := q.Stats()
			return fmt.Sprintf(
				"query %s mode=%s firings=%d evals=%d in=%d out=%d last_lat=%dµs max_lat=%dµs",
				st.Name, st.Mode, st.Firings, st.Evals, st.TuplesIn, st.RowsOut,
				st.LastLatency, st.MaxLatency), false
		case `\pause`:
			q.Pause()
			return "paused", false
		case `\resume`:
			q.Resume()
			return "resumed", false
		case `\results`:
			n := 1
			if v, err := strconv.Atoi(arg(2)); err == nil && v > 0 {
				n = v
			}
			return s.drainResults(q, n), false
		}
	case `\pause-stream`:
		if err := s.eng.PauseStream(arg(1)); err != nil {
			return "error: " + err.Error(), false
		}
		return "stream paused", false
	case `\resume-stream`:
		if err := s.eng.ResumeStream(arg(1)); err != nil {
			return "error: " + err.Error(), false
		}
		return "stream resumed", false
	case `\shards`:
		bk, err := s.eng.Basket(arg(1))
		if err != nil {
			return "error: " + err.Error(), false
		}
		var b strings.Builder
		route := "round-robin"
		if bk.KeyIndex() >= 0 {
			route = fmt.Sprintf("hash(%s)", bk.Schema().Names[bk.KeyIndex()])
		}
		fmt.Fprintf(&b, "stream %s shards=%d route=%s settled=%d\n",
			bk.Name(), bk.NumShards(), route, bk.Settled())
		for _, st := range bk.ShardStats() {
			fmt.Fprintf(&b, "  %-16s len=%-8d in=%-10d dropped=%d\n",
				st.Name, st.Len, st.TotalIn, st.TotalDrop)
		}
		return strings.TrimRight(b.String(), "\n"), false
	case `\advance`:
		v, err := strconv.ParseInt(arg(1), 10, 64)
		if err != nil {
			return "error: \\advance needs a microsecond timestamp", false
		}
		s.eng.AdvanceTime(v)
		s.eng.Drain()
		return "advanced", false
	}
	return fmt.Sprintf("error: unknown command %s (try \\help)", cmd), false
}

func (s *Session) drainResults(q *datacell.Query, n int) string {
	out := q.Out()
	if out == nil {
		return "(query registered without a result channel)"
	}
	var b strings.Builder
	got := 0
	for got < n {
		select {
		case r, ok := <-out:
			if !ok {
				goto done
			}
			fmt.Fprintf(&b, "-- seq=%d rows=%d latency=%dµs --\n%s",
				r.Meta.Seq, r.Chunk.Rows(), r.Meta.LatencyUsec, r.Chunk)
			got++
		default:
			goto done
		}
	}
done:
	if got == 0 {
		return "(no pending results)"
	}
	return strings.TrimRight(b.String(), "\n")
}

// Server exposes sessions over TCP.
type Server struct {
	eng *datacell.Engine
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// Listen starts serving the session protocol on addr.
func Listen(eng *datacell.Engine, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{eng: eng, ln: ln, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and its connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	_ = s.ln.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
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
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	sess := NewSession(s.eng)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		resp, quit := sess.Dispatch(sc.Text())
		if resp != "" {
			fmt.Fprintln(w, resp)
		}
		fmt.Fprintln(w, ".")
		if err := w.Flush(); err != nil {
			return
		}
		if quit {
			return
		}
	}
}

// Client is the protocol's client side, used by cmd/dcmon and tests. It
// keeps a persistent buffered reader so response framing survives across
// calls.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Call sends one request line and reads the '.'-terminated response.
func (c *Client) Call(request string) (string, error) {
	if _, err := fmt.Fprintln(c.conn, request); err != nil {
		return "", err
	}
	var lines []string
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return "", err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "." {
			return strings.Join(lines, "\n"), nil
		}
		lines = append(lines, line)
	}
}

// Close terminates the connection.
func (c *Client) Close() { _ = c.conn.Close() }
