// Package receptor implements DataCell's receptors: "a set of separate
// processes per stream ... to listen for new data" (paper §3, Figure 1).
// A receptor is the bridge from the outside world (sensor drivers, sockets,
// log files) into a stream's basket. This package provides a TCP listener
// speaking newline-separated CSV, a CSV replayer for files, and a
// rate-controlled replayer used by the benchmarks to emulate sensors at a
// configurable event rate (the demo's "rates which are configurable by the
// interface").
//
// Receptors write through basket.Appender, so they are agnostic of the
// partitioning behind a stream: appending to a sharded stream routes each
// row to its shard (hash of the declared key, round-robin otherwise)
// without the receptor holding any global lock — the partitioned append
// path of the sharded engine. Run one receptor per producer to exploit
// it; concurrent receptors only contend when their rows land on the same
// shard.
package receptor

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
)

// ParseLine converts one CSV line into a row of values following the
// schema.
func ParseLine(sch bat.Schema, line string) ([]bat.Value, error) {
	fields := strings.Split(line, ",")
	if len(fields) != sch.Width() {
		return nil, fmt.Errorf("receptor: line has %d fields, schema has %d columns",
			len(fields), sch.Width())
	}
	vals := make([]bat.Value, len(fields))
	for i, f := range fields {
		v, err := bat.ParseValue(sch.Kinds[i], strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// ReplayCSV reads newline-separated CSV from r and appends it to the
// basket in batches of batchSize tuples, stamping each batch with now().
// Lines starting with '#' are skipped. It returns the number of tuples
// appended; a malformed line aborts with an error identifying the line
// number.
func ReplayCSV(r io.Reader, bk basket.Appender, batchSize int, now func() int64) (int64, error) {
	if batchSize <= 0 {
		batchSize = 256
	}
	sch := bk.Schema()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	chunk := bat.NewChunk(sch)
	var total int64
	lineNo := 0
	flush := func() error {
		if chunk.Rows() == 0 {
			return nil
		}
		if err := bk.Append(chunk, now()); err != nil {
			return err
		}
		total += int64(chunk.Rows())
		chunk = bat.NewChunk(sch)
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		vals, err := ParseLine(sch, line)
		if err != nil {
			return total, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if err := chunk.AppendRow(vals...); err != nil {
			return total, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if chunk.Rows() >= batchSize {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return total, err
	}
	return total, flush()
}

// TCP is a network receptor: it accepts connections and appends each CSV
// line to the basket. Malformed lines are counted and skipped so one bad
// sensor cannot stall a stream.
type TCP struct {
	bk      basket.Appender
	ln      net.Listener
	now     func() int64
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]bool
	closed  bool
	total   atomic.Int64
	badLine atomic.Int64
}

// ListenTCP starts a receptor on addr (e.g. "127.0.0.1:0").
func ListenTCP(addr string, bk basket.Appender, now func() int64) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if now == nil {
		now = func() int64 { return time.Now().UnixMicro() }
	}
	r := &TCP{bk: bk, ln: ln, now: now, conns: make(map[net.Conn]bool)}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr reports the listener address.
func (r *TCP) Addr() string { return r.ln.Addr().String() }

// Close stops accepting, closes live connections and waits for handlers.
func (r *TCP) Close() {
	r.mu.Lock()
	r.closed = true
	_ = r.ln.Close()
	for c := range r.conns {
		_ = c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

func (r *TCP) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			_ = conn.Close()
			return
		}
		r.conns[conn] = true
		r.mu.Unlock()
		r.wg.Add(1)
		go r.handle(conn)
	}
}

func (r *TCP) handle(conn net.Conn) {
	defer r.wg.Done()
	defer func() {
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
		_ = conn.Close()
	}()
	sch := r.bk.Schema()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		vals, err := ParseLine(sch, line)
		if err != nil {
			r.badLine.Add(1)
			continue
		}
		chunk := bat.NewChunk(sch)
		if err := chunk.AppendRow(vals...); err != nil {
			r.badLine.Add(1)
			continue
		}
		if err := r.bk.Append(chunk, r.now()); err != nil {
			return
		}
		r.total.Add(1)
	}
}
