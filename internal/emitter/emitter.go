// Package emitter implements DataCell's emitters: the per-client processes
// that deliver continuous query results to the outside world (paper §3,
// Figure 1). Factories place each evaluation's result set into their
// output emitter, which forwards it to channels, writers or network
// clients.
package emitter

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"datacell/internal/bat"
)

// Meta describes one emitted result set.
type Meta struct {
	// Query is the continuous query name.
	Query string
	// Seq numbers the query's results from 0.
	Seq int64
	// FiredAt is the evaluation time (microseconds).
	FiredAt int64
	// LatencyUsec is FiredAt minus the arrival stamp of the newest tuple
	// that triggered the evaluation — the paper's event-handling response
	// time.
	LatencyUsec int64
	// TriggerGen is the basic window (or batch) sequence number that
	// triggered the evaluation.
	TriggerGen int64
}

// Result couples a result chunk with its metadata.
type Result struct {
	Chunk *bat.Chunk
	Meta  Meta
}

// Emitter consumes result sets. Implementations must tolerate concurrent
// Emit calls from different factories.
type Emitter interface {
	Emit(c *bat.Chunk, m Meta)
	Close()
}

// Channel delivers results over a Go channel. When the consumer falls
// behind and the buffer fills, results are dropped and counted rather than
// blocking the factory — an emitter must never stall the query network.
type Channel struct {
	ch      chan Result
	dropped atomic.Int64
	closeMu sync.Mutex
	closed  bool
}

// NewChannel creates a channel emitter with the given buffer size.
func NewChannel(buf int) *Channel {
	return &Channel{ch: make(chan Result, buf)}
}

// Out is the consumer side.
func (e *Channel) Out() <-chan Result { return e.ch }

// Dropped reports how many results were discarded due to a full buffer.
func (e *Channel) Dropped() int64 { return e.dropped.Load() }

// Pending reports how many emitted results sit unconsumed in the buffer
// — the consumer-lag gauge behind per-tenant ingest backpressure and the
// /metrics results backlog.
func (e *Channel) Pending() int { return len(e.ch) }

// Emit implements Emitter.
func (e *Channel) Emit(c *bat.Chunk, m Meta) {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed {
		e.dropped.Add(1)
		return
	}
	select {
	case e.ch <- Result{Chunk: c, Meta: m}:
	default:
		e.dropped.Add(1)
	}
}

// Close implements Emitter.
func (e *Channel) Close() {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if !e.closed {
		e.closed = true
		close(e.ch)
	}
}

// Writer renders results as CSV lines ("query,seq,col1,col2,...") to an
// io.Writer, one line per row.
type Writer struct {
	mu     sync.Mutex
	w      io.Writer
	header bool
}

// NewWriter creates a writer emitter. If header is true, each result set
// is preceded by a comment line with the query name and metadata.
func NewWriter(w io.Writer, header bool) *Writer {
	return &Writer{w: w, header: header}
}

// Emit implements Emitter.
func (e *Writer) Emit(c *bat.Chunk, m Meta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.header {
		fmt.Fprintf(e.w, "# %s seq=%d rows=%d latency=%dus\n",
			m.Query, m.Seq, c.Rows(), m.LatencyUsec)
	}
	rows := c.Rows()
	for i := 0; i < rows; i++ {
		vals := c.Row(i)
		parts := make([]string, len(vals))
		for j, v := range vals {
			parts[j] = v.String()
		}
		fmt.Fprintln(e.w, strings.Join(parts, ","))
	}
}

// Close implements Emitter.
func (e *Writer) Close() {}

// Func adapts a callback into an Emitter.
type Func func(c *bat.Chunk, m Meta)

// Emit implements Emitter.
func (f Func) Emit(c *bat.Chunk, m Meta) { f(c, m) }

// Close implements Emitter.
func (Func) Close() {}

// Null discards results (used by benchmarks measuring pure engine cost).
type Null struct{}

// Emit implements Emitter.
func (Null) Emit(*bat.Chunk, Meta) {}

// Close implements Emitter.
func (Null) Close() {}

// Multi fans results out to several emitters.
type Multi []Emitter

// Emit implements Emitter.
func (m Multi) Emit(c *bat.Chunk, meta Meta) {
	for _, e := range m {
		e.Emit(c, meta)
	}
}

// Close implements Emitter.
func (m Multi) Close() {
	for _, e := range m {
		e.Close()
	}
}
