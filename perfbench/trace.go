package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. Spans
// stay in memory and are written out once the run ends. A nil or disabled
// tracer records nothing, and begin then returns -1.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) begin(name string, parent int32) int32 {
	if !t.enabled() {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 || t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, the self time of every closed span that
// starts within [from, to] (ns since the epoch): a span's duration minus
// the part of it its children cover.
func (t *tracer) selfTimes(from, to int64) map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]int32)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := map[string]int64{}
	for _, s := range t.spans {
		if s.End < 0 || s.Start < from || s.Start > to {
			continue
		}
		d := s.End - s.Start
		var iv [][2]int64
		for _, c := range children[s.ID] {
			if cs := t.spans[c]; cs.End >= 0 {
				iv = append(iv, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
			}
		}
		self[s.Name] += d - covered(iv)
	}
	return self
}

// durations lists the durations of the closed spans with this name.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// now is the time since the epoch, in ns.
func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n, hi int64 = 0, -1 << 62
	for _, x := range iv {
		if x[1] <= hi {
			continue
		}
		lo := max(x[0], hi)
		if x[1] > lo {
			n += x[1] - lo
		}
		hi = x[1]
	}
	return n
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
