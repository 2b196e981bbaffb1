package main

import (
	"strings"
	"testing"

	"datacell/internal/bat"
	"datacell/internal/emitter"
)

// drive sets workload w up, appends n chunks of the seed's input, closes
// every window the input reached and returns each query's results.
func drive(t *testing.T, w *workload, seed, n int64) [][]emitter.Result {
	t.Helper()
	s, err := setup(w, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := w.source(seed)
	for i := int64(0); i < n; i++ {
		if err := s.eng.Append(w.stream, src.next()); err != nil {
			t.Fatal(err)
		}
	}
	s.drain()
	if w.closesTrailing {
		s.eng.AdvanceTime(n * lrBaseSec * 1_000_000)
		s.drain()
	}
	out := make([][]emitter.Result, len(s.qs))
	for i, q := range s.qs {
		for len(q.Out()) > 0 {
			out[i] = append(out[i], <-q.Out())
		}
	}
	s.close()
	return out
}

func check(w *workload, seed, n int64, results [][]emitter.Result) verdict {
	logs := make([]*resultLog, len(results))
	names := make([]string, len(results))
	for i, rs := range results {
		logs[i] = &resultLog{}
		for _, r := range rs {
			logs[i].add(r, 0)
		}
		names[i] = w.name
	}
	return verify(names, logs, w.reference(seed, n))
}

// TestWindowAlignment pins the oracle to the engine on each window kind:
// tuple windows (fanout), event-time windows closed by AdvanceTime
// (lroad), and windows merged from a fabric worker's fragments (fabric).
// Every emitted window must match its reference by generation, and none
// may be missing or extra.
func TestWindowAlignment(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			const seed, n = 3, 24
			got := check(w, seed, n, drive(t, w, seed, n))
			if got.failed != 0 || got.attempted == 0 {
				t.Fatalf("attempted %d, failed %d:\n%s", got.attempted, got.failed, got.String())
			}
			for qi := range w.queries {
				if want := w.sealedBy(qi, n+w.sealLag); want > int64(len(w.reference(seed, n)[qi])) {
					t.Fatalf("query %d: sealedBy %d exceeds the reference's windows", qi, want)
				}
			}
		})
	}
}

// TestOracleCatchesCorruptionAndLoss proves the oracle fails a run with
// one corrupted value in one row, and a run missing one window.
func TestOracleCatchesCorruptionAndLoss(t *testing.T) {
	w := workloads()[0]
	const seed, n = 5, 12
	results := drive(t, w, seed, n)
	if v := check(w, seed, n, results); v.failed != 0 {
		t.Fatalf("clean run failed:\n%s", v.String())
	}

	corrupt := make([][]emitter.Result, len(results))
	copy(corrupt, results)
	r := corrupt[3][2]
	c := &bat.Chunk{Schema: r.Chunk.Schema}
	for _, col := range r.Chunk.Cols {
		switch v := col.(type) {
		case bat.Ints:
			c.Cols = append(c.Cols, append(bat.Ints(nil), v...))
		case bat.Floats:
			c.Cols = append(c.Cols, append(bat.Floats(nil), v...))
		default:
			t.Fatalf("unexpected column kind %T", col)
		}
	}
	c.Cols[2].(bat.Floats)[0] += 0.25
	corrupt[3] = append([]emitter.Result(nil), results[3]...)
	corrupt[3][2] = emitter.Result{Chunk: c, Meta: r.Meta}
	if v := check(w, seed, n, corrupt); v.failed != 1 || !strings.Contains(v.String(), "wrong result") {
		t.Fatalf("corrupted row: failed %d:\n%s", v.failed, v.String())
	}

	missing := make([][]emitter.Result, len(results))
	copy(missing, results)
	missing[7] = append(append([]emitter.Result(nil), results[7][:4]...), results[7][5:]...)
	if v := check(w, seed, n, missing); v.failed != 1 || !strings.Contains(v.String(), "missing result") {
		t.Fatalf("missing window: failed %d:\n%s", v.failed, v.String())
	}
}
