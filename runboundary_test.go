package datacell

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"datacell/internal/bat"
)

// A sharded basic window is the list of its shards' basket-segment runs,
// and where those runs begin and end follows the producers' append sizes
// and when each shard's consumer drained. These tests feed one input log
// through SHARD 2 streams under several append batchings and require
// every query's emitted result chunks to be byte-identical across them —
// row order, group order and every float bit — for grouped (shared DAG
// and merge class), isolated and re-evaluation queries, over tuple and
// time windows.

// runLogSchema is the input log's layout: hash-sharded on k, float values
// that are multiples of 0.1 (not exactly representable, so a change in
// summation order changes the bits).
var runLogSchema = bat.NewSchema(
	[]string{"ts", "k", "g", "v", "tag"},
	[]bat.Kind{bat.Time, bat.Int, bat.Int, bat.Float, bat.Str})

// runLog builds chunks of random sizes whose event time advances by
// 10 ms a row, so a time window's 1 s bucket holds 100 rows.
func runLog(rng *rand.Rand, rows int) []*bat.Chunk {
	var out []*bat.Chunk
	for pos := 0; pos < rows; {
		take := min(1+rng.Intn(60), rows-pos)
		ts, ks, gs := make(bat.Times, take), make(bat.Ints, take), make(bat.Ints, take)
		vs, tags := make(bat.Floats, take), make(bat.Strs, take)
		for i := 0; i < take; i++ {
			ts[i] = int64(pos+i) * 10_000
			ks[i] = int64(rng.Intn(6))
			gs[i] = int64(rng.Intn(4))
			vs[i] = float64(rng.Intn(1000)-300) * 0.1
			tags[i] = string(rune('a' + rng.Intn(4)))
		}
		out = append(out, &bat.Chunk{Schema: runLogSchema, Cols: []bat.Vector{ts, ks, gs, vs, tags}})
		pos += take
	}
	return out
}

// rebatch re-cuts the log's chunks: "whole" appends them as they are,
// "split" cuts each at random points, "rows" appends row by row.
func rebatch(rng *rand.Rand, log []*bat.Chunk, how string) []*bat.Chunk {
	if how == "whole" {
		return log
	}
	var out []*bat.Chunk
	for _, c := range log {
		for lo := 0; lo < c.Rows(); {
			hi := lo + 1
			if how == "split" {
				hi = min(lo+1+rng.Intn(c.Rows()), c.Rows())
			}
			out = append(out, c.Slice(lo, hi))
			lo = hi
		}
	}
	return out
}

func TestRunBoundaryInvarianceSharded(t *testing.T) {
	windows := map[string]string{
		"tuple": "[SIZE 48 SLIDE 16]",
		"time":  "[RANGE 3 SECONDS SLIDE 1 SECOND ON ts]",
	}
	type reg struct {
		name, sql string
		opts      *RegisterOptions
	}
	for wname, w := range windows {
		agg := "SELECT k, sum(v) AS s, count(*) AS n, min(v) AS lo, max(tag) AS hi FROM s " + w +
			" WHERE v > -20.0 GROUP BY k"
		regs := []reg{
			// Two identical grouped members share the scan group's DAG
			// nodes and merge class; a third differs in its key.
			{"grouped_a", agg, nil},
			{"grouped_b", agg, nil},
			{"grouped_composite", "SELECT tag, g, sum(v * 3.0) AS s3, count(*) AS n FROM s " + w +
				" GROUP BY tag, g", nil},
			{"grouped_rows", "SELECT k, v, tag FROM s " + w + " WHERE v >= 40.0", nil},
			{"isolated", agg, &RegisterOptions{Isolated: true}},
			{"reeval", agg, &RegisterOptions{Mode: ModeReeval}},
		}
		const rows = 1200
		rng := rand.New(rand.NewSource(22))
		log := runLog(rng, rows)
		var want map[string][][]byte
		for _, how := range []string{"whole", "split", "rows"} {
			e, _ := newTestEngine(t)
			mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, k INT, g INT, v FLOAT, tag STRING) SHARD 2 KEY k")
			qs := make(map[string]*Query, len(regs))
			for _, r := range regs {
				q, err := e.Register(r.name, r.sql, r.opts)
				if err != nil {
					t.Fatalf("%s %s: %v", wname, r.name, err)
				}
				qs[r.name] = q
			}
			for _, c := range rebatch(rng, log, how) {
				if err := e.Append("s", c); err != nil {
					t.Fatal(err)
				}
			}
			e.Drain()
			e.AdvanceTime(rows * 10_000) // seals the open time buckets
			got := make(map[string][][]byte, len(qs))
			for name, q := range qs {
				for _, res := range collect(e, q) {
					got[name] = append(got[name], bat.MarshalChunk(nil, res.Chunk))
				}
				if len(got[name]) == 0 {
					t.Fatalf("%s %s (%s): no results", wname, name, how)
				}
			}
			e.Close()
			if want == nil {
				want = got
				continue
			}
			for name, w := range want {
				g := got[name]
				if len(g) != len(w) {
					t.Fatalf("%s %s: %d results appended %s, %d appended whole", wname, name, len(g), how, len(w))
				}
				for i := range w {
					if !bytes.Equal(g[i], w[i]) {
						t.Fatalf("%s %s: result %d differs appended %s vs whole%s", wname, name, i, how, decodeBoth(g[i], w[i]))
					}
				}
			}
		}
	}
}

// decodeBoth renders two encoded result chunks for a failure message.
func decodeBoth(a, b []byte) string {
	ca, _, _ := bat.UnmarshalChunk(a)
	cb, _, _ := bat.UnmarshalChunk(b)
	return fmt.Sprintf("\n%v\nvs\n%v", ca, cb)
}
