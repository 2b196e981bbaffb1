package datacell

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"datacell/internal/bat"
)

// A time window seals on the event time of the stream's settled prefix:
// the rows whose sequence numbers are all below the container's settled
// watermark. Every row of that prefix is visible in its shard before the
// clock moves, so a shard never seals a bucket that a row of the prefix
// still has to reach, however the shard firings interleave with the
// appends. These tests feed a SHARD 2 stream whose event time never goes
// backwards and require every run, at 1 and at 4 scheduler workers, to
// emit exactly what a run that drains after every append emits.

var sealSchema = bat.NewSchema(
	[]string{"ts", "k", "v"},
	[]bat.Kind{bat.Time, bat.Int, bat.Float})

const sealQuery = "SELECT k, sum(v) AS s, count(*) AS n FROM s [RANGE 2 SECONDS SLIDE 1 SECONDS ON ts] GROUP BY k"

// sealChunk builds rows rows whose timestamps run evenly over
// [from, from+span) µs, with keys spread over both shards and integral
// values (exact sums in any order).
func sealChunk(rng *rand.Rand, from, span int64, rows int) *bat.Chunk {
	ts, ks, vs := make(bat.Times, rows), make(bat.Ints, rows), make(bat.Floats, rows)
	for i := range ts {
		ts[i] = from + int64(i)*span/int64(rows)
		ks[i] = int64(rng.Intn(8))
		vs[i] = float64(rng.Intn(100))
	}
	return &bat.Chunk{Schema: sealSchema, Cols: []bat.Vector{ts, ks, vs}}
}

// sealRun registers sealQuery on a fresh SHARD 2 engine with the given
// worker count, lets feed append, closes the open buckets up to end (µs)
// and returns the emitted result chunks, marshaled.
func sealRun(t *testing.T, workers int, end int64, feed func(e *Engine)) [][]byte {
	t.Helper()
	e := New(&Options{Workers: workers})
	defer e.Close()
	mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 2 KEY k")
	q, err := e.Register("q", sealQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed(e)
	e.Drain()
	e.AdvanceTime(end)
	var out [][]byte
	for _, r := range collect(e, q) {
		out = append(out, bat.MarshalChunk(nil, r.Chunk))
	}
	if len(out) == 0 {
		t.Fatal("no results")
	}
	return out
}

func TestTimeWindowSealsOnSettledPrefix(t *testing.T) {
	const runs = 30
	t.Run("straddling_chunks", func(t *testing.T) {
		// One appender, 200 chunks of 500 ms each, offset by 250 ms from
		// the 1 s bucket edges: every other chunk straddles an edge, so
		// its rows reach the two shards' buckets k and k+1 at once.
		rng := rand.New(rand.NewSource(31))
		const end = 200*500_000 + 3_000_000
		var log []*bat.Chunk
		for i := 0; i < 200; i++ {
			log = append(log, sealChunk(rng, int64(i)*500_000+250_000, 500_000, 16+rng.Intn(32)))
		}
		feed := func(drain bool) func(e *Engine) {
			return func(e *Engine) {
				for _, c := range log {
					if err := e.Append("s", c); err != nil {
						t.Fatal(err)
					}
					if drain {
						e.Drain()
					}
				}
			}
		}
		want := sealRun(t, 1, end, feed(true))
		for run := 0; run < runs; run++ {
			for _, workers := range []int{1, 4} {
				if diff := firstDiff(sealRun(t, workers, end, feed(false)), want); diff != "" {
					t.Fatalf("run %d, %d workers: %s", run, workers, diff)
				}
			}
		}
	})
	t.Run("concurrent_appenders", func(t *testing.T) {
		// Two appenders race through each round; a barrier separates the
		// rounds. A round's rows all fall into one bucket, so the log's
		// buckets do not depend on how the two appenders' sequence ranges
		// interleave — but their ranges settle out of order, and the
		// settled time must fold each range's maximum in only once the
		// prefix below it has settled. Row order inside a window follows
		// the interleaving, so each result is compared as a sorted row set.
		const rounds, appenders = 40, 2
		const end = (rounds + 2) * 1_000_000
		rng := rand.New(rand.NewSource(32))
		logs := make([][][]*bat.Chunk, rounds)
		for r := range logs {
			logs[r] = make([][]*bat.Chunk, appenders)
			for a := range logs[r] {
				for c := 0; c < 3; c++ {
					from := int64(r)*1_000_000 + int64(rng.Intn(900_000))
					logs[r][a] = append(logs[r][a], sealChunk(rng, from, 100_000, 8+rng.Intn(24)))
				}
			}
		}
		feed := func(drain bool) func(e *Engine) {
			return func(e *Engine) {
				for _, round := range logs {
					var wg sync.WaitGroup
					for _, chunks := range round {
						wg.Add(1)
						go func(chunks []*bat.Chunk) {
							defer wg.Done()
							for _, c := range chunks {
								if err := e.Append("s", c); err != nil {
									t.Error(err)
								}
							}
						}(chunks)
					}
					wg.Wait()
					if drain {
						e.Drain()
					}
				}
			}
		}
		want := sortedResults(sealRun(t, 1, end, feed(true)))
		for run := 0; run < runs; run++ {
			for _, workers := range []int{1, 4} {
				got := sortedResults(sealRun(t, workers, end, feed(false)))
				if diff := firstDiff(got, want); diff != "" {
					t.Fatalf("run %d, %d workers: %s", run, workers, diff)
				}
			}
		}
	})
}

// sortedResults renders each marshaled result chunk as its sorted rows.
func sortedResults(res [][]byte) [][]byte {
	out := make([][]byte, len(res))
	for i, b := range res {
		c, _, err := bat.UnmarshalChunk(b)
		if err != nil {
			panic(err)
		}
		rows := make([]string, c.Rows())
		for j := range rows {
			rows[j] = fmt.Sprint(c.Row(j))
		}
		sort.Strings(rows)
		out[i] = []byte(strings.Join(rows, ";"))
	}
	return out
}

// firstDiff describes the first result where got and want differ ("" when
// they are identical).
func firstDiff(got, want [][]byte) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Sprintf("result %d of %d differs", i, len(want))
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	return ""
}
