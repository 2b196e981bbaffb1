package datacell

// Tests for sharded basket ingestion and parallel factory execution: the
// shard-merge invariant says an N-shard engine must produce exactly the
// results of the single-basket engine, per window, up to row order within
// a result set.

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"datacell/internal/bat"
)

// collectSorted drains a query's results, rendering each result set as a
// sorted list of row strings (order-insensitive comparison unit).
func collectSorted(q *Query) [][]string {
	var out [][]string
	for {
		select {
		case r := <-q.Out():
			rows := make([]string, r.Chunk.Rows())
			for i := range rows {
				vals := r.Chunk.Row(i)
				parts := make([]string, len(vals))
				for j, v := range vals {
					parts[j] = v.String()
				}
				rows[i] = fmt.Sprint(parts)
			}
			sort.Strings(rows)
			out = append(out, rows)
		default:
			return out
		}
	}
}

// runSharded feeds the given chunks through one registered query on an
// engine whose stream has the given DDL, returning per-eval sorted rows.
func runSharded(t *testing.T, ddl, sql string, mode Mode, chunks []*bat.Chunk) [][]string {
	t.Helper()
	eng := New(&Options{Workers: 4})
	defer eng.Close()
	if _, err := eng.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	q, err := eng.Register("q", sql, &RegisterOptions{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	return collectSorted(q)
}

func shardTestChunks(n, batch, nkeys int) []*bat.Chunk {
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	var out []*bat.Chunk
	for pos := 0; pos < n; {
		take := batch
		if pos+take > n {
			take = n - pos
		}
		ts := make(bat.Times, take)
		ks := make(bat.Ints, take)
		vs := make(bat.Floats, take)
		for i := 0; i < take; i++ {
			g := pos + i
			ts[i] = int64(g) * 1000
			ks[i] = int64(g*7) % int64(nkeys)
			vs[i] = float64(g % 100)
		}
		out = append(out, &bat.Chunk{Schema: sch, Cols: []bat.Vector{ts, ks, vs}})
		pos += take
	}
	return out
}

// TestShardedMatchesSingleBasket is the acceptance invariant: identical
// input through 1-shard and 4-shard engines yields identical per-window
// results (order-insensitive), for both execution modes, hash and
// round-robin routing, grouped aggregates and row-level filters.
func TestShardedMatchesSingleBasket(t *testing.T) {
	queries := []string{
		"SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE 64 SLIDE 16] GROUP BY k",
		"SELECT k, min(v) AS lo, max(v) AS hi FROM s [SIZE 32 SLIDE 32] GROUP BY k",
		"SELECT k, v FROM s [SIZE 48 SLIDE 12] WHERE v >= 50.0",
		"SELECT count(*) AS n FROM s [SIZE 20 SLIDE 5] GROUP BY k HAVING count(*) > 2",
	}
	ddls := map[string]string{
		"hash":       "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k",
		"roundrobin": "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4",
	}
	single := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)"
	chunks := shardTestChunks(400, 17, 5)
	for _, mode := range []Mode{ModeIncremental, ModeReeval} {
		for _, sql := range queries {
			want := runSharded(t, single, sql, mode, chunks)
			if len(want) == 0 {
				t.Fatalf("single-basket produced no results for %q", sql)
			}
			for route, ddl := range ddls {
				got := runSharded(t, ddl, sql, mode, chunks)
				if len(got) != len(want) {
					t.Fatalf("%s mode=%v %q: evals=%d, single-basket=%d",
						route, mode, sql, len(got), len(want))
				}
				for i := range want {
					if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
						t.Fatalf("%s mode=%v %q window %d:\nsharded %v\nsingle  %v",
							route, mode, sql, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestShardedTimeWindow checks the time-window path: absolute slide
// buckets sealed by the shared event-time watermark, plus AdvanceTime
// forcing idle buckets shut, match the single-basket engine.
func TestShardedTimeWindow(t *testing.T) {
	sql := "SELECT k, count(*) AS n FROM s [RANGE 2 SECONDS SLIDE 1 SECOND ON ts] GROUP BY k"
	run := func(ddl string) [][]string {
		eng := New(&Options{Workers: 4})
		defer eng.Close()
		if _, err := eng.Exec(ddl); err != nil {
			t.Fatal(err)
		}
		q, err := eng.Register("q", sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		sec := int64(1_000_000)
		// 3 rows in bucket 0, 2 in bucket 1, gap, 1 in bucket 3.
		for i, ts := range []int64{100, 200, 300, sec + 100, sec + 200, 3*sec + 100} {
			if err := eng.Append("s", []any{ts, int64(i % 2), 1.0}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
		eng.AdvanceTime(5 * sec)
		eng.Drain()
		return collectSorted(q)
	}
	want := run("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	got := run("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k")
	if len(want) == 0 {
		t.Fatal("single-basket time windows produced no results")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("time windows diverge:\nsharded %v\nsingle  %v", got, want)
	}
}

// TestShardedConcurrentProducers hammers a 4-shard stream from parallel
// producers and checks the tumbling-window invariant: every eval sees
// exactly window-size tuples regardless of append interleaving, and no
// tuple is lost or duplicated.
func TestShardedConcurrentProducers(t *testing.T) {
	const producers = 4
	const perProducer = 2000
	const win = 500
	eng := New(&Options{Workers: 4})
	defer eng.Close()
	if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"); err != nil {
		t.Fatal(err)
	}
	q, err := eng.Register("q",
		fmt.Sprintf("SELECT count(*) AS n FROM s [SIZE %d SLIDE %d]", win, win), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
			for i := 0; i < perProducer; i += 50 {
				c := bat.NewChunk(sch)
				for j := 0; j < 50; j++ {
					_ = c.AppendRow(bat.TimeValue(int64(i+j)), bat.IntValue(int64(p*1000+i+j)), bat.FloatValue(1))
				}
				if err := eng.Append("s", c); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	eng.Drain()
	res := collectSorted(q)
	wantEvals := producers * perProducer / win
	if len(res) != wantEvals {
		t.Fatalf("evals = %d, want %d", len(res), wantEvals)
	}
	for i, rows := range res {
		if len(rows) != 1 || rows[0] != fmt.Sprintf("[%d]", win) {
			t.Fatalf("eval %d = %v, want [[%d]]", i, rows, win)
		}
	}
	if st := q.Stats(); st.TuplesIn != producers*perProducer {
		t.Errorf("TuplesIn = %d, want %d", st.TuplesIn, producers*perProducer)
	}
}

// TestShardedSnapshotOrder checks that one-time queries over a sharded
// stream see rows in global arrival order (k-way merge by sequence).
func TestShardedSnapshotOrder(t *testing.T) {
	eng := New(&Options{Workers: 2})
	defer eng.Close()
	if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := eng.Append("s", []any{int64(i), int64(i), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := eng.Query1("SELECT k FROM s")
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows() != 20 {
		t.Fatalf("rows = %d", c.Rows())
	}
	for i := 0; i < 20; i++ {
		if got := c.Cols[0].Get(i).I; got != int64(i) {
			t.Fatalf("row %d = %d, want %d (arrival order lost)", i, got, i)
		}
	}
}

// TestShardedPauseResume checks container-level pause: appends while
// paused are neither sequenced nor visible, and Resume replays them
// through the partitioned path.
func TestShardedPauseResume(t *testing.T) {
	eng := New(&Options{Workers: 2})
	defer eng.Close()
	if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"); err != nil {
		t.Fatal(err)
	}
	q, err := eng.Register("q", "SELECT count(*) AS n FROM s [SIZE 4 SLIDE 4]", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.PauseStream("s"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		_ = eng.Append("s", []any{int64(i), int64(i), 1.0})
	}
	eng.Drain()
	if got := collectSorted(q); len(got) != 0 {
		t.Fatalf("results while paused: %v", got)
	}
	bk, _ := eng.Basket("s")
	if !bk.Paused() {
		t.Fatal("container not paused")
	}
	if err := eng.ResumeStream("s"); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	if got := collectSorted(q); len(got) != 2 {
		t.Fatalf("results after resume = %v, want 2 evals", got)
	}
}

// TestShardDDL exercises the SHARD clause surface.
func TestShardDDL(t *testing.T) {
	eng := New(nil)
	defer eng.Close()
	res, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Msg != "stream s created (4 shards)" {
		t.Errorf("msg = %q", res.Msg)
	}
	bk, _ := eng.Basket("s")
	if bk.NumShards() != 4 || bk.KeyIndex() != 1 {
		t.Errorf("shards=%d keyIdx=%d", bk.NumShards(), bk.KeyIndex())
	}
	if _, err := eng.Exec("CREATE STREAM bad (k INT) SHARD 2 KEY nope"); err == nil {
		t.Error("unknown shard key accepted")
	}
	if _, err := eng.Exec("CREATE STREAM bad2 (k INT) SHARD 0"); err == nil {
		t.Error("zero shard count accepted")
	}
	// Columns named shard/key stay legal (contextual parsing).
	if _, err := eng.Exec("CREATE STREAM meta (shard INT, key STRING)"); err != nil {
		t.Errorf("contextual SHARD/KEY broke column names: %v", err)
	}
}

// TestShardedTimeWindowDrainLiveness is the regression test for sealed
// buckets being withheld until the next append: when the watermark-raising
// row lands on a different shard than earlier buckets' rows, the raising
// firing must re-notify its sibling shards so Drain() observes every
// sealed window without an AdvanceTime heartbeat.
func TestShardedTimeWindowDrainLiveness(t *testing.T) {
	sec := int64(1_000_000)
	for iter := 0; iter < 20; iter++ {
		eng := New(&Options{Workers: 4})
		// Round-robin: consecutive appends land on different shards.
		if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4"); err != nil {
			t.Fatal(err)
		}
		q, err := eng.Register("q",
			"SELECT count(*) AS n FROM s [RANGE 2 SECONDS SLIDE 1 SECOND ON ts]", nil)
		if err != nil {
			t.Fatal(err)
		}
		// Bucket-0 rows on shard 0, then the bucket-3 row on shard 1.
		if err := eng.Append("s", []any{int64(100), int64(1), 1.0}, []any{int64(200), int64(2), 1.0}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Append("s", []any{3*sec + 100, int64(3), 1.0}); err != nil {
			t.Fatal(err)
		}
		eng.Drain()
		// Buckets 0..2 are sealed by the bucket-3 row; ring size 2 →
		// windows {0,1} (count 2) and {1,2} (empty: zero-row aggregate)
		// must be out after Drain alone.
		res := collectSorted(q)
		if len(res) != 2 || len(res[0]) != 1 || res[0][0] != "[2]" || len(res[1]) != 0 {
			t.Fatalf("iter %d: results after Drain = %v, want [[[2]] []]", iter, res)
		}
		eng.Close()
	}
}

// TestShardedFloatKeyRouting pins that fractional float keys spread across
// shards (hashing the bit pattern, not the truncated integer part).
func TestShardedFloatKeyRouting(t *testing.T) {
	eng := New(&Options{Workers: 2})
	defer eng.Close()
	if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY v"); err != nil {
		t.Fatal(err)
	}
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	c := bat.NewChunk(sch)
	for i := 0; i < 64; i++ {
		// All keys in [0, 1): truncation would route every row to one shard.
		_ = c.AppendRow(bat.TimeValue(int64(i)), bat.IntValue(int64(i)), bat.FloatValue(float64(i)/64))
	}
	if err := eng.Append("s", c); err != nil {
		t.Fatal(err)
	}
	bk, _ := eng.Basket("s")
	nonEmpty := 0
	for _, st := range bk.ShardStats() {
		if st.Len > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("64 distinct fractional keys landed on %d shard(s)", nonEmpty)
	}
}
