package datacell

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"testing"

	"datacell/internal/bat"
)

// A query group whose members all keep nothing but partial aggregates
// hands each basic window's basket storage back to the basket when the
// window's last shared reference is released, and later appends write
// into it. In test binaries released storage is poisoned first, so a
// member that read a window's runs after their release would emit NaN,
// sentinel integers or poison strings. This test drives such groups with
// appends large enough to fill whole segments — and drains after each,
// so released storage is there for the next append to reuse — and
// requires every member's results to be byte-identical to the same
// queries registered isolated and in re-evaluation mode on an engine of
// their own (whose private paths never recycle).

// recycleSchema is the input layout: v is a multiple of 0.25 well inside
// float64's exact range, so sums are exact in any order and incremental,
// isolated and re-evaluation results agree to the bit.
var recycleSchema = bat.NewSchema(
	[]string{"ts", "k", "g", "v", "tag"},
	[]bat.Kind{bat.Time, bat.Int, bat.Int, bat.Float, bat.Str})

// recycleSlide is the time windows' slide, in microseconds.
const recycleSlide = 2_000_000

// recycleLog builds appends of 4000 to 4399 rows, append a spanning the
// event time [2a+1, 2a+3) s: every append straddles a bucket edge, so its
// rows reach two buckets on both shards at once.
func recycleLog(rng *rand.Rand, appends int) []*bat.Chunk {
	var out []*bat.Chunk
	for a := 0; a < appends; a++ {
		n := 4000 + rng.Intn(400)
		ts, ks, gs := make(bat.Times, n), make(bat.Ints, n), make(bat.Ints, n)
		vs, tags := make(bat.Floats, n), make(bat.Strs, n)
		for i := 0; i < n; i++ {
			ts[i] = int64(a)*recycleSlide + recycleSlide/2 + int64(i)*recycleSlide/int64(n)
			ks[i] = int64(rng.Intn(8))
			gs[i] = int64(rng.Intn(3))
			vs[i] = float64(rng.Intn(800)-200) * 0.25
			tags[i] = string(rune('a' + rng.Intn(5)))
		}
		out = append(out, &bat.Chunk{Schema: recycleSchema, Cols: []bat.Vector{ts, ks, gs, vs, tags}})
	}
	return out
}

func TestSegmentRecyclingEquivalence(t *testing.T) {
	streams := map[string]string{
		"sharded":   "CREATE STREAM s (ts TIMESTAMP, k INT, g INT, v FLOAT, tag STRING) SHARD 2 KEY k",
		"unsharded": "CREATE STREAM s (ts TIMESTAMP, k INT, g INT, v FLOAT, tag STRING)",
	}
	windows := map[string]string{
		"tuple": "[SIZE 9000 SLIDE 3000]",
		"time":  "[RANGE 6 SECONDS SLIDE 2 SECONDS ON ts]",
	}
	const appends = 12
	log := recycleLog(rand.New(rand.NewSource(23)), appends)
	for sname, create := range streams {
		for wname, win := range windows {
			// Aggregate-only members: two identical ones share a DAG path
			// and a merge class, the others differ in keys, filters and
			// post-merge fragments.
			agg := "SELECT k, sum(v) AS s, count(*) AS n, min(v) AS lo, max(tag) AS hi FROM s " + win +
				" WHERE v > -20.0 GROUP BY k"
			queries := map[string]string{
				"agg_a":     agg,
				"agg_b":     agg,
				"composite": "SELECT tag, g, sum(v * 3.0) AS s3, count(*) AS n FROM s " + win + " GROUP BY tag, g",
				"global":    "SELECT count(*) AS n, sum(v) AS s, max(v) AS hi FROM s " + win,
				"having": "SELECT g, count(*) AS n FROM s " + win +
					" WHERE v < 50.0 GROUP BY g HAVING count(*) > 10 ORDER BY g",
			}
			run := func(opts *RegisterOptions, suffix string) (map[string][][]byte, *Engine) {
				e, _ := newTestEngine(t)
				mustExec(t, e, create)
				qs := make(map[string]*Query, len(queries))
				for name, sql := range queries {
					o := opts
					if o != nil {
						cp := *o
						o = &cp
					}
					q, err := e.Register(name+suffix, sql, o)
					if err != nil {
						t.Fatalf("%s %s %s: %v", sname, wname, name, err)
					}
					qs[name] = q
				}
				got := make(map[string][][]byte, len(qs))
				drain := func() {
					e.Drain()
					for name, q := range qs {
						for _, res := range collect(e, q) {
							got[name] = append(got[name], bat.MarshalChunk(nil, res.Chunk))
						}
					}
				}
				for _, c := range log {
					if err := e.Append("s", c); err != nil {
						t.Fatal(err)
					}
					drain()
				}
				e.AdvanceTime((appends + 1) * recycleSlide) // seals the open time buckets
				drain()
				return got, e
			}
			// A collection empties the free lists (they hold released
			// storage weakly); keep it off while the grouped engine runs
			// so that reuse, which the comparison depends on, happens.
			gc := debug.SetGCPercent(-1)
			grouped, ge := run(nil, "")
			debug.SetGCPercent(gc)
			bk, err := ge.Basket("s")
			if err != nil {
				t.Fatal(err)
			}
			if st := bk.Stats(); st.Reused == 0 {
				t.Fatalf("%s %s: none of %d segments reused released storage", sname, wname, st.Segments)
			}
			for mode, opts := range map[string]*RegisterOptions{
				"isolated": {Isolated: true},
				"reeval":   {Mode: ModeReeval, Isolated: true},
			} {
				want, _ := run(opts, "_"+mode)
				for name := range queries {
					g, w := grouped[name], want[name]
					if len(w) == 0 {
						t.Fatalf("%s %s %s (%s): no results", sname, wname, name, mode)
					}
					if len(g) != len(w) {
						t.Fatalf("%s %s %s: %d grouped results, %d %s", sname, wname, name, len(g), len(w), mode)
					}
					for i := range w {
						if !bytes.Equal(g[i], w[i]) {
							t.Fatalf("%s %s %s: result %d differs grouped vs %s%s", sname, wname, name, i, mode, decodeBoth(g[i], w[i]))
						}
					}
				}
			}
		}
	}
}

// TestSegmentRecyclingNeedsPartialsOnly: a group recycles only when every
// member keeps nothing of a window but its partial aggregate. A member
// whose ring holds pipeline outputs (views of the runs) or a
// re-evaluation member turns recycling off for the whole group; an
// aggregate alone keeps it on, whether the shared DAG computes its
// partials or its own pipeline does (NoMemo).
func TestSegmentRecyclingNeedsPartialsOnly(t *testing.T) {
	const win = "[SIZE 9000 SLIDE 3000]"
	agg := "SELECT k, sum(v) AS s, count(*) AS n FROM s " + win + " GROUP BY k"
	cases := []struct {
		name    string
		other   string
		opts    *RegisterOptions
		recycle bool
	}{
		{"aggregate", agg, nil, true},
		{"rows", "SELECT k, v FROM s " + win + " WHERE v > 10.0", nil, false},
		{"reeval", agg, &RegisterOptions{Mode: ModeReeval}, false},
		{"private aggregate", agg, &RegisterOptions{NoMemo: true}, true},
	}
	log := recycleLog(rand.New(rand.NewSource(5)), 8)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep released storage for reuse
	for _, tc := range cases {
		e, _ := newTestEngine(t)
		mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, k INT, g INT, v FLOAT, tag STRING)")
		if _, err := e.Register("agg", agg, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Register("other", tc.other, tc.opts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if gs := e.Groups(); len(gs) != 1 {
			t.Fatalf("%s: %d groups, want the two members in one", tc.name, len(gs))
		}
		for _, c := range log {
			if err := e.Append("s", c); err != nil {
				t.Fatal(err)
			}
			e.Drain()
		}
		bk, err := e.Basket("s")
		if err != nil {
			t.Fatal(err)
		}
		if st := bk.Stats(); (st.Reused > 0) != tc.recycle {
			t.Fatalf("%s: %d of %d segments reused released storage, want recycling %v",
				tc.name, st.Reused, st.Segments, tc.recycle)
		}
		e.Close()
	}
}
