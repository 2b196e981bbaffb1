package datacell

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"datacell/internal/bat"
)

// shapeRow is one row of the shape tests' streams s, r and u, all
// (ts TIMESTAMP, k INT, v FLOAT).
type shapeRow struct {
	ts, k int64
	v     float64
}

// shapeAppend is one append of the shape feeds: every row of an append
// carries one key, so on a stream sharded by k it lands in one shard and
// one basket segment — one batch for a non-windowed scan, whatever the
// shard count.
type shapeAppend struct {
	stream string
	rows   []shapeRow
}

// shapeFeed builds n rounds of four-row appends to each of streams, in
// stream order. Timestamps advance one second per round, a quarter
// second per row, so a time window seals mid-feed.
func shapeFeed(n int, streams ...string) []shapeAppend {
	var out []shapeAppend
	for e := 0; e < n; e++ {
		for si, st := range streams {
			k := int64((e + si*(e%2)) % 3)
			var rows []shapeRow
			for i := 0; i < 4; i++ {
				rows = append(rows, shapeRow{
					ts: int64(e)*1_000_000 + int64(i)*250_000,
					k:  k,
					v:  float64((e*7+i*3+si*5)%11) + 0.5,
				})
			}
			out = append(out, shapeAppend{st, rows})
		}
	}
	return out
}

// renderShape renders one result row as collectSorted does.
func renderShape(vals ...bat.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return fmt.Sprint(parts)
}

// TestPrivateGroupShapes covers the query shapes that only a private
// group serves: non-windowed scans (a filter and a per-batch aggregate),
// a join whose windows differ, a join of a tuple window with a time
// window, and a three-stream read. Each runs registered default and
// ISOLATED, on one and two shards, with one and four workers; every run
// must emit the same result sequence, and the non-windowed and three-
// stream tumbling results must match expectations computed here.
func TestPrivateGroupShapes(t *testing.T) {
	type shape struct {
		name    string
		sql     string
		streams []string
		want    func(feed []shapeAppend) [][]string // nil: equivalence only
	}
	shapes := []shape{
		{
			name:    "nonwindowed_filter",
			sql:     "SELECT k, v FROM s WHERE v > 5.0",
			streams: []string{"s"},
			want: func(feed []shapeAppend) [][]string {
				var out [][]string
				for _, a := range feed {
					rows := []string{}
					for _, r := range a.rows {
						if r.v > 5.0 {
							rows = append(rows, renderShape(bat.IntValue(r.k), bat.FloatValue(r.v)))
						}
					}
					sort.Strings(rows)
					out = append(out, rows)
				}
				return out
			},
		},
		{
			name:    "nonwindowed_aggregate",
			sql:     "SELECT k, count(*) AS n, sum(v) AS t FROM s GROUP BY k",
			streams: []string{"s"},
			want: func(feed []shapeAppend) [][]string {
				var out [][]string
				for _, a := range feed {
					sum := 0.0
					for _, r := range a.rows {
						sum += r.v
					}
					out = append(out, []string{renderShape(bat.IntValue(a.rows[0].k),
						bat.IntValue(int64(len(a.rows))), bat.FloatValue(sum))})
				}
				return out
			},
		},
		{
			name:    "join_differing_windows",
			sql:     "SELECT s.v, r.v FROM s [SIZE 8 SLIDE 4], r [SIZE 4 SLIDE 2] WHERE s.k = r.k",
			streams: []string{"s", "r"},
		},
		{
			name:    "join_tuple_time",
			sql:     "SELECT s.v, r.v FROM s [SIZE 8 SLIDE 4], r [RANGE 2 SECONDS SLIDE 1 SECONDS ON ts] WHERE s.k = r.k",
			streams: []string{"s", "r"},
		},
		{
			name:    "three_streams_tumbling",
			sql:     "SELECT s.v, r.v, u.v FROM s [SIZE 4 SLIDE 4], r [SIZE 4 SLIDE 4], u [SIZE 4 SLIDE 4] WHERE s.k = r.k AND s.k = u.k",
			streams: []string{"s", "r", "u"},
			want: func(feed []shapeAppend) [][]string {
				// Each append is one tumbling basic window; the group
				// releases them in canonical order (s_e, r_e, u_e) and, once
				// every ring is full, evaluates on each against the other
				// streams' current windows.
				cur := map[string][]shapeRow{}
				var out [][]string
				for _, a := range feed {
					cur[a.stream] = a.rows
					if len(cur) < 3 {
						continue
					}
					rows := []string{}
					for _, x := range cur["s"] {
						for _, y := range cur["r"] {
							for _, z := range cur["u"] {
								if x.k == y.k && x.k == z.k {
									rows = append(rows, renderShape(bat.FloatValue(x.v), bat.FloatValue(y.v), bat.FloatValue(z.v)))
								}
							}
						}
					}
					sort.Strings(rows)
					out = append(out, rows)
				}
				return out
			},
		},
	}
	for _, sh := range shapes {
		feed := shapeFeed(12, sh.streams...)
		var first []string
		for _, shards := range []int{1, 2} {
			for _, workers := range []int{1, 4} {
				for _, isolated := range []bool{false, true} {
					label := fmt.Sprintf("%s shards=%d workers=%d isolated=%v", sh.name, shards, workers, isolated)
					got := runShape(t, sh.sql, sh.streams, feed, shards, workers, isolated)
					if len(got) == 0 {
						t.Fatalf("%s: no results", label)
					}
					rendered := make([]string, len(got))
					for i, rows := range got {
						rendered[i] = strings.Join(rows, " ")
					}
					if first == nil {
						first = rendered
						if sh.want != nil {
							want := sh.want(feed)
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Fatalf("%s:\ngot  %v\nwant %v", label, got, want)
							}
						}
						continue
					}
					if strings.Join(rendered, "\n") != strings.Join(first, "\n") {
						t.Fatalf("%s diverges from the first run:\ngot   %q\nfirst %q", label, rendered, first)
					}
				}
			}
		}
	}
}

// runShape registers sql on a fresh engine over streams sharded by k,
// appends feed with a drain after every append (fixing the seal order of
// time windows and of streams without a shared sequencing axis), and
// returns the results with each result's rows sorted.
func runShape(t *testing.T, sql string, streams []string, feed []shapeAppend, shards, workers int, isolated bool) [][]string {
	t.Helper()
	eng := New(&Options{Workers: workers})
	defer eng.Close()
	for _, st := range streams {
		mustExec(t, eng, fmt.Sprintf("CREATE STREAM %s (ts TIMESTAMP, k INT, v FLOAT) SHARD %d KEY k", st, shards))
	}
	q, err := eng.Register("q", sql, &RegisterOptions{Isolated: isolated})
	if err != nil {
		t.Fatal(err)
	}
	assertIsolation(t, eng, q, true) // every shape here gets a private group
	for _, a := range feed {
		rows := make([][]any, len(a.rows))
		for i, r := range a.rows {
			rows[i] = []any{r.ts, r.k, r.v}
		}
		if err := eng.Append(a.stream, rows); err != nil {
			t.Fatal(err)
		}
		eng.Drain()
	}
	return collectSorted(q)
}

// TestMixedWindowedStreamsRejected: a plan that windows one stream and
// not another has no consistent firing rule — the windowed side seals
// basic windows while the other delivers raw batches — so registration
// fails instead of leaving a query that crashes on its first window.
func TestMixedWindowedStreamsRejected(t *testing.T) {
	eng, _ := newTestEngine(t)
	mustExec(t, eng, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)")
	mustExec(t, eng, "CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)")
	for _, isolated := range []bool{false, true} {
		_, err := eng.Register("mixed", "SELECT s.k, r.v FROM s [SIZE 4 SLIDE 4], r WHERE s.k = r.k",
			&RegisterOptions{Isolated: isolated})
		if err == nil || !strings.Contains(err.Error(), "mixes windowed and non-windowed") {
			t.Fatalf("isolated=%v: Register = %v, want a mixed-window error", isolated, err)
		}
	}
	if n := len(eng.QueryNames()); n != 0 {
		t.Fatalf("%d queries registered after rejections", n)
	}
}
