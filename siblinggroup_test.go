package datacell

// Differential test for sibling aggregates: grouped aggregates over one
// stream that differ only in their WHERE clause share one grouping of
// each basic window (kernel.AggregateSet), and each must emit exactly
// what it emits when it evaluates alone.

import (
	"fmt"
	"math/rand"
	"testing"

	"datacell/internal/bat"
)

// siblingFilters are the WHERE clauses of one family of siblings: every
// row, every row through a filter that keeps them all, no row, most rows
// (reaching every group), and one key's rows (reaching few groups).
var siblingFilters = []string{"", "WHERE v >= 0.0", "WHERE v > 1000.0", "WHERE v > 2.5", "WHERE k = 3"}

// siblingFamilies are the GROUP BY lists of the families: integer, time,
// string and composite keys. The last family's filters are selective
// only, so their selections cover too few rows to share a grouping and
// each sibling groups alone.
var siblingFamilies = []struct {
	keys    string
	filters []string
}{
	{"k", siblingFilters},
	{"ts", siblingFilters},
	{"c", siblingFilters},
	{"k, c", siblingFilters},
	{"c, k", []string{"WHERE v > 1000.0", "WHERE k = 3", "WHERE v > 9.5"}},
}

func siblingSQL(keys, filter string) string {
	return fmt.Sprintf("SELECT %s, count(*) AS n, sum(i) AS si, sum(v) AS sv, min(v) AS mn, max(i) AS mx, min(c) AS mc "+
		"FROM s [SIZE 60 SLIDE 20] %s GROUP BY %s", keys, filter, keys)
}

// siblingRows builds rows [lo, hi) of the test stream: repeated
// timestamps, eight integer keys, five strings, and fractional float
// values whose sums depend on their order.
func siblingRows(lo, hi int) *bat.Chunk {
	strs := []string{"ant", "bee", "cat", "dog", "eel"}
	c := bat.NewChunk(bat.NewSchema(
		[]string{"ts", "k", "c", "i", "v"},
		[]bat.Kind{bat.Time, bat.Int, bat.Str, bat.Int, bat.Float}))
	for r := lo; r < hi; r++ {
		rng := rand.New(rand.NewSource(int64(r)))
		_ = c.AppendRow(bat.TimeValue(int64(r/3)), bat.IntValue(int64(rng.Intn(8))), bat.StrValue(strs[rng.Intn(len(strs))]),
			bat.IntValue(int64(rng.Intn(100)-50)), bat.FloatValue(rng.Float64()*10))
	}
	return c
}

// TestSiblingGroupingMatchesPrivate registers every family's siblings
// shared and, next to each, a twin that evaluates alone (NoMemo,
// NoSharedMerge), and compares their result sequences window by window,
// over a single-run stream and a two-shard one, whose multi-run windows
// evaluate each sibling alone. One more sibling joins
// mid-stream, is paused across a burst that seals several windows in one
// append, and leaves mid-stream. Released groupings and accumulators are
// poisoned in test binaries, so a partial that kept scratch storage fails
// the comparison.
func TestSiblingGroupingMatchesPrivate(t *testing.T) {
	const ddl = "CREATE STREAM s (ts TIMESTAMP, k INT, c STRING, i INT, v FLOAT)"
	for _, tc := range []struct{ name, ddl string }{
		{"single-run", ddl},
		{"two-shard", ddl + " SHARD 2 KEY k"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(&Options{Workers: 2})
			defer eng.Close()
			mustExecG(t, eng, tc.ddl)
			shared, twins := map[string]*Query{}, map[string]*Query{}
			register := func(name, sql string) {
				t.Helper()
				q, err := eng.Register(name, sql, &RegisterOptions{Mode: ModeIncremental})
				if err != nil {
					t.Fatal(err)
				}
				twin, err := eng.Register(name+"_alone", sql,
					&RegisterOptions{Mode: ModeIncremental, NoMemo: true, NoSharedMerge: true})
				if err != nil {
					t.Fatal(err)
				}
				shared[name], twins[name] = q, twin
			}
			got, want := map[string][]string{}, map[string][]string{}
			feed := func(lo, hi, per int) {
				t.Helper()
				for at := lo; at < hi; at += per {
					if err := eng.Append("s", siblingRows(at, min(at+per, hi))); err != nil {
						t.Fatal(err)
					}
				}
				eng.Drain()
				for name, q := range shared {
					got[name] = append(got[name], collectRendered(q)...)
					want[name] = append(want[name], collectRendered(twins[name])...)
				}
			}
			for f, fam := range siblingFamilies {
				for i, filter := range fam.filters {
					register(fmt.Sprintf("f%d_%d", f, i), siblingSQL(fam.keys, filter))
				}
			}
			const late = "late"
			feed(0, 100, 20)
			register(late, siblingSQL("k", "WHERE v > 5.0"))
			feed(100, 200, 7)
			shared[late].Pause()
			feed(200, 400, 200) // one append: a ten-window burst
			shared[late].Resume()
			feed(400, 460, 20)
			shared[late].Stop()
			twins[late].Stop()
			delete(shared, late)
			feed(460, 600, 13)

			if g := eng.Groups(); len(g) != 1 || g[0].MemoHits == 0 {
				t.Fatalf("groups = %+v, want one group whose siblings share evaluations", g)
			}
			for name, w := range want {
				if len(w) == 0 {
					t.Fatalf("%s: its twin emitted nothing", name)
				}
				if len(got[name]) != len(w) {
					t.Fatalf("%s: %d results, want %d", name, len(got[name]), len(w))
				}
				for i := range w {
					if got[name][i] != w[i] {
						t.Fatalf("%s: result %d diverges:\ngot:\n%s\nwant:\n%s", name, i, got[name][i], w[i])
					}
				}
			}
		})
	}
}
