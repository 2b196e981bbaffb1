package factory

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/catalog"
	"datacell/internal/emitter"
	"datacell/internal/plan"
	"datacell/internal/sql"
)

// harness wires one factory, as the only member of a private group, to a
// fresh catalog with streams s(ts TIMESTAMP, k INT, v FLOAT) and
// r(ts TIMESTAMP, k INT, w INT) and a dimension table dim(k INT, name
// STRING).
type harness struct {
	cat  *catalog.Catalog
	fac  *Factory
	g    *Group
	m    *Member
	out  *emitter.Channel
	sb   *basket.Sharded
	rb   *basket.Sharded
	now  int64
	dimN int
}

func newHarness(t *testing.T, src string, mode Mode) *harness {
	t.Helper()
	h := &harness{cat: catalog.New(), now: 1}
	s, err := h.cat.CreateStream("s", bat.NewSchema(
		[]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float}))
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.cat.CreateStream("r", bat.NewSchema(
		[]string{"ts", "k", "w"}, []bat.Kind{bat.Time, bat.Int, bat.Int}))
	if err != nil {
		t.Fatal(err)
	}
	dim, err := h.cat.CreateTable("dim", bat.NewSchema(
		[]string{"k", "name"}, []bat.Kind{bat.Int, bat.Str}))
	if err != nil {
		t.Fatal(err)
	}
	dc := bat.NewChunk(dim.Schema())
	for i := 0; i < 4; i++ {
		_ = dc.AppendRow(bat.IntValue(int64(i)), bat.StrValue(fmt.Sprintf("k%d", i)))
	}
	_ = dim.Append(dc)
	h.dimN = 4
	h.sb, h.rb = s.Basket, r.Basket

	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bound, err := plan.Bind(h.cat, stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	opt := plan.Optimize(bound)
	cfg := Config{
		Name: "q",
		Full: opt,
		Mode: mode,
		Now:  func() int64 { h.now++; return h.now },
	}
	if mode == Incremental {
		d, err := plan.Decompose(opt)
		if err != nil {
			t.Fatalf("decompose: %v", err)
		}
		cfg.Decomp = d
	}
	h.out = emitter.NewChannel(4096)
	cfg.Emit = h.out

	fac, err := New(cfg)
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	h.fac = fac
	scans := make([]*plan.ScanStream, len(fac.inputs))
	for i, in := range fac.inputs {
		scans[i] = in.scan
	}
	h.g = NewGroup(GroupConfig{Key: "q!iso#1", SchedGroup: "group:q", Scans: scans,
		NotifyMember: func(string) {}})
	h.m = h.g.Join("q", fac)
	return h
}

// step fires every (side, shard) of the group, then the member's tail.
// It returns the result sets emitted.
func (h *harness) step() int {
	for side := range h.g.sides {
		for sh := 0; sh < h.g.NumShards(side); sh++ {
			h.g.FireShard(side, sh)
		}
	}
	return h.m.Fire()
}

// ready reports whether any (side, shard) of the group has work.
func (h *harness) ready() bool {
	for side := range h.g.sides {
		for sh := 0; sh < h.g.NumShards(side); sh++ {
			if h.g.ShardReady(side, sh) {
				return true
			}
		}
	}
	return false
}

// pushS appends rows (ts, k, v) to stream s and steps the factory.
func (h *harness) pushS(t *testing.T, rows ...[3]int64) {
	t.Helper()
	s, _ := h.cat.Stream("s")
	c := bat.NewChunk(s.Schema())
	for _, r := range rows {
		_ = c.AppendRow(bat.TimeValue(r[0]), bat.IntValue(r[1]), bat.FloatValue(float64(r[2])))
	}
	if err := h.sb.Append(c, h.now); err != nil {
		t.Fatal(err)
	}
	h.step()
}

func (h *harness) pushR(t *testing.T, rows ...[3]int64) {
	t.Helper()
	r, _ := h.cat.Stream("r")
	c := bat.NewChunk(r.Schema())
	for _, row := range rows {
		_ = c.AppendRow(bat.TimeValue(row[0]), bat.IntValue(row[1]), bat.IntValue(row[2]))
	}
	if err := h.rb.Append(c, h.now); err != nil {
		t.Fatal(err)
	}
	h.step()
}

// results drains the emitter, returning each result as sorted row strings.
func (h *harness) results() [][]string {
	h.out.Close()
	var out [][]string
	for r := range h.out.Out() {
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
	}
	return out
}

func TestNonWindowedBatchQuery(t *testing.T) {
	h := newHarness(t, "SELECT k, v FROM s WHERE v > 10.0", Reeval)
	h.pushS(t, [3]int64{1, 1, 5}, [3]int64{2, 2, 20})
	h.pushS(t, [3]int64{3, 3, 30})
	res := h.results()
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
	if len(res[0]) != 1 || len(res[1]) != 1 {
		t.Errorf("rows = %v", res)
	}
}

func TestWindowedReeval(t *testing.T) {
	h := newHarness(t, "SELECT sum(v) AS s FROM s [SIZE 4 SLIDE 2]", Reeval)
	h.pushS(t, [3]int64{1, 1, 1}, [3]int64{2, 1, 2}, [3]int64{3, 1, 3})
	// Only 1 complete bw (2 tuples); window not full yet.
	h.pushS(t, [3]int64{4, 1, 4}) // second bw complete → window [1,2,3,4]
	h.pushS(t, [3]int64{5, 1, 5}, [3]int64{6, 1, 6})
	// third bw → window [3,4,5,6]
	res := h.results()
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2: %v", len(res), res)
	}
	if res[0][0] != "[10]" || res[1][0] != "[18]" {
		t.Errorf("sums = %v", res)
	}
}

func TestWindowedIncrementalAggregate(t *testing.T) {
	h := newHarness(t,
		"SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE 4 SLIDE 2] GROUP BY k", Incremental)
	h.pushS(t, [3]int64{1, 1, 1}, [3]int64{2, 2, 2})
	h.pushS(t, [3]int64{3, 1, 3}, [3]int64{4, 2, 4})
	h.pushS(t, [3]int64{5, 1, 5}, [3]int64{6, 1, 6})
	res := h.results()
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2: %v", len(res), res)
	}
	want0 := []string{"[1 4 2]", "[2 6 2]"}
	sort.Strings(want0)
	if fmt.Sprint(res[0]) != fmt.Sprint(want0) {
		t.Errorf("window 1 = %v, want %v", res[0], want0)
	}
	// Window 2 = tuples 3..6: k=1 → 3+5+6=14 (n=3), k=2 → 4 (n=1).
	want1 := []string{"[1 14 3]", "[2 4 1]"}
	sort.Strings(want1)
	if fmt.Sprint(res[1]) != fmt.Sprint(want1) {
		t.Errorf("window 2 = %v, want %v", res[1], want1)
	}
}

func TestIncrementalNoAggregate(t *testing.T) {
	h := newHarness(t, "SELECT k FROM s [SIZE 2 SLIDE 1] WHERE v >= 2.0", Incremental)
	h.pushS(t, [3]int64{1, 1, 1})
	h.pushS(t, [3]int64{2, 2, 2}) // window [t1,t2] → k=2
	h.pushS(t, [3]int64{3, 3, 3}) // window [t2,t3] → k=2,3
	res := h.results()
	if len(res) != 2 {
		t.Fatalf("results = %d: %v", len(res), res)
	}
	if len(res[0]) != 1 || len(res[1]) != 2 {
		t.Errorf("res = %v", res)
	}
}

func TestIncrementalStreamTableJoin(t *testing.T) {
	h := newHarness(t, `
		SELECT d.name, count(*) AS n FROM s [SIZE 2 SLIDE 1]
		JOIN dim d ON s.k = d.k GROUP BY d.name`, Incremental)
	h.pushS(t, [3]int64{1, 1, 1})
	h.pushS(t, [3]int64{2, 1, 2})
	res := h.results()
	if len(res) != 1 {
		t.Fatalf("results = %d: %v", len(res), res)
	}
	if res[0][0] != "[k1 2]" {
		t.Errorf("res = %v", res)
	}
}

func TestIncrementalStreamStreamJoin(t *testing.T) {
	h := newHarness(t, `
		SELECT s.v, r.w FROM s [SIZE 2 SLIDE 1], r [SIZE 2 SLIDE 1]
		WHERE s.k = r.k`, Incremental)
	h.pushS(t, [3]int64{1, 1, 10}, [3]int64{2, 2, 20})
	h.pushR(t, [3]int64{1, 1, 100}, [3]int64{2, 9, 900})
	// Both rings full now: result = join of 2x2 windows → (k1: 10,100).
	res := h.results()
	if len(res) != 1 {
		t.Fatalf("results = %d: %v", len(res), res)
	}
	if len(res[0]) != 1 || res[0][0] != "[10 100]" {
		t.Errorf("join res = %v", res)
	}
	st := h.fac.Stats()
	if st.CachedPairs == 0 {
		t.Error("no cached join pairs")
	}
}

func TestFactoryStats(t *testing.T) {
	h := newHarness(t, "SELECT sum(v) AS s FROM s [SIZE 2 SLIDE 1]", Incremental)
	h.pushS(t, [3]int64{1, 1, 1}, [3]int64{2, 1, 2}, [3]int64{3, 1, 3})
	st := h.fac.Stats()
	if st.TuplesIn != 3 || st.Evals != 2 || st.Firings == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Name != "q" || st.Mode != "incremental" {
		t.Errorf("identity = %+v", st)
	}
	if st.RowsOut != 2 {
		t.Errorf("RowsOut = %d", st.RowsOut)
	}
	if st.LastLatency <= 0 || st.MaxLatency < st.LastLatency {
		t.Errorf("latency stats = %+v", st)
	}
}

func TestFactoryReadyAndBaskets(t *testing.T) {
	h := newHarness(t, "SELECT k FROM s", Reeval)
	if h.ready() {
		t.Error("ready with empty basket")
	}
	s, _ := h.cat.Stream("s")
	c := bat.NewChunk(s.Schema())
	_ = c.AppendRow(bat.TimeValue(1), bat.IntValue(1), bat.FloatValue(1))
	_ = h.sb.Append(c, 1)
	if !h.ready() {
		t.Error("not ready with pending tuples")
	}
	if got := h.fac.Baskets(); len(got) != 1 || got[0] != "s" {
		t.Errorf("baskets = %v", got)
	}
	h.step()
	if h.ready() {
		t.Error("ready after drain")
	}
}

func TestFactoryStopUnregisters(t *testing.T) {
	h := newHarness(t, "SELECT k FROM s", Reeval)
	if h.sb.Consumers() != 1 {
		t.Fatalf("consumers = %d", h.sb.Consumers())
	}
	h.g.Leave(h.m)
	h.g.Close()
	h.fac.Stop()
	if h.sb.Consumers() != 0 {
		t.Errorf("consumers after stop = %d", h.sb.Consumers())
	}
}

func TestFactoryPlanStrings(t *testing.T) {
	h := newHarness(t, "SELECT k, sum(v) AS s FROM s [SIZE 4 SLIDE 2] GROUP BY k", Incremental)
	if h.fac.PlanString() == "" || h.fac.ContinuousPlanString() == "" {
		t.Error("empty plan strings")
	}
	h2 := newHarness(t, "SELECT k FROM s", Reeval)
	if h2.fac.ContinuousPlanString() == "" {
		t.Error("empty reeval continuous plan")
	}
}

func TestFactoryErrors(t *testing.T) {
	h := newHarness(t, "SELECT k FROM s", Reeval)
	// Incremental without decomposition.
	_, err := New(Config{Name: "x", Full: h.fac.cfg.Full, Mode: Incremental, Emit: emitter.Null{}})
	if err == nil {
		t.Error("incremental without decomp should fail")
	}
}

func TestTimeWindowFactoryWithAdvance(t *testing.T) {
	h := newHarness(t, `
		SELECT count(*) AS n FROM s [RANGE 2 SECONDS SLIDE 1 SECOND ON ts]`, Incremental)
	sec := int64(1_000_000)
	h.pushS(t, [3]int64{sec / 2, 1, 1}, [3]int64{sec + sec/2, 1, 1})
	// Buckets: 0 (1 tuple, closed by arrival of bucket-1 tuple), 1 open.
	h.sb.AdvanceTime(3 * sec)
	if got := h.step(); got != 2 {
		t.Fatalf("Advance emitted %d results, want 2", got)
	}
	res := h.results()
	// First full window after buckets {0,1}: count=2; after {1,2}: count=1.
	if len(res) != 2 || res[0][0] != "[2]" || res[1][0] != "[1]" {
		t.Errorf("time window results = %v", res)
	}
}

// The paper's central equivalence: incremental mode must produce exactly
// the results of full re-evaluation. Random streams, random filters,
// grouped aggregation over sliding windows of random geometry.
func TestQuickIncrementalEquivalentToReeval(t *testing.T) {
	queries := []string{
		"SELECT k, sum(v) AS s, min(v) AS lo, max(v) AS hi, count(*) AS n FROM s [SIZE %d SLIDE %d] GROUP BY k",
		"SELECT k, avg(v) AS m FROM s [SIZE %d SLIDE %d] WHERE v >= 8.0 GROUP BY k",
		"SELECT k, v FROM s [SIZE %d SLIDE %d] WHERE v < 10.0",
		"SELECT count(*) AS n FROM s [SIZE %d SLIDE %d] GROUP BY k HAVING count(*) > 1",
		"SELECT d.name, max(v) AS hi FROM s [SIZE %d SLIDE %d] JOIN dim d ON s.k = d.k GROUP BY d.name",
	}
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 40; iter++ {
		q := queries[iter%len(queries)]
		slide := 1 + rng.Intn(4)
		parts := 1 + rng.Intn(4)
		size := slide * parts
		src := fmt.Sprintf(q, size, slide)

		n := 5 + rng.Intn(60)
		rows := make([][3]int64, n)
		for i := range rows {
			rows[i] = [3]int64{int64(i + 1), int64(rng.Intn(4)), int64(rng.Intn(16))}
		}

		hr := newHarness(t, src, Reeval)
		hi := newHarness(t, src, Incremental)
		// Feed in random batch sizes to exercise slicing.
		for pos := 0; pos < n; {
			take := 1 + rng.Intn(5)
			if pos+take > n {
				take = n - pos
			}
			hr.pushS(t, rows[pos:pos+take]...)
			hi.pushS(t, rows[pos:pos+take]...)
			pos += take
		}
		rres, ires := hr.results(), hi.results()
		if len(rres) != len(ires) {
			t.Fatalf("iter %d %q: reeval %d results, incremental %d",
				iter, src, len(rres), len(ires))
		}
		for i := range rres {
			if fmt.Sprint(rres[i]) != fmt.Sprint(ires[i]) {
				t.Fatalf("iter %d %q result %d:\nreeval      %v\nincremental %v",
					iter, src, i, rres[i], ires[i])
			}
		}
	}
}

// Same equivalence for stream-stream joins with lockstep windows.
func TestQuickJoinIncrementalEquivalentToReeval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 15; iter++ {
		slide := 1 + rng.Intn(3)
		parts := 1 + rng.Intn(3)
		size := slide * parts
		src := fmt.Sprintf(
			"SELECT s.v, r.w FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k",
			size, slide, size, slide)
		hr := newHarness(t, src, Reeval)
		hi := newHarness(t, src, Incremental)
		n := 4 + rng.Intn(30)
		for i := 0; i < n; i++ {
			row := [3]int64{int64(i + 1), int64(rng.Intn(3)), int64(rng.Intn(100))}
			if rng.Intn(2) == 0 {
				hr.pushS(t, row)
				hi.pushS(t, row)
			} else {
				hr.pushR(t, row)
				hi.pushR(t, row)
			}
		}
		rres, ires := hr.results(), hi.results()
		if len(rres) != len(ires) {
			t.Fatalf("iter %d: reeval %d results, incremental %d", iter, len(rres), len(ires))
		}
		for i := range rres {
			if fmt.Sprint(rres[i]) != fmt.Sprint(ires[i]) {
				t.Fatalf("iter %d result %d:\nreeval      %v\nincremental %v",
					iter, i, rres[i], ires[i])
			}
		}
	}
}

// TestJoinOneSidedFeedStaysBounded: a join whose right stream never
// receives a row holds at most lead of the left stream's sealed windows;
// the rest join the (empty) right ring as it stands, so a live stream
// paired with an idle one runs in bounded memory.
func TestJoinOneSidedFeedStaysBounded(t *testing.T) {
	for _, src := range []string{
		`SELECT s.v, r.w FROM s [SIZE 2 SLIDE 1], r [SIZE 2 SLIDE 1] WHERE s.k = r.k`,
		`SELECT s.v, r.w FROM s [RANGE 2 SECONDS SLIDE 1 SECONDS ON ts], r [RANGE 2 SECONDS SLIDE 1 SECONDS ON ts] WHERE s.k = r.k`,
	} {
		h := newHarness(t, src, Incremental)
		lead := h.g.seq.ins[0].lead
		const sec = int64(1_000_000)
		for i := int64(0); i < 500; i++ {
			h.pushS(t, [3]int64{i * sec, i % 3, i})
			if n := len(h.g.seq.ins[0].pending); n > lead {
				t.Fatalf("%s: %d left windows queued after %d rows, bound %d", src, n, i+1, lead)
			}
		}
		if n := len(h.g.seq.ins[0].pending); n != lead {
			t.Errorf("%s: %d left windows queued, want the bound %d", src, n, lead)
		}
		if !h.fac.inputs[0].ring.Full() {
			t.Errorf("%s: left ring never filled from released windows", src)
		}
		if res := h.results(); len(res) != 0 {
			t.Errorf("%s: %d results with an empty right stream", src, len(res))
		}
	}
}
