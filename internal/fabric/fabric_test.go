package fabric_test

// Fabric acceptance tests. The load-bearing invariant is
// TestFabricEquivalence: a 16-query grouped workload executed by a
// coordinator plus two worker processes over loopback produces
// byte-identical results to the same workload on a single-process engine —
// including a run where a worker's connection is repeatedly cut mid-frame
// and resumed from the last acked epoch.

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"datacell"
	"datacell/internal/bat"
	"datacell/internal/fabric"
	"datacell/internal/fabric/fabrictest"
	"datacell/internal/fabric/snapshot"
)

// testChunks mirrors the engine tests' shardTestChunks: n rows in batches,
// ts monotone, k cycling over nkeys (k INT routes deterministically across
// engines — hash routing of integer keys is seed-free).
func testChunks(n, batch, nkeys int) []*bat.Chunk {
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

// memberSQL is the i-th member of the 16-query workload: varied filters,
// aggregates and window extents over one shared slide granularity.
func memberSQL(i, size, slide int) string {
	sz := size
	if i%3 == 1 && size > slide {
		sz = ((size / 2) / slide) * slide
		if sz < slide {
			sz = slide
		}
	}
	switch i % 4 {
	case 0:
		return fmt.Sprintf("SELECT k, sum(v) AS s, count(*) AS n FROM s [SIZE %d SLIDE %d] GROUP BY k", sz, slide)
	case 1:
		return fmt.Sprintf("SELECT k, v FROM s [SIZE %d SLIDE %d] WHERE v >= %d.0", sz, slide, (i%5)*20)
	case 2:
		return fmt.Sprintf("SELECT k, min(v) AS lo, max(v) AS hi FROM s [SIZE %d SLIDE %d] GROUP BY k", sz, slide)
	default:
		return fmt.Sprintf("SELECT count(*) AS n FROM s [SIZE %d SLIDE %d] GROUP BY k HAVING count(*) > %d", sz, slide, i%3)
	}
}

func memberMode(i int) datacell.Mode {
	if i%2 == 0 {
		return datacell.ModeIncremental
	}
	return datacell.ModeReeval
}

func collectRendered(q *datacell.Query) []string {
	var out []string
	for {
		select {
		case r := <-q.Out():
			out = append(out, r.Chunk.String())
		default:
			return out
		}
	}
}

// runLocal executes the workload on a plain single-process engine.
func runLocal(t *testing.T, ddl string, members int, size, slide int, chunks []*bat.Chunk) [][]string {
	t.Helper()
	eng := datacell.New(&datacell.Options{Workers: 1})
	defer eng.Close()
	if _, err := eng.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	qs := make([]*datacell.Query, members)
	for i := range qs {
		q, err := eng.Register(fmt.Sprintf("q%02d", i), memberSQL(i, size, slide),
			&datacell.RegisterOptions{Mode: memberMode(i)})
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	for _, c := range chunks {
		if err := eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	out := make([][]string, members)
	for i, q := range qs {
		out[i] = collectRendered(q)
	}
	return out
}

// fabricCluster is a coordinator plus in-process workers over loopback.
type fabricCluster struct {
	eng     *datacell.Engine
	coord   *fabric.Coordinator
	workers []*fabric.Worker
	proxies []interface{ Close() }
}

func (fc *fabricCluster) close() {
	fc.coord.Close()
	for _, w := range fc.workers {
		w.Close()
	}
	for _, p := range fc.proxies {
		p.Close()
	}
	fc.eng.Close()
}

// startFabric boots a coordinator + nWorkers over loopback and exports
// stream "s". cutsFor, when non-nil, routes worker i's connections through
// a byte-cutting proxy (cutsFor(i) lists per-connection byte limits).
func startFabric(t *testing.T, ddl string, nWorkers int, cutsFor func(i int) []int) *fabricCluster {
	t.Helper()
	eng := datacell.New(&datacell.Options{Workers: 1})
	coord, err := fabric.NewCoordinator(eng, fabric.Options{Workers: nWorkers})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExecScript(ddl); err != nil {
		t.Fatal(err)
	}
	if err := coord.ExportStream("s"); err != nil {
		t.Fatal(err)
	}
	fc := &fabricCluster{eng: eng, coord: coord}
	for i := 0; i < nWorkers; i++ {
		addr := coord.Addr()
		if cutsFor != nil {
			if cuts := cutsFor(i); cuts != nil {
				p, err := fabrictest.NewCutProxy(coord.Addr(), cuts)
				if err != nil {
					t.Fatal(err)
				}
				fc.proxies = append(fc.proxies, p)
				addr = p.Addr()
			}
		}
		fc.workers = append(fc.workers, fabric.NewWorker(fabric.WorkerOptions{
			Coordinator: addr,
			Index:       i,
		}))
	}
	return fc
}

// runFabric executes the workload on a coordinator + nWorkers cluster.
func runFabric(t *testing.T, ddl string, nWorkers, members, size, slide int, chunks []*bat.Chunk, cutsFor func(i int) []int) [][]string {
	t.Helper()
	fc := startFabric(t, ddl, nWorkers, cutsFor)
	defer fc.close()
	qs := make([]*datacell.Query, members)
	for i := range qs {
		q, err := fc.eng.Register(fmt.Sprintf("q%02d", i), memberSQL(i, size, slide),
			&datacell.RegisterOptions{Mode: memberMode(i)})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(q.GroupKey(), "fabric[") {
			t.Fatalf("member %d: key=%q, want fabric-tagged group", i, q.GroupKey())
		}
		qs[i] = q
	}
	for _, c := range chunks {
		if err := fc.eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	fc.coord.Drain()
	out := make([][]string, members)
	for i, q := range qs {
		out[i] = collectRendered(q)
	}
	return out
}

func assertSameResults(t *testing.T, label string, got, want [][]string) {
	t.Helper()
	for i := range want {
		if len(got[i]) == 0 {
			t.Fatalf("%s: member %d emitted nothing (local emitted %d)", label, i, len(want[i]))
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: member %d evals=%d, local=%d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: member %d eval %d diverges:\nfabric:\n%s\nlocal:\n%s",
					label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// mixedMember is the i-th member of the any-query workload: ten
// single-stream members (the classic matrix), four join members over the
// exported pair — two sharing a fingerprint and a HAVING tail, one bare,
// one re-evaluation — plus an isolated scan and an isolated join.
func mixedMember(i, size, slide int) (string, *datacell.RegisterOptions) {
	grouped := fmt.Sprintf(
		"SELECT s.k, count(*) AS n FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k GROUP BY s.k HAVING count(*) > 0",
		size, slide, size, slide)
	bare := fmt.Sprintf(
		"SELECT s.v, r.v FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k",
		size, slide, size, slide)
	switch i {
	case 10, 11:
		return grouped, &datacell.RegisterOptions{Mode: datacell.ModeIncremental}
	case 12:
		return bare, &datacell.RegisterOptions{Mode: datacell.ModeIncremental}
	case 13:
		return bare, &datacell.RegisterOptions{Mode: datacell.ModeReeval}
	case 14:
		return memberSQL(2, size, slide), &datacell.RegisterOptions{Mode: datacell.ModeIncremental, Isolated: true}
	case 15:
		return bare, &datacell.RegisterOptions{Mode: datacell.ModeIncremental, Isolated: true}
	default:
		return memberSQL(i, size, slide), &datacell.RegisterOptions{Mode: memberMode(i)}
	}
}

// feedMixed interleaves the two streams' chunks and drains once at the
// end: windows seal on each stream's settled prefix and a join pairs them
// by epoch, so the members' pairing and emission sequence are a function
// of the data alone, and the single-process and fabric runs compare
// byte-for-byte.
func feedMixed(t *testing.T, eng *datacell.Engine, drain func(), sChunks, rChunks []*bat.Chunk) {
	t.Helper()
	for i := 0; i < max(len(sChunks), len(rChunks)); i++ {
		if i < len(sChunks) {
			if err := eng.Append("s", sChunks[i]); err != nil {
				t.Fatal(err)
			}
		}
		if i < len(rChunks) {
			if err := eng.Append("r", rChunks[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain()
}

// runMixedLocal executes the mixed workload on a single-process engine.
// The ddl script must create streams s and r.
func runMixedLocal(t *testing.T, ddl string, members, size, slide int, sChunks, rChunks []*bat.Chunk) [][]string {
	t.Helper()
	eng := datacell.New(&datacell.Options{Workers: 1})
	defer eng.Close()
	if _, err := eng.ExecScript(ddl); err != nil {
		t.Fatal(err)
	}
	qs := make([]*datacell.Query, members)
	for i := range qs {
		sql, opts := mixedMember(i, size, slide)
		q, err := eng.Register(fmt.Sprintf("q%02d", i), sql, opts)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		qs[i] = q
	}
	feedMixed(t, eng, eng.Drain, sChunks, rChunks)
	out := make([][]string, members)
	for i, q := range qs {
		out[i] = collectRendered(q)
	}
	return out
}

// runMixedFabric executes the mixed workload on a coordinator + nWorkers
// cluster with both s and r exported to the fabric.
func runMixedFabric(t *testing.T, ddl string, nWorkers, members, size, slide int, sChunks, rChunks []*bat.Chunk, cutsFor func(i int) []int) [][]string {
	t.Helper()
	fc := startFabric(t, ddl, nWorkers, cutsFor)
	defer fc.close()
	if err := fc.coord.ExportStream("r"); err != nil {
		t.Fatal(err)
	}
	qs := make([]*datacell.Query, members)
	for i := range qs {
		sql, opts := mixedMember(i, size, slide)
		q, err := fc.eng.Register(fmt.Sprintf("q%02d", i), sql, opts)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if opts.Isolated != strings.Contains(q.GroupKey(), "!iso#") {
			t.Fatalf("member %d: isolated=%v but key=%q", i, opts.Isolated, q.GroupKey())
		}
		qs[i] = q
	}
	feedMixed(t, fc.eng, fc.coord.Drain, sChunks, rChunks)
	out := make([][]string, members)
	for i, q := range qs {
		out[i] = collectRendered(q)
	}
	return out
}

// TestFabricEquivalence is the acceptance invariant: a 16-query grouped
// workload — single-stream members, a shared join group, a re-evaluation
// join, and isolated scan and join members — on coordinator + 2 workers
// over loopback produces byte-identical results to a single-process run.
// The matrix covers tumbling and sliding windows, hash and round-robin
// routing, and a run whose worker connections are repeatedly cut mid-frame
// and resumed.
func TestFabricEquivalence(t *testing.T) {
	sChunks := testChunks(400, 17, 5)
	rChunks := testChunks(400, 13, 5)
	const members = 16
	ddls := []string{
		"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k;\n" +
			"CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k",
		"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4;\n" +
			"CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT) SHARD 2",
	}
	windows := []struct{ size, slide int }{
		{64, 16}, // sliding
		{32, 32}, // tumbling
	}
	for _, ddl := range ddls {
		for _, w := range windows {
			label := fmt.Sprintf("ddl=%q size=%d slide=%d", ddl, w.size, w.slide)
			local := runMixedLocal(t, ddl, members, w.size, w.slide, sChunks, rChunks)
			fab := runMixedFabric(t, ddl, 2, members, w.size, w.slide, sChunks, rChunks, nil)
			assertSameResults(t, label, fab, local)
		}
	}

	// Reconnect run: worker 1's link is cut mid-frame on its first three
	// connections; the session resume must deliver the exact same windows.
	w := windows[0]
	local := runMixedLocal(t, ddls[0], members, w.size, w.slide, sChunks, rChunks)
	cut := runMixedFabric(t, ddls[0], 2, members, w.size, w.slide, sChunks, rChunks, func(i int) []int {
		if i == 1 {
			return []int{2000, 900, 5000}
		}
		return nil
	})
	assertSameResults(t, "reconnect", cut, local)
}

// TestFabricTimeWindows drives a time-windowed grouped workload through
// the fabric, forcing idle buckets shut with AdvanceTime, and pins
// equivalence with a single-process run.
func TestFabricTimeWindows(t *testing.T) {
	const sec = int64(1_000_000)
	sql := "SELECT k, count(*) AS n FROM s [RANGE 2 SECONDS SLIDE 1 SECOND ON ts] GROUP BY k"
	rows := [][]any{}
	for i, ts := range []int64{100, 200, 300, sec + 100, sec + 200, 2*sec + 50, 3*sec + 100} {
		rows = append(rows, []any{ts, int64(i % 3), 1.0})
	}
	feed := func(eng *datacell.Engine, drain func()) {
		for _, r := range rows {
			if err := eng.Append("s", r); err != nil {
				t.Fatal(err)
			}
		}
		drain()
		eng.AdvanceTime(6 * sec)
		drain()
	}

	engL := datacell.New(&datacell.Options{Workers: 1})
	if _, err := engL.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"); err != nil {
		t.Fatal(err)
	}
	qL, err := engL.Register("q", sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed(engL, engL.Drain)
	want := collectRendered(qL)
	engL.Close()
	if len(want) == 0 {
		t.Fatal("local time-window run produced nothing")
	}

	fc := startFabric(t, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k", 2, nil)
	defer fc.close()
	qF, err := fc.eng.Register("q", sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed(fc.eng, fc.coord.Drain)
	got := collectRendered(qF)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("time windows diverge:\nfabric %v\nlocal  %v", got, want)
	}
}

// TestFabricTimeWindowsSettledPrefix feeds a SHARD 4 stream without
// draining: each round, two concurrent appenders add rows inside one
// bucket, then one chunk straddles the edge into the next bucket. The
// workers seal on the coordinator container's settled event time,
// shipped after each settle, and must emit what a single-process run
// that drains after every round emits.
func TestFabricTimeWindowsSettledPrefix(t *testing.T) {
	const ddl = "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"
	sql := "SELECT k, count(*) AS n, sum(v) AS s FROM s [RANGE 2 SECONDS SLIDE 1 SECOND ON ts] GROUP BY k"
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	rng := rand.New(rand.NewSource(5))
	chunk := func(from, span int64) *bat.Chunk {
		n := 8 + rng.Intn(24)
		ts, ks, vs := make(bat.Times, n), make(bat.Ints, n), make(bat.Floats, n)
		for i := range ts {
			ts[i] = from + int64(i)*span/int64(n)
			ks[i] = int64(rng.Intn(8))
			vs[i] = float64(rng.Intn(50))
		}
		return &bat.Chunk{Schema: sch, Cols: []bat.Vector{ts, ks, vs}}
	}
	// Round r: two chunks in [r, r+0.5) s, appended concurrently, then one
	// spanning [r+0.5, r+1.5) s. No row is older than an earlier row's
	// bucket, whichever appender wins.
	const rounds = 60
	var log [rounds][3]*bat.Chunk
	for r := range log {
		for a := 0; a < 2; a++ {
			log[r][a] = chunk(int64(r)*1_000_000, 500_000)
		}
		log[r][2] = chunk(int64(r)*1_000_000+500_000, 1_000_000)
	}
	feed := func(eng *datacell.Engine, drain func(), each bool) {
		for r := range log {
			var wg sync.WaitGroup
			for _, c := range log[r][:2] {
				wg.Add(1)
				go func(c *bat.Chunk) {
					defer wg.Done()
					if err := eng.Append("s", c); err != nil {
						t.Error(err)
					}
				}(c)
			}
			wg.Wait()
			if err := eng.Append("s", log[r][2]); err != nil {
				t.Fatal(err)
			}
			if each {
				drain()
			}
		}
		drain()
		eng.AdvanceTime((rounds + 3) * 1_000_000)
		drain()
	}
	// Row order inside a window follows how the appenders interleaved,
	// so each result is compared as its sorted rows.
	sorted := func(res []string) string {
		for i, r := range res {
			rows := strings.Split(r, "\n")
			sort.Strings(rows)
			res[i] = strings.Join(rows, ";")
		}
		return strings.Join(res, "|")
	}

	engL := datacell.New(&datacell.Options{Workers: 1})
	defer engL.Close()
	if _, err := engL.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	qL, err := engL.Register("q", sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed(engL, engL.Drain, true)
	want := sorted(collectRendered(qL))

	for run := 0; run < 3; run++ {
		fc := startFabric(t, ddl, 2, nil)
		qF, err := fc.eng.Register("q", sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		feed(fc.eng, fc.coord.Drain, false)
		got := sorted(collectRendered(qF))
		fc.close()
		if got != want {
			t.Fatalf("run %d: time windows diverge:\nfabric %v\nlocal  %v", run, got, want)
		}
	}
}

// TestFabricRegistrationRules pins the fabric's consumption contract:
// exported streams serve any group-routable query — shared or isolated,
// scan or join — and refuse only shapes no group can host (non-windowed
// scans); export is refused once local consumers exist.
func TestFabricRegistrationRules(t *testing.T) {
	fc := startFabric(t, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k", 2, nil)
	defer fc.close()
	eng := fc.eng

	iso, err := eng.Register("iso", "SELECT count(*) AS n FROM s [SIZE 8 SLIDE 8]",
		&datacell.RegisterOptions{Isolated: true})
	if err != nil {
		t.Fatalf("isolated query over an exported stream: %v", err)
	}
	if !strings.Contains(iso.GroupKey(), "!iso#") {
		t.Fatalf("isolated query must route through a private group, key=%q", iso.GroupKey())
	}
	if _, err := eng.Exec("CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if err := fc.coord.ExportStream("r"); err != nil {
		t.Fatal(err)
	}
	j, err := eng.Register("j",
		"SELECT s.v, r.v FROM s [SIZE 8 SLIDE 8], r [SIZE 8 SLIDE 8] WHERE s.k = r.k", nil)
	if err != nil {
		t.Fatalf("stream join over exported streams: %v", err)
	}
	if k := j.GroupKey(); !strings.Contains(k, "⋈") || !strings.Contains(k, "fabric[") {
		t.Fatalf("join over exported streams did not route through a fabric-fed join group, key=%q", k)
	}
	q, err := eng.Register("ok", "SELECT count(*) AS n FROM s [SIZE 8 SLIDE 8]", nil)
	if err != nil {
		t.Fatal(err)
	}
	if k := q.GroupKey(); !strings.Contains(k, "fabric[") || strings.Contains(k, "!iso#") {
		t.Fatalf("shared query over an exported stream did not join the shared fabric-fed group, key=%q", k)
	}
	// Non-windowed scans need local basket cursors, which an exported
	// stream cannot feed — the one shape the fabric still refuses.
	if _, err := eng.Register("raw", "SELECT v FROM s", nil); err == nil {
		t.Fatal("non-windowed scan over an exported stream registered")
	}
	if err := fc.coord.ExportStream("r"); err == nil {
		t.Fatal("double export accepted")
	}
	// \fabric introspection carries the layout, including the join's
	// per-side slicing specs.
	desc := eng.FabricStatus()
	for _, want := range []string{"workers=2", "stream s", "ranges=[w0:0-2 w1:2-4]", "spec", "#L", "#R"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("FabricStatus missing %q:\n%s", want, desc)
		}
	}
}

// TestFabricGroupTeardown: dropping the last member retires the spec on
// the workers and a re-registered group starts a fresh spec.
func TestFabricGroupTeardown(t *testing.T) {
	fc := startFabric(t, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 2 KEY k", 2, nil)
	defer fc.close()
	eng := fc.eng
	for cycle := 0; cycle < 3; cycle++ {
		q, err := eng.Register("q", "SELECT count(*) AS n FROM s [SIZE 4 SLIDE 4]", nil)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		for i := 0; i < 8; i++ {
			if err := eng.Append("s", []any{int64(cycle*100 + i), int64(i), 1.0}); err != nil {
				t.Fatal(err)
			}
		}
		fc.coord.Drain()
		got := collectRendered(q)
		if len(got) != 2 {
			t.Fatalf("cycle %d: evals=%d, want 2", cycle, len(got))
		}
		q.Stop()
		if g := eng.Groups(); len(g) != 0 {
			t.Fatalf("cycle %d: groups leaked: %+v", cycle, g)
		}
	}
}

// TestFabricLateWorkers is the regression test for the restart-detection
// heuristic: queries registered and data appended BEFORE any worker ever
// dials must be buffered and replayed in full when the workers finally
// connect — a first connect with history in the outbox is not a restart,
// and results stay byte-identical to the local run. (The broken heuristic
// reset the session on the late first Hello, silently dropping the
// buffered appends and wedging the drain barrier.)
func TestFabricLateWorkers(t *testing.T) {
	const members = 4
	const size, slide = 20, 10
	chunks := testChunks(300, 20, 4)
	ddl := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"
	local := runLocal(t, ddl, members, size, slide, chunks)

	eng := datacell.New(&datacell.Options{Workers: 1})
	coord, err := fabric.NewCoordinator(eng, fabric.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fc := &fabricCluster{eng: eng, coord: coord}
	defer fc.close()
	if _, err := eng.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	if err := coord.ExportStream("s"); err != nil {
		t.Fatal(err)
	}
	qs := make([]*datacell.Query, members)
	for i := range qs {
		q, err := eng.Register(fmt.Sprintf("q%02d", i), memberSQL(i, size, slide),
			&datacell.RegisterOptions{Mode: memberMode(i)})
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	// Everything flows before a single worker exists.
	for _, c := range chunks {
		if err := eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		fc.workers = append(fc.workers, fabric.NewWorker(fabric.WorkerOptions{
			Coordinator: coord.Addr(), Index: i,
		}))
	}
	fc.coord.Drain()
	got := make([][]string, members)
	for i, q := range qs {
		got[i] = collectRendered(q)
	}
	assertSameResults(t, "late-workers", got, local)
}

// TestFabricWorkerRestart pins the node-loss recovery contract: a worker
// that dies and comes back empty (fresh session cursors, no snapshot)
// replays the coordinator's retained frame history and regenerates its
// state exactly — EVERY window, including those spanning the outage,
// stays byte-identical to the local run. (Before the replay log this test
// pinned a weaker, lossy contract: windows open across the kill sealed
// partial. That degradation no longer exists.)
func TestFabricWorkerRestart(t *testing.T) {
	const members = 4
	const size, slide = 20, 10
	chunks := testChunks(600, 20, 4)
	ddl := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"
	local := runLocal(t, ddl, members, size, slide, chunks)

	fc := startFabric(t, ddl, 2, nil)
	defer fc.close()
	qs := make([]*datacell.Query, members)
	for i := range qs {
		q, err := fc.eng.Register(fmt.Sprintf("q%02d", i), memberSQL(i, size, slide),
			&datacell.RegisterOptions{Mode: memberMode(i)})
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	third := len(chunks) / 3
	for _, c := range chunks[:third] {
		if err := fc.eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	fc.coord.Drain()
	// Kill worker 1's process (state gone), feed a round while it is dead
	// (no Drain: the barrier would block on the missing worker), restart
	// it empty, then feed the rest.
	fc.workers[1].Close()
	for _, c := range chunks[third : 2*third] {
		if err := fc.eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	fc.workers[1] = fabric.NewWorker(fabric.WorkerOptions{Coordinator: fc.coord.Addr(), Index: 1})
	for _, c := range chunks[2*third:] {
		if err := fc.eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	fc.coord.Drain()

	got := make([][]string, members)
	for i, q := range qs {
		got[i] = collectRendered(q)
	}
	assertSameResults(t, "worker-restart", got, local)
}

// TestFabricSnapshotRestart is the snapshot half of the recovery
// contract: a worker checkpointing to disk dies mid-stream and restarts
// from its snapshot, replaying only the delta past its durable cursor —
// results stay byte-identical, and the coordinator's replay-log retention
// gauge shows the log GC'd down to the snapshot cursor.
func TestFabricSnapshotRestart(t *testing.T) {
	const members = 8
	const size, slide = 20, 10
	chunks := testChunks(600, 20, 4)
	ddl := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"
	local := runLocal(t, ddl, members, size, slide, chunks)

	snapDir := t.TempDir()
	eng := datacell.New(&datacell.Options{Workers: 1})
	coord, err := fabric.NewCoordinator(eng, fabric.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fc := &fabricCluster{eng: eng, coord: coord}
	defer fc.close()
	if _, err := eng.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	if err := coord.ExportStream("s"); err != nil {
		t.Fatal(err)
	}
	workerOpts := func(i int) fabric.WorkerOptions {
		return fabric.WorkerOptions{
			Coordinator:   coord.Addr(),
			Index:         i,
			SnapshotDir:   snapDir,
			SnapshotEvery: time.Hour, // checkpoints forced explicitly below
		}
	}
	for i := 0; i < 2; i++ {
		fc.workers = append(fc.workers, fabric.NewWorker(workerOpts(i)))
	}
	qs := make([]*datacell.Query, members)
	for i := range qs {
		q, err := eng.Register(fmt.Sprintf("q%02d", i), memberSQL(i, size, slide),
			&datacell.RegisterOptions{Mode: memberMode(i)})
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	third := len(chunks) / 3
	for _, c := range chunks[:third] {
		if err := eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	coord.Drain()
	// Checkpoint worker 1 mid-stream (open epochs in flight), then kill it
	// WITHOUT the close-time checkpoint a graceful shutdown would take:
	// everything past the snapshot must come from replay, not from a
	// fresher snapshot.
	if err := fc.workers[1].Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fc.workers[1].Kill()
	for _, c := range chunks[third : 2*third] {
		if err := eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	fc.workers[1] = fabric.NewWorker(workerOpts(1))
	for _, c := range chunks[2*third:] {
		if err := eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	// Second cycle: checkpoint + kill + restart again, to prove the
	// snapshot→replay→snapshot loop is closed, then finish.
	coord.Drain()
	if err := fc.workers[1].Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fc.workers[1].Kill()
	fc.workers[1] = fabric.NewWorker(workerOpts(1))
	coord.Drain()

	got := make([][]string, members)
	for i, q := range qs {
		got[i] = collectRendered(q)
	}
	assertSameResults(t, "snapshot-restart", got, local)

	// Retention gauge: the restarted worker's Hello carried its snapshot
	// cursor, so the coordinator's replay log for it must be GC'd (a
	// nonzero snap_cursor) — a worker that never snapshots pins cursor 0.
	desc := eng.FabricStatus()
	if !strings.Contains(desc, "snap_cursor=") {
		t.Fatalf("FabricStatus missing retention gauge:\n%s", desc)
	}
	for _, line := range strings.Split(desc, "\n") {
		if strings.Contains(line, "worker 1 ") && strings.Contains(line, "snap_cursor=0 ") {
			t.Fatalf("worker 1 snapshot cursor never advanced at the coordinator:\n%s", desc)
		}
	}
}

// TestCheckpointMonotonic pins the checkpoint serialization contract:
// concurrent Checkpoint calls (the snapLoop tick racing Close's final
// checkpoint) must never let an older in-flight capture rename over a
// newer snapshot — the on-disk cursor only moves forward — and a
// checkpoint with nothing newly applied skips the write instead of
// rewriting the file. A backwards cursor would present a Hello below the
// coordinator's pruned retention floor and desync the worker forever.
func TestCheckpointMonotonic(t *testing.T) {
	chunks := testChunks(600, 20, 4)
	ddl := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"
	snapDir := t.TempDir()
	eng := datacell.New(&datacell.Options{Workers: 1})
	coord, err := fabric.NewCoordinator(eng, fabric.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fc := &fabricCluster{eng: eng, coord: coord}
	defer fc.close()
	if _, err := eng.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	if err := coord.ExportStream("s"); err != nil {
		t.Fatal(err)
	}
	w := fabric.NewWorker(fabric.WorkerOptions{
		Coordinator: coord.Addr(), Index: 0,
		SnapshotDir: snapDir, SnapshotEvery: time.Hour,
	})
	fc.workers = append(fc.workers, w)

	// Checkpoint storm while appends flow, with a sampler asserting the
	// durable cursor never regresses (Load races Save through the atomic
	// rename, so every observation is a consistent file).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := w.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := snapshot.Load(snapDir, 0)
			if err != nil {
				t.Errorf("torn or corrupt snapshot observed: %v", err)
				return
			}
			if snap == nil {
				continue
			}
			if snap.RxSeq < last {
				t.Errorf("on-disk snapshot cursor moved backwards: %d -> %d", last, snap.RxSeq)
				return
			}
			last = snap.RxSeq
		}
	}()
	for _, c := range chunks {
		if err := eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	coord.Drain()
	close(stop)
	wg.Wait()

	// Quiesced: land the final cursor, then verify an idle Checkpoint
	// (nothing applied since) leaves the file untouched.
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Load(snapDir, 0)
	if err != nil || snap == nil {
		t.Fatalf("no snapshot after checkpoint: %v", err)
	}
	if snap.RxSeq == 0 {
		t.Fatal("snapshot cursor never advanced")
	}
	before, err := os.Stat(snapshot.FileName(snapDir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(snapshot.FileName(snapDir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("idle Checkpoint rewrote the snapshot file")
	}
}

// TestFabricReassign pins elastic shard handoff: moving live shards
// between workers mid-stream — state shipped via snapshot encoding,
// appends queued through the move, watermarks rebroadcast — changes
// nothing about the output.
func TestFabricReassign(t *testing.T) {
	const members = 8
	const size, slide = 20, 10
	chunks := testChunks(600, 20, 4)
	ddl := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"
	local := runLocal(t, ddl, members, size, slide, chunks)

	fc := startFabric(t, ddl, 2, nil)
	defer fc.close()
	qs := make([]*datacell.Query, members)
	for i := range qs {
		q, err := fc.eng.Register(fmt.Sprintf("q%02d", i), memberSQL(i, size, slide),
			&datacell.RegisterOptions{Mode: memberMode(i)})
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	third := len(chunks) / 3
	for _, c := range chunks[:third] {
		if err := fc.eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	// Move shard 1 (owned by worker 0) to worker 1 with open epochs in
	// flight, feed, then move it back plus shard 3 the other way.
	if err := fc.coord.Reassign("s", 1, 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks[third : 2*third] {
		if err := fc.eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	if err := fc.coord.Reassign("s", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := fc.coord.Reassign("s", 3, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks[2*third:] {
		if err := fc.eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	fc.coord.Drain()

	got := make([][]string, members)
	for i, q := range qs {
		got[i] = collectRendered(q)
	}
	assertSameResults(t, "reassign", got, local)

	// The layout pane reflects the moves: shard 3 now belongs to w0.
	desc := fc.eng.FabricStatus()
	if !strings.Contains(desc, "w0:3-4") {
		t.Fatalf("FabricStatus does not show reassigned shard 3 on w0:\n%s", desc)
	}
	// Reassign validates its arguments.
	if err := fc.coord.Reassign("s", 99, 0); err == nil {
		t.Fatal("Reassign accepted a bogus shard")
	}
	if err := fc.coord.Reassign("s", 0, 99); err == nil {
		t.Fatal("Reassign accepted a bogus worker")
	}
	if err := fc.coord.Reassign("nope", 0, 0); err == nil {
		t.Fatal("Reassign accepted an unexported stream")
	}
}

// TestFabricFaultSchedules is the table-driven recovery property test:
// for a spread of seeded fault schedules — connections cut mid-frame,
// frames delayed, session frames duplicated, at scheduled frame ordinals —
// the fabric's output is byte-identical to the fault-free local run.
// The workload is the mixed matrix (single-stream, shared join, reeval
// join, isolated members), so the faults land on join-fragment and
// join-spec frames mid-epoch as well as plain scan traffic. Worker 1's
// link runs through a fault proxy with a schedule for EACH direction:
// worker→coordinator fragments and acks, and coordinator→worker batches,
// barriers and acks, so cuts land mid-batched-frame both ways and the
// pipelined-ack replay path is exercised too. Failures reproduce from
// the seed.
func TestFabricFaultSchedules(t *testing.T) {
	const members = 16
	const size, slide = 20, 10
	sChunks := testChunks(300, 23, 4)
	rChunks := testChunks(300, 19, 4)
	ddl := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k;\n" +
		"CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"
	local := runMixedLocal(t, ddl, members, size, slide, sChunks, rChunks)

	for _, seed := range []int64{1, 7, 42, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ctlSchedule := fabrictest.RandomSchedule(rng, 3, 24)
			dataSchedule := fabrictest.RandomSchedule(rng, 3, 16)
			eng := datacell.New(&datacell.Options{Workers: 1})
			coord, err := fabric.NewCoordinator(eng, fabric.Options{
				Workers: 2,
				// Small batches: many flush boundaries for faults to land on.
				FlushBytes: 4 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			fc := &fabricCluster{eng: eng, coord: coord}
			defer fc.close()
			if _, err := eng.ExecScript(ddl); err != nil {
				t.Fatal(err)
			}
			if err := coord.ExportStream("s"); err != nil {
				t.Fatal(err)
			}
			if err := coord.ExportStream("r"); err != nil {
				t.Fatal(err)
			}
			proxy, err := fabrictest.NewFaultProxy(coord.Addr(), ctlSchedule, dataSchedule)
			if err != nil {
				t.Fatal(err)
			}
			proxy.DupOK = fabric.DupSafe
			fc.proxies = append(fc.proxies, proxy)
			// Worker 1 suffers the schedules; worker 0 connects clean.
			fc.workers = append(fc.workers,
				fabric.NewWorker(fabric.WorkerOptions{Coordinator: coord.Addr(), Index: 0}),
				fabric.NewWorker(fabric.WorkerOptions{Coordinator: proxy.Addr(), Index: 1}))
			qs := make([]*datacell.Query, members)
			for i := range qs {
				sql, opts := mixedMember(i, size, slide)
				q, err := eng.Register(fmt.Sprintf("q%02d", i), sql, opts)
				if err != nil {
					t.Fatal(err)
				}
				qs[i] = q
			}
			// Drain after every append: paced traffic spreads the session
			// frames over the whole run, so both directions' fault
			// schedules find frames to land on.
			paced := func(stream string, chunks []*bat.Chunk, i int) {
				if i < len(chunks) {
					if err := eng.Append(stream, chunks[i]); err != nil {
						t.Fatal(err)
					}
					coord.Drain()
				}
			}
			for i := 0; i < max(len(sChunks), len(rChunks)); i++ {
				paced("s", sChunks, i)
				paced("r", rChunks, i)
			}
			got := make([][]string, members)
			for i, q := range qs {
				got[i] = collectRendered(q)
			}
			assertSameResults(t, fmt.Sprintf("faults seed=%d ctl=%v data=%v", seed, ctlSchedule, dataSchedule), got, local)
			t.Logf("faults fired: worker→coordinator %d, coordinator→worker %d",
				proxy.Triggered(fabrictest.Up), proxy.Triggered(fabrictest.Down))
			if proxy.Triggered(fabrictest.Up) == 0 {
				t.Fatalf("worker→coordinator schedule %v never fired; the run proved nothing", ctlSchedule)
			}
			if proxy.Triggered(fabrictest.Down) == 0 {
				t.Fatalf("coordinator→worker schedule %v never fired; the run proved nothing", dataSchedule)
			}
		})
	}
}

// TestFabricReconnectResume drives traffic in rounds with the worker link
// cut mid-frame between rounds and pins: results identical to local, at
// least one cut actually happened, and the coordinator observed the
// reconnects.
func TestFabricReconnectResume(t *testing.T) {
	const members = 4
	const size, slide = 20, 10
	chunks := testChunks(600, 23, 4)
	ddl := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"
	local := runLocal(t, ddl, members, size, slide, chunks)

	fc := startFabric(t, ddl, 2, nil)
	defer fc.close()
	// Route worker 1 through a cutting proxy created after startFabric so
	// we keep a handle; replace the auto-started worker.
	fc.workers[1].Close()
	proxy, err := fabrictest.NewCutProxy(fc.coord.Addr(), []int{1500, 700, 3000, 1100})
	if err != nil {
		t.Fatal(err)
	}
	fc.proxies = append(fc.proxies, proxy)
	fc.workers[1] = fabric.NewWorker(fabric.WorkerOptions{Coordinator: proxy.Addr(), Index: 1})

	qs := make([]*datacell.Query, members)
	for i := range qs {
		q, err := fc.eng.Register(fmt.Sprintf("q%02d", i), memberSQL(i, size, slide),
			&datacell.RegisterOptions{Mode: memberMode(i)})
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	// Feed in rounds with a drain barrier between them: every barrier
	// forces the cut link to reconnect and catch up before more data flows.
	per := (len(chunks) + 3) / 4
	for start := 0; start < len(chunks); start += per {
		end := start + per
		if end > len(chunks) {
			end = len(chunks)
		}
		for _, c := range chunks[start:end] {
			if err := fc.eng.Append("s", c); err != nil {
				t.Fatal(err)
			}
		}
		fc.coord.Drain()
	}
	got := make([][]string, members)
	for i, q := range qs {
		got[i] = collectRendered(q)
	}
	assertSameResults(t, "reconnect-rounds", got, local)
	if proxy.CutsUsed() == 0 {
		t.Fatal("proxy never cut the connection; the test exercised nothing")
	}
	if !strings.Contains(fc.eng.FabricStatus(), "reconnects=") {
		t.Fatalf("FabricStatus missing reconnect counter:\n%s", fc.eng.FabricStatus())
	}
}
