package datacell

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"datacell/internal/metrics"
	"datacell/internal/receptor"
)

func TestTenantAdmissionControl(t *testing.T) {
	e, _ := newTestEngine(t)
	mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, v FLOAT)")
	e.SetTenantQuota("acme", TenantQuota{MaxQueries: 2})

	for i := 0; i < 2; i++ {
		mustExec(t, e, fmt.Sprintf(
			"REGISTER QUERY q%d TENANT acme AS SELECT avg(v) FROM s [SIZE 10 SLIDE 10]", i))
	}
	_, err := e.Exec("REGISTER QUERY q2 TENANT acme AS SELECT avg(v) FROM s [SIZE 10 SLIDE 10]")
	if err == nil {
		t.Fatal("third registration admitted past MaxQueries=2")
	}
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("want *QuotaError, got %T: %v", err, err)
	}
	if qe.Tenant != "acme" || qe.Resource != "queries" || qe.Limit != 2 || qe.Used != 2 {
		t.Errorf("QuotaError fields: %+v", qe)
	}

	// A different tenant (and the untenanted path) are unaffected.
	mustExec(t, e, "REGISTER QUERY other TENANT beta AS SELECT avg(v) FROM s [SIZE 10 SLIDE 10]")
	mustExec(t, e, "REGISTER QUERY free AS SELECT avg(v) FROM s [SIZE 10 SLIDE 10]")

	st := e.TenantStats()
	if len(st) != 2 || st[0].Name != "acme" || st[1].Name != "beta" {
		t.Fatalf("TenantStats: %+v", st)
	}
	if st[0].Queries != 2 || st[0].RejectedQueries != 1 {
		t.Errorf("acme stats: %+v", st[0])
	}
}

func TestTenantQuotaReleasedOnDrop(t *testing.T) {
	e, _ := newTestEngine(t)
	mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, v FLOAT)")
	e.SetTenantQuota("acme", TenantQuota{MaxQueries: 1})

	mustExec(t, e, "REGISTER QUERY q0 TENANT acme AS SELECT avg(v) FROM s [SIZE 10 SLIDE 10]")
	if _, err := e.Exec("REGISTER QUERY q1 TENANT acme AS SELECT avg(v) FROM s [SIZE 10 SLIDE 10]"); err == nil {
		t.Fatal("second registration admitted past MaxQueries=1")
	}
	mustExec(t, e, "DROP QUERY q0")
	// The drop released the slot: the same tenant registers again.
	r := mustExec(t, e, "REGISTER QUERY q1 TENANT acme AS SELECT avg(v) FROM s [SIZE 10 SLIDE 10]")
	if r.Query.Tenant() != "acme" {
		t.Errorf("Tenant() = %q", r.Query.Tenant())
	}
	if st := e.TenantStats()[0]; st.Queries != 1 {
		t.Errorf("after drop+register: %+v", st)
	}
}

func TestTenantSlotReleasedOnFailedRegistration(t *testing.T) {
	e, _ := newTestEngine(t)
	mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, v FLOAT)")
	e.SetTenantQuota("acme", TenantQuota{MaxQueries: 1})

	// A plan error after admission must release the reservation.
	if _, err := e.Exec("REGISTER QUERY bad TENANT acme AS SELECT avg(v) FROM ghost [SIZE 10 SLIDE 10]"); err == nil {
		t.Fatal("registration over unknown stream succeeded")
	}
	mustExec(t, e, "REGISTER QUERY ok TENANT acme AS SELECT avg(v) FROM s [SIZE 10 SLIDE 10]")
}

func TestTenantAppendRateLimit(t *testing.T) {
	e, _ := newTestEngine(t)
	mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, v FLOAT)")
	// 1000 rows/s with a one-second burst: the first 1000 rows pass
	// untouched, the next 500 owe ~500ms.
	e.SetTenantQuota("acme", TenantQuota{MaxAppendRowsPerSec: 1000})

	row := func(ts int64) []any { return []any{time.UnixMicro(ts), 1.0} }
	batch := make([][]any, 100)
	for i := range batch {
		batch[i] = row(int64(i))
	}
	start := time.Now()
	for i := 0; i < 15; i++ { // 1500 rows total
		if err := e.Append("s", batch, AsTenant("acme")); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 300*time.Millisecond {
		t.Errorf("1500 rows at 1000 rows/s took %v; want >= ~500ms of throttling", elapsed)
	}
	st := e.TenantStats()[0]
	if st.AppendedRows != 1500 || st.ThrottledAppends == 0 || st.ThrottleWaitUsec == 0 {
		t.Errorf("throttle counters: %+v", st)
	}
}

func TestTenantLagBackpressure(t *testing.T) {
	e, clock := newTestEngine(t)
	mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, v FLOAT)")

	r := mustExec(t, e, "REGISTER QUERY q TENANT slow AS SELECT avg(v) FROM s [SIZE 2 SLIDE 2]")
	q := r.Query

	// Seal several windows without consuming: 5 windows of 2 rows. The lag
	// quota arms only afterwards, so this backlog feed is not itself
	// throttled.
	for i := 0; i < 10; i += 2 {
		if err := e.Append("s", []any{time.UnixMicro(clock.Load()), 1.0},
			[]any{time.UnixMicro(clock.Load()), 2.0}, AsTenant("slow")); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}
	e.SetTenantQuota("slow", TenantQuota{MaxLagWindows: 3})
	if p := e.TenantStats()[0].LagWindows; p < 3 {
		t.Fatalf("want >= 3 pending results before backpressure check, got %d", p)
	}

	// The next tenant append must block until the consumer drains.
	released := make(chan struct{})
	go func() {
		_ = e.Append("s", []any{time.UnixMicro(clock.Load()), 3.0}, AsTenant("slow"))
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("append returned while lag >= MaxLagWindows")
	case <-time.After(50 * time.Millisecond):
	}
	for len(q.Out()) > 0 { // drain the backlog; the blocked append releases
		<-q.Out()
	}
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("append still blocked after backlog drained")
	}
	if st := e.TenantStats()[0]; st.ThrottledAppends == 0 {
		t.Errorf("backpressure not counted: %+v", st)
	}
}

// TestTenantThrottledResultsIdentical is the acceptance check: an
// over-quota sibling is rejected and a rate-limited tenant is throttled,
// while the in-quota tenant's results stay byte-identical to an
// unthrottled run of the same feed.
func TestTenantThrottledResultsIdentical(t *testing.T) {
	feed := func(e *Engine, tenant string) []string {
		var rows [][]any
		for i := 0; i < 40; i++ {
			rows = append(rows, []any{time.UnixMicro(int64(i + 1)), float64(i % 7)})
		}
		for i := 0; i < len(rows); i += 4 {
			var err error
			if tenant == "" {
				err = e.Append("s", rows[i:i+4])
			} else {
				err = e.Append("s", rows[i:i+4], AsTenant(tenant))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return nil
	}

	run := func(quota *TenantQuota) []string {
		e, _ := newTestEngine(t)
		mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, v FLOAT)")
		tenant := ""
		if quota != nil {
			tenant = "acme"
			e.SetTenantQuota("acme", *quota)
			e.SetTenantQuota("greedy", TenantQuota{MaxQueries: 0}) // unlimited sibling
		}
		reg := "REGISTER QUERY q AS SELECT sum(v), count(*) FROM s [SIZE 10 SLIDE 5]"
		if tenant != "" {
			reg = "REGISTER QUERY q TENANT acme AS SELECT sum(v), count(*) FROM s [SIZE 10 SLIDE 5]"
		}
		r := mustExec(t, e, reg)
		feed(e, tenant)
		e.Drain()
		return rowsOf(collect(e, r.Query))
	}

	baseline := run(nil)
	throttled := run(&TenantQuota{MaxQueries: 1, MaxAppendRowsPerSec: 500})
	if len(baseline) == 0 {
		t.Fatal("baseline produced no rows")
	}
	if strings.Join(baseline, "\n") != strings.Join(throttled, "\n") {
		t.Errorf("throttled results diverge from baseline:\nbaseline:\n%s\nthrottled:\n%s",
			strings.Join(baseline, "\n"), strings.Join(throttled, "\n"))
	}
}

func TestTenantSQLParsing(t *testing.T) {
	e, _ := newTestEngine(t)
	mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, tenant FLOAT)")
	// "tenant" stays usable as a column name; TENANT after the query name
	// is the clause.
	r := mustExec(t, e, "REGISTER QUERY q TENANT acme AS SELECT avg(tenant) FROM s [SIZE 10 SLIDE 10]")
	if r.Query.Tenant() != "acme" {
		t.Errorf("Tenant() = %q", r.Query.Tenant())
	}
}

// TestEngineMetricsCollector scrapes a live engine through the registry
// and checks the output is valid Prometheus text covering every family
// group the ISSUE names: basket, query, group, scheduler, tenant.
func TestEngineMetricsCollector(t *testing.T) {
	e, clock := newTestEngine(t)
	mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, v FLOAT)")
	e.SetTenantQuota("acme", TenantQuota{MaxQueries: 10})
	mustExec(t, e, "REGISTER QUERY q0 TENANT acme AS SELECT avg(v) FROM s [SIZE 4 SLIDE 4]")
	mustExec(t, e, "REGISTER QUERY q1 TENANT acme AS SELECT sum(v) FROM s [SIZE 4 SLIDE 4]")
	for i := 0; i < 16; i++ {
		if err := e.Append("s", []any{time.UnixMicro(clock.Load()), float64(i)}, AsTenant("acme")); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()

	reg := metrics.NewRegistry()
	reg.MustRegister(e.MetricsCollector())
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if _, err := metrics.ParseText(strings.NewReader(text)); err != nil {
		t.Fatalf("scrape is not valid Prometheus text: %v\n%s", err, text)
	}
	for _, want := range []string{
		`datacell_basket_appended_tuples_total{stream="s"} 16`,
		`datacell_query_evals_total{query="q0"}`,
		`datacell_group_members`,
		`datacell_scheduler_workers 2`,
		`datacell_tenant_appended_rows_total{tenant="acme"} 16`,
		`datacell_tenant_queries{tenant="acme"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q\n%s", want, text)
		}
	}
}

// TestBasketSegmentMetrics: the scrape exports a sharded stream's
// segment counters, summed over its shards as Stats reports them, and
// never counts more reused segments than segments.
func TestBasketSegmentMetrics(t *testing.T) {
	e, clock := newTestEngine(t)
	mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 2 KEY k")
	mustExec(t, e, "REGISTER QUERY q AS SELECT k, sum(v) FROM s [SIZE 3000 SLIDE 3000] GROUP BY k")
	for round := 0; round < 8; round++ {
		rows := make([][]any, 3000)
		for i := range rows {
			rows[i] = []any{time.UnixMicro(clock.Load()), int64(i % 16), float64(i)}
		}
		if err := e.Append("s", rows); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}

	reg := metrics.NewRegistry()
	reg.MustRegister(e.MetricsCollector())
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("scrape is not valid Prometheus text: %v", err)
	}
	got := map[string]float64{}
	for _, f := range fams {
		for _, sm := range f.Samples {
			if sm.Labels["stream"] == "s" {
				got[sm.Name] = sm.Value
			}
		}
	}
	segs, ok := got["datacell_basket_segments_total"]
	reused, ok2 := got["datacell_basket_segments_reused_total"]
	if !ok || !ok2 {
		t.Fatalf("scrape lacks the segment counters:\n%s", b.String())
	}
	st := e.Stats().Baskets[0]
	if segs != float64(st.Segments) || reused != float64(st.Reused) {
		t.Fatalf("scraped %v segments, %v reused; Stats reports %d, %d", segs, reused, st.Segments, st.Reused)
	}
	if segs < 2 || reused > segs {
		t.Fatalf("%v segments, %v reused: want at least one per shard, and reused ≤ segments", segs, reused)
	}
}

func TestSetTenantQuotaDDL(t *testing.T) {
	e, _ := newTestEngine(t)
	mustExec(t, e, "CREATE STREAM s (ts TIMESTAMP, v FLOAT)")
	// Quotas land via DDL — the shape an -init script restores on restart.
	mustExec(t, e, "SET TENANT QUOTA acme MAX_QUERIES 1 APPEND_ROWS_PER_SEC 500 LAG_WINDOWS 4")
	st := e.TenantStats()
	if len(st) != 1 || st[0].Name != "acme" {
		t.Fatalf("TenantStats after DDL: %+v", st)
	}
	want := TenantQuota{MaxQueries: 1, MaxAppendRowsPerSec: 500, MaxLagWindows: 4}
	if st[0].Quota != want {
		t.Fatalf("quota = %+v, want %+v", st[0].Quota, want)
	}

	// The DDL-set quota is enforced exactly like SetTenantQuota.
	mustExec(t, e, "REGISTER QUERY q0 TENANT acme AS SELECT avg(v) FROM s [SIZE 10 SLIDE 10]")
	_, err := e.Exec("REGISTER QUERY q1 TENANT acme AS SELECT avg(v) FROM s [SIZE 10 SLIDE 10]")
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("want *QuotaError past DDL quota, got %v", err)
	}

	// The bare form clears every limit.
	mustExec(t, e, "SET TENANT QUOTA acme")
	mustExec(t, e, "REGISTER QUERY q1 TENANT acme AS SELECT avg(v) FROM s [SIZE 10 SLIDE 10]")

	// And the whole flow scripts (ExecScript is the -init path).
	if _, err := e.ExecScript(`
		SET TENANT QUOTA beta MAX_QUERIES 2;
		REGISTER QUERY b0 TENANT beta AS SELECT avg(v) FROM s [SIZE 10 SLIDE 10];
	`); err != nil {
		t.Fatal(err)
	}
	for _, ts := range e.TenantStats() {
		if ts.Name == "beta" && ts.Quota.MaxQueries != 2 {
			t.Errorf("scripted beta quota: %+v", ts.Quota)
		}
	}
}

// TestTenantGatedReceptorIngest is the satellite regression check:
// receptor-path ingest into a stream whose registering query carries
// TENANT t is throttled through the same token bucket as an AsTenant append —
// same row accounting, same throttle counters, same pacing.
func TestTenantGatedReceptorIngest(t *testing.T) {
	e, _ := newTestEngine(t)
	mustExec(t, e, "CREATE STREAM r1 (id INT, v FLOAT)")
	mustExec(t, e, "CREATE STREAM r2 (id INT, v FLOAT)")
	mustExec(t, e, "SET TENANT QUOTA gated APPEND_ROWS_PER_SEC 1000")
	mustExec(t, e, "SET TENANT QUOTA direct APPEND_ROWS_PER_SEC 1000")
	// Binding: a TENANT query over r1 puts r1's anonymous ingest on
	// tenant "gated"'s account.
	mustExec(t, e, "REGISTER QUERY g TENANT gated AS SELECT avg(v) FROM r1 [SIZE 100 SLIDE 100]")

	var csv strings.Builder
	rows := make([][]any, 0, 1500)
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&csv, "%d,%g\n", i, float64(i))
		rows = append(rows, []any{i, float64(i)})
	}

	// Feed both tenants concurrently (buckets are per-tenant): 1500 rows
	// at 1000 rows/s with a one-second burst owe ~500ms each.
	gatedBk, err := e.IngestAppender("r1")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var gatedElapsed, directElapsed time.Duration
	done := make(chan error, 2)
	go func() {
		n, err := receptor.ReplayCSV(strings.NewReader(csv.String()), gatedBk, 100, e.Now)
		gatedElapsed = time.Since(start)
		if err == nil && n != 1500 {
			err = fmt.Errorf("replayed %d rows, want 1500", n)
		}
		done <- err
	}()
	go func() {
		var err error
		for i := 0; i < 1500 && err == nil; i += 100 {
			err = e.Append("r2", rows[i:i+100], AsTenant("direct"))
		}
		directElapsed = time.Since(start)
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	var gated, direct TenantStats
	for _, st := range e.TenantStats() {
		switch st.Name {
		case "gated":
			gated = st
		case "direct":
			direct = st
		}
	}
	if gated.AppendedRows != direct.AppendedRows || gated.AppendedRows != 1500 {
		t.Errorf("row accounting differs: gated=%d direct=%d want 1500",
			gated.AppendedRows, direct.AppendedRows)
	}
	if gated.ThrottledAppends == 0 || gated.ThrottleWaitUsec == 0 {
		t.Errorf("receptor ingest was not throttled: %+v", gated)
	}
	if direct.ThrottledAppends == 0 {
		t.Errorf("AsTenant baseline was not throttled: %+v", direct)
	}
	if gatedElapsed < 300*time.Millisecond || directElapsed < 300*time.Millisecond {
		t.Errorf("pacing differs from quota: gated=%v direct=%v, want both >= ~500ms", gatedElapsed, directElapsed)
	}

	// INSERT rides the same gate while the binding holds.
	mustExec(t, e, "INSERT INTO r1 VALUES (9000, 1.5)")
	for _, st := range e.TenantStats() {
		if st.Name == "gated" && st.AppendedRows != 1501 {
			t.Errorf("INSERT not charged to bound tenant: %+v", st)
		}
	}

	// Dropping the binding query releases the stream: ingest reverts to
	// the anonymous (uncharged, unthrottled) path.
	mustExec(t, e, "DROP QUERY g")
	if err := e.Append("r1", rows[:100]); err != nil {
		t.Fatal(err)
	}
	for _, st := range e.TenantStats() {
		if st.Name == "gated" && st.AppendedRows != 1501 {
			t.Errorf("append charged after binding released: %+v", st)
		}
	}
}
