package datacell

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
)

// TenantQuota bounds one tenant's footprint on the engine. The zero
// value means unlimited on every axis — tenants exist for accounting
// even without quotas, and each limit arms independently.
//
// Quotas are the admission-control half of multi-tenancy; the isolation
// half (shared execution groups, per-member tails) means one tenant's
// queries never stall another's regardless of quota settings. See
// docs/OPERATIONS.md for tuning guidance.
type TenantQuota struct {
	// MaxQueries caps concurrently registered continuous queries.
	// Registration past the cap fails with a *QuotaError; DROP QUERY (or
	// Query.Stop) releases the slot. 0 means unlimited.
	MaxQueries int
	// MaxAppendRowsPerSec rate-limits the tenant's ingest through
	// Append(..., AsTenant(t)) with a token bucket (burst of one
	// second's allowance). Over-rate appends block until tokens refill —
	// backpressure, not an error. 0 means unlimited.
	MaxAppendRowsPerSec float64
	// MaxLagWindows arms consumer-lag backpressure: when the tenant's
	// slowest result consumer leaves this many results unconsumed in a
	// query's Out channel, the tenant's own appends block until the
	// backlog drains below the threshold. Sibling tenants' appends are
	// unaffected — the whole point of per-tenant backpressure. 0 disables.
	MaxLagWindows int
}

// QuotaError is the typed rejection of an over-quota operation.
// Admission control returns it from Register (resource "queries");
// errors.As-match it to distinguish quota rejections from plan errors.
type QuotaError struct {
	Tenant   string
	Resource string // "queries"
	Limit    int
	Used     int
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("datacell: tenant %q over quota: %s limit %d reached (in use: %d)",
		e.Tenant, e.Resource, e.Limit, e.Used)
}

// TenantStats is one tenant's observable state — the backing of the
// \tenants pane and the datacell_tenant_* metric families.
type TenantStats struct {
	Name    string
	Quota   TenantQuota
	Queries int // registered + in-flight reservations
	// LagWindows is the current backlog of the slowest consumer across
	// the tenant's queries (unconsumed results in an Out channel).
	LagWindows int
	// RejectedQueries counts registrations refused by admission control.
	RejectedQueries int64
	// AppendedRows counts rows ingested through the tenant append path.
	AppendedRows int64
	// ThrottledAppends counts appends that blocked on the rate limiter or
	// on lag backpressure; ThrottleWaitUsec is the total time they waited.
	ThrottledAppends int64
	ThrottleWaitUsec int64
}

// tenantState is the engine-side record of one tenant. Its mutex is
// leaf-level: never held while calling into the engine, the scheduler or
// a basket.
type tenantState struct {
	name string

	mu      sync.Mutex
	quota   TenantQuota
	used    int // registered queries + in-flight register reservations
	queries map[string]*Query

	rejected     int64
	appendedRows int64
	throttled    int64
	throttleWait int64 // µs

	// Token bucket for MaxAppendRowsPerSec, on the wall clock (logical
	// engine clocks injected by tests would stall a sleeping bucket).
	tokens     float64
	lastRefill int64 // wall µs; 0 until first use
}

// tenantState returns (creating if needed) the named tenant's record.
func (e *Engine) tenantState(name string) *tenantState {
	e.tenantMu.Lock()
	defer e.tenantMu.Unlock()
	if e.tenants == nil {
		e.tenants = map[string]*tenantState{}
	}
	ts, ok := e.tenants[name]
	if !ok {
		ts = &tenantState{name: name, queries: map[string]*Query{}}
		e.tenants[name] = ts
	}
	return ts
}

// SetTenantQuota installs (or replaces) a tenant's quota. Creating the
// tenant record implicitly, it can run before or after the tenant's
// first registration; lowering MaxQueries below the current count
// affects only future registrations.
func (e *Engine) SetTenantQuota(tenant string, q TenantQuota) {
	ts := e.tenantState(tenant)
	ts.mu.Lock()
	ts.quota = q
	ts.mu.Unlock()
}

// TenantNames lists tenants that have registered queries, appended rows
// or received quotas, sorted.
func (e *Engine) TenantNames() []string {
	e.tenantMu.Lock()
	defer e.tenantMu.Unlock()
	out := make([]string, 0, len(e.tenants))
	for n := range e.tenants {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TenantStats snapshots every tenant's counters, sorted by name.
func (e *Engine) TenantStats() []TenantStats {
	var out []TenantStats
	for _, n := range e.TenantNames() {
		ts := e.tenantState(n)
		out = append(out, ts.stats())
	}
	return out
}

func (ts *tenantState) stats() TenantStats {
	lag := ts.lag()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return TenantStats{
		Name:             ts.name,
		Quota:            ts.quota,
		Queries:          ts.used,
		LagWindows:       lag,
		RejectedQueries:  ts.rejected,
		AppendedRows:     ts.appendedRows,
		ThrottledAppends: ts.throttled,
		ThrottleWaitUsec: ts.throttleWait,
	}
}

// admitQuery reserves one query slot, or rejects with a *QuotaError when
// the tenant is at MaxQueries. The reservation is taken before the plan
// is even parsed so concurrent registrations cannot overshoot the cap;
// the caller must pair it with attachQuery (success) or releaseSlot
// (any failure path).
func (ts *tenantState) admitQuery() error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.quota.MaxQueries > 0 && ts.used >= ts.quota.MaxQueries {
		ts.rejected++
		return &QuotaError{Tenant: ts.name, Resource: "queries",
			Limit: ts.quota.MaxQueries, Used: ts.used}
	}
	ts.used++
	return nil
}

// attachQuery binds a successfully registered query to its reserved slot.
func (ts *tenantState) attachQuery(q *Query) {
	ts.mu.Lock()
	ts.queries[q.name] = q
	ts.mu.Unlock()
}

// releaseSlot frees a reservation (failed registration) or a registered
// query's slot (Stop / DROP QUERY). name is empty for bare reservations.
func (ts *tenantState) releaseSlot(name string) {
	ts.mu.Lock()
	if ts.used > 0 {
		ts.used--
	}
	if name != "" {
		delete(ts.queries, name)
	}
	ts.mu.Unlock()
}

// lag reports the tenant's slowest consumer backlog: the maximum count
// of unconsumed results across its queries' Out channels. Queries
// registered with NoChannel contribute nothing (their emitters are
// caller-owned and presumed non-blocking).
func (ts *tenantState) lag() int {
	ts.mu.Lock()
	qs := make([]*Query, 0, len(ts.queries))
	for _, q := range ts.queries {
		qs = append(qs, q)
	}
	ts.mu.Unlock()
	max := 0
	for _, q := range qs {
		if q.out == nil {
			continue
		}
		if p := q.out.Pending(); p > max {
			max = p
		}
	}
	return max
}

// admitAppend applies the tenant's ingest controls for an n-row append:
// first consumer-lag backpressure (block while the slowest consumer is
// MaxLagWindows behind), then the token-bucket rate limit (block until n
// tokens are available). Both waits are on the wall clock and count into
// ThrottledAppends/ThrottleWaitUsec.
func (ts *tenantState) admitAppend(n int) {
	const pollEvery = 500 * time.Microsecond
	start := time.Now()
	waited := false

	ts.mu.Lock()
	lagLimit := ts.quota.MaxLagWindows
	ts.mu.Unlock()
	if lagLimit > 0 {
		for ts.lag() >= lagLimit {
			waited = true
			time.Sleep(pollEvery)
			// A lowered quota mid-wait should not strand the appender.
			ts.mu.Lock()
			lagLimit = ts.quota.MaxLagWindows
			ts.mu.Unlock()
			if lagLimit <= 0 {
				break
			}
		}
	}

	for {
		ts.mu.Lock()
		rate := ts.quota.MaxAppendRowsPerSec
		if rate <= 0 {
			ts.appendedRows += int64(n)
			ts.finishThrottleLocked(waited, start)
			ts.mu.Unlock()
			return
		}
		now := time.Now().UnixMicro()
		if ts.lastRefill == 0 {
			// First rate-limited append: start with one second's burst.
			ts.lastRefill, ts.tokens = now, rate
		}
		ts.tokens += float64(now-ts.lastRefill) / 1e6 * rate
		if burst := rate; ts.tokens > burst {
			ts.tokens = burst
		}
		ts.lastRefill = now
		if ts.tokens >= float64(n) || ts.tokens == rate {
			// Enough tokens — or the batch exceeds the whole burst, in
			// which case a full bucket is the best we can do (charging it
			// below zero keeps the long-run rate at the quota).
			ts.tokens -= float64(n)
			ts.appendedRows += int64(n)
			ts.finishThrottleLocked(waited, start)
			ts.mu.Unlock()
			return
		}
		deficit := float64(n) - ts.tokens
		ts.mu.Unlock()
		waited = true
		wait := time.Duration(deficit / rate * float64(time.Second))
		if wait < pollEvery {
			wait = pollEvery
		}
		time.Sleep(wait)
	}
}

func (ts *tenantState) finishThrottleLocked(waited bool, start time.Time) {
	if waited {
		ts.throttled++
		ts.throttleWait += time.Since(start).Microseconds()
	}
}

// bindIngest records that the query's tenant claims the query's input
// streams: while the binding holds, anonymous appends to those streams
// (receptors, INSERT, plain Append) are admitted through the tenant's
// token bucket and lag backpressure exactly like an AsTenant append. Refcounted
// per (stream, tenant) so two queries of one tenant over one stream
// release cleanly in either order.
func (e *Engine) bindIngest(q *Query) {
	if q.tenant == "" {
		return
	}
	streams := dedupStrings(q.fac.Baskets())
	e.ingestMu.Lock()
	if e.ingestTenants == nil {
		e.ingestTenants = map[string]map[string]int{}
	}
	for _, s := range streams {
		m := e.ingestTenants[s]
		if m == nil {
			m = map[string]int{}
			e.ingestTenants[s] = m
		}
		m[q.tenant]++
	}
	e.ingestMu.Unlock()
	q.ingestStreams = streams
}

// releaseIngest undoes bindIngest when the query stops.
func (e *Engine) releaseIngest(q *Query) {
	if q.tenant == "" || len(q.ingestStreams) == 0 {
		return
	}
	e.ingestMu.Lock()
	for _, s := range q.ingestStreams {
		if m := e.ingestTenants[s]; m != nil {
			if m[q.tenant]--; m[q.tenant] <= 0 {
				delete(m, q.tenant)
			}
			if len(m) == 0 {
				delete(e.ingestTenants, s)
			}
		}
	}
	e.ingestMu.Unlock()
}

// boundTenants snapshots the tenants bound to a stream, sorted for
// deterministic admission order. It holds ingestMu only for the map scan
// — callers block in admitAppend lock-free.
func (e *Engine) boundTenants(stream string) []*tenantState {
	e.ingestMu.Lock()
	m := e.ingestTenants[stream]
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	e.ingestMu.Unlock()
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	out := make([]*tenantState, len(names))
	for i, n := range names {
		out[i] = e.tenantState(n)
	}
	return out
}

func dedupStrings(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// IngestAppender wraps a stream's basket in the tenant-gated append
// path: receptors hand it to ListenTCP/ReplayCSV so network ingest on a
// tenant-bound stream is throttled identically to an AsTenant append (same
// token bucket, same ThrottledAppends accounting). On an unbound stream
// it is a zero-overhead pass-through.
func (e *Engine) IngestAppender(stream string) (basket.Appender, error) {
	bk, err := e.Basket(stream)
	if err != nil {
		return nil, err
	}
	return &gatedAppender{eng: e, stream: stream, bk: bk}, nil
}

type gatedAppender struct {
	eng    *Engine
	stream string
	bk     *basket.Sharded
}

func (g *gatedAppender) Name() string       { return g.bk.Name() }
func (g *gatedAppender) Schema() bat.Schema { return g.bk.Schema() }

// Append implements basket.Appender with tenant admission in front.
func (g *gatedAppender) Append(c *bat.Chunk, arrival int64) error {
	for _, ts := range g.eng.boundTenants(g.stream) {
		ts.admitAppend(c.Rows())
	}
	return g.bk.Append(c, arrival)
}
