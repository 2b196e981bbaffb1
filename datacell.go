// Package datacell is a streaming column-store: a Go reproduction of
// MonetDB/DataCell (Liarou, Idreos, Manegold, Kersten, VLDB 2012), which
// extends a column-oriented DBMS kernel with online analytics. Stream
// processing is a query-scheduling task on top of ordinary columnar query
// plans: incoming events land in baskets, continuous queries are factories
// fired by a Petri-net scheduler, and sliding windows are processed
// incrementally by caching per-basic-window columnar intermediates.
//
// The engine speaks a SQL'03 subset extended with the paper's continuous
// constructs:
//
//	CREATE STREAM trades (ts TIMESTAMP, sym STRING, px FLOAT);
//	CREATE TABLE  limits (sym STRING, cap FLOAT);
//	REGISTER INCREMENTAL QUERY vwap AS
//	    SELECT sym, sum(px)/count(*) FROM trades [SIZE 1000 SLIDE 100]
//	    GROUP BY sym;
//
// Continuous queries interleave freely with one-time queries over tables
// and over the current basket contents — the paper's "two query paradigms"
// in one fabric.
package datacell

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/catalog"
	"datacell/internal/kernel"
	"datacell/internal/plan"
	"datacell/internal/scheduler"
	"datacell/internal/sql"
	"datacell/internal/window"
)

// Options configures an Engine.
type Options struct {
	// Workers is the scheduler worker-pool size (default 4).
	Workers int
	// Now supplies the engine clock in microseconds since the epoch.
	// Benchmarks and tests inject logical clocks; the default is the
	// system clock.
	Now func() int64
	// ResultBuffer is the per-query result channel capacity (default
	// 1024). When a consumer lags, results are dropped and counted rather
	// than stalling the query network.
	ResultBuffer int
	// Heartbeat, when positive, periodically advances the time-window
	// watermark to the engine clock, closing open buckets while streams
	// are idle — the scheduler's time constraints ("possibly delaying
	// events in their baskets for some time", then forcing evaluation).
	// Use it when stream timestamps follow the engine clock; leave zero
	// for event-time replay and drive AdvanceTime explicitly.
	Heartbeat time.Duration
	// DefaultShards is the shard count for streams created without an
	// explicit SHARD clause (default 1: one mutex-guarded basket per
	// stream, the classic DataCell layout). Streams with more than one
	// shard ingest and fire factories in parallel per shard.
	DefaultShards int
}

// Engine is a DataCell instance: catalog, baskets, factories, scheduler.
type Engine struct {
	cat       *catalog.Catalog
	sched     *scheduler.Scheduler
	now       func() int64
	buf       int
	shards    int
	heartbeat *scheduler.Ticker

	// groupSeq numbers shared execution groups so scheduler group names
	// stay unique across teardown/re-create cycles of the same key.
	groupSeq atomic.Int64

	// Plan cache (query.go): compiled registration artifacts — optimized
	// plan, decomposition, resolved mode — keyed on (SQL text, requested
	// mode, catalog generation). Re-registering the same query text (fleets
	// of per-tenant threshold variants, reconnect storms) skips parse,
	// bind, optimize and decompose entirely; any DDL bumps the catalog
	// generation and
	// naturally orphans stale entries. planMu guards the map only; entries
	// are immutable once published.
	planMu    sync.Mutex
	planCache map[string]*planEntry
	planHits  atomic.Int64
	planMiss  atomic.Int64

	mu      sync.Mutex
	queries map[string]*Query
	fabric  Fabric // attached scale-out fabric (nil: single-process)
	closed  bool

	// Multi-tenant accounting (tenant.go). tenantMu guards only the map;
	// each tenantState carries its own leaf mutex.
	tenantMu sync.Mutex
	tenants  map[string]*tenantState

	// Stream→tenant ingest bindings (tenant.go): while a query registered
	// with TENANT t reads a stream, anonymous appends to that stream
	// (receptors, INSERT, plain Append) charge t's token bucket too.
	// ingestMu guards only the refcount map — lookups on the append path
	// copy the slice out before any blocking admission.
	ingestMu      sync.Mutex
	ingestTenants map[string]map[string]int // stream → tenant → query refcount
}

// Fabric is the engine-facing contract of a distributed shard fabric
// (internal/fabric): a coordinator that partitions exported streams' shard
// sets across worker processes. When a query group forms over an exported
// stream, the engine asks the fabric for a slicing spec instead of
// creating local basket cursors; workers slice their shard ranges and ship
// sealed epoch fragments back into the group's merger.
type Fabric interface {
	// AddSpec registers a slicing spec for a new query group over an
	// exported stream and returns its handle. The window carries the slide
	// granularity the workers must cut at.
	AddSpec(stream, key string, win *plan.Window, schema bat.Schema) (*FabricSpec, error)
	// Describe renders the fabric state for the \fabric introspection
	// command.
	Describe() string
}

// FabricSpec is the handle for one remote slicing spec.
type FabricSpec struct {
	// Shards is the stream's total shard count across all workers.
	Shards int
	// Attach starts feeding the group: the fabric broadcasts the spec to
	// its workers and routes their fragments — one remote shard's freshly
	// flushed epoch fragments plus its watermark per delivery — into
	// offer, which feeds the consuming group side's merger. Call after the
	// creating member joined, before data must flow.
	Attach func(offer func(shard int, frags []*window.Frag, wm int64))
	// Drop retires the spec on all workers (wired into the group's Close).
	Drop func()
}

// AttachFabric connects a scale-out fabric to the engine. Attach before
// exporting streams or registering queries over them.
func (e *Engine) AttachFabric(f Fabric) {
	e.mu.Lock()
	e.fabric = f
	e.mu.Unlock()
}

// FabricStatus renders the attached fabric's state — the backing of the
// \fabric introspection command.
func (e *Engine) FabricStatus() string {
	e.mu.Lock()
	f := e.fabric
	e.mu.Unlock()
	if f == nil {
		return "(no fabric attached)"
	}
	return f.Describe()
}

func (e *Engine) fabricHandler() Fabric {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fabric
}

// Stream exposes a stream's catalog entry (the fabric marks exported
// streams and wires their baskets through it).
func (e *Engine) Stream(name string) (*catalog.Stream, bool) {
	return e.cat.Stream(name)
}

// New starts an engine.
func New(opts *Options) *Engine {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Now == nil {
		o.Now = func() int64 { return time.Now().UnixMicro() }
	}
	if o.ResultBuffer <= 0 {
		o.ResultBuffer = 1024
	}
	if o.DefaultShards <= 0 {
		o.DefaultShards = 1
	}
	e := &Engine{
		cat:     catalog.New(),
		sched:   scheduler.New(o.Workers),
		now:     o.Now,
		buf:     o.ResultBuffer,
		shards:  o.DefaultShards,
		queries: make(map[string]*Query),

		planCache: make(map[string]*planEntry),
	}
	if o.Heartbeat > 0 {
		e.heartbeat = scheduler.NewTicker(o.Heartbeat, func(time.Time) {
			e.AdvanceTime(e.now())
		})
	}
	return e
}

// Close stops all continuous queries and the scheduler.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	qs := make([]*Query, 0, len(e.queries))
	for _, q := range e.queries {
		qs = append(qs, q)
	}
	e.mu.Unlock()
	if e.heartbeat != nil {
		e.heartbeat.Stop()
	}
	for _, q := range qs {
		q.Stop()
	}
	e.sched.Stop()
}

// Result is the outcome of Exec: a chunk for queries, a message for DDL.
type Result struct {
	Chunk *bat.Chunk
	Msg   string
	// Query is the handle when the statement registered a continuous
	// query.
	Query *Query
}

// Exec parses and executes one SQL statement: DDL, INSERT, a one-time
// SELECT (over tables and current basket contents), or REGISTER QUERY.
func (e *Engine) Exec(src string) (*Result, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.execStmt(stmt)
}

// ExecScript executes a semicolon-separated sequence of statements,
// stopping at the first error. It returns the last statement's result.
func (e *Engine) ExecScript(src string) (*Result, error) {
	stmts, err := sql.ParseScript(src)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, s := range stmts {
		last, err = e.execStmt(s)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

func (e *Engine) execStmt(stmt sql.Stmt) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.CreateTable:
		sch, err := schemaOf(s.Cols)
		if err != nil {
			return nil, err
		}
		if _, err := e.cat.CreateTable(s.Name, sch); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("table %s created", s.Name)}, nil

	case *sql.CreateStream:
		sch, err := schemaOf(s.Cols)
		if err != nil {
			return nil, err
		}
		shards := s.Shards
		if shards <= 0 {
			shards = e.shards
		}
		keyIdx := -1
		if s.Key != "" {
			if keyIdx = sch.Index(s.Key); keyIdx < 0 {
				return nil, fmt.Errorf("datacell: SHARD KEY %q is not a column of stream %s", s.Key, s.Name)
			}
		}
		if _, err := e.cat.CreateStreamSharded(s.Name, sch, shards, keyIdx); err != nil {
			return nil, err
		}
		if shards > 1 {
			return &Result{Msg: fmt.Sprintf("stream %s created (%d shards)", s.Name, shards)}, nil
		}
		return &Result{Msg: fmt.Sprintf("stream %s created", s.Name)}, nil

	case *sql.DropStmt:
		return e.execDrop(s)

	case *sql.Insert:
		return e.execInsert(s)

	case *sql.SelectStmt:
		c, err := e.Select(s)
		if err != nil {
			return nil, err
		}
		return &Result{Chunk: c}, nil

	case *sql.SetTenantQuota:
		e.SetTenantQuota(s.Tenant, TenantQuota{
			MaxQueries:          int(s.MaxQueries),
			MaxAppendRowsPerSec: s.AppendRowsPerSec,
			MaxLagWindows:       int(s.LagWindows),
		})
		return &Result{Msg: fmt.Sprintf("tenant %s quota set", s.Tenant)}, nil

	case *sql.RegisterQuery:
		mode := ModeAuto
		switch s.Mode {
		case "INCREMENTAL":
			mode = ModeIncremental
		case "REEVAL":
			mode = ModeReeval
		}
		q, err := e.register(s.Name, "", s.Select, mode, &RegisterOptions{Isolated: s.Isolated, Tenant: s.Tenant})
		if err != nil {
			return nil, err
		}
		return &Result{
			Msg:   fmt.Sprintf("query %s registered (%s)", s.Name, q.Mode()),
			Query: q,
		}, nil
	}
	return nil, fmt.Errorf("datacell: unsupported statement %T", stmt)
}

func schemaOf(cols []sql.ColumnDef) (bat.Schema, error) {
	names := make([]string, len(cols))
	types := make([]string, len(cols))
	for i, c := range cols {
		names[i], types[i] = c.Name, c.Type
	}
	return catalog.SchemaFromDefs(names, types)
}

func (e *Engine) execDrop(s *sql.DropStmt) (*Result, error) {
	switch s.What {
	case "TABLE":
		if err := e.cat.DropTable(s.Name); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("table %s dropped", s.Name)}, nil
	case "STREAM":
		if users := e.queriesOnStream(s.Name); len(users) > 0 {
			return nil, fmt.Errorf("datacell: stream %q is read by queries %v; drop them first",
				s.Name, users)
		}
		if err := e.cat.DropStream(s.Name); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("stream %s dropped", s.Name)}, nil
	case "QUERY":
		e.mu.Lock()
		q, ok := e.queries[s.Name]
		e.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("datacell: no query %q", s.Name)
		}
		q.Stop()
		return &Result{Msg: fmt.Sprintf("query %s dropped", s.Name)}, nil
	}
	return nil, fmt.Errorf("datacell: cannot drop %s", s.What)
}

func (e *Engine) queriesOnStream(stream string) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for name, q := range e.queries {
		for _, b := range q.fac.Baskets() {
			if b == stream {
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// execInsert handles INSERT INTO for both tables and streams; inserting
// into a stream appends to its basket, which is how the demo's predefined
// scenarios seed data.
func (e *Engine) execInsert(s *sql.Insert) (*Result, error) {
	var sch bat.Schema
	isStream := false
	if t, ok := e.cat.Table(s.Table); ok {
		sch = t.Schema()
	} else if st, ok := e.cat.Stream(s.Table); ok {
		sch = st.Schema()
		isStream = true
	} else {
		return nil, fmt.Errorf("datacell: unknown table or stream %q", s.Table)
	}
	c := bat.NewChunk(sch)
	for _, row := range s.Rows {
		if len(row) != sch.Width() {
			return nil, fmt.Errorf("datacell: INSERT row has %d values, %s has %d columns",
				len(row), s.Table, sch.Width())
		}
		vals := make([]bat.Value, len(row))
		for i, ex := range row {
			lit, ok := ex.(*sql.Lit)
			if !ok {
				return nil, fmt.Errorf("datacell: INSERT values must be literals, got %s", ex)
			}
			v, err := litValue(lit, sch.Kinds[i])
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		if err := c.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	if isStream {
		if err := e.appendChunkAs(s.Table, c, ""); err != nil {
			return nil, err
		}
	} else {
		t, _ := e.cat.Table(s.Table)
		if err := t.Append(c); err != nil {
			return nil, err
		}
	}
	return &Result{Msg: fmt.Sprintf("%d row(s) inserted into %s", c.Rows(), s.Table)}, nil
}

func litValue(l *sql.Lit, want bat.Kind) (bat.Value, error) {
	var v bat.Value
	switch l.Kind {
	case 'i':
		v = bat.IntValue(l.I)
	case 'f':
		v = bat.FloatValue(l.F)
	case 's':
		v = bat.StrValue(l.S)
	case 'b':
		v = bat.BoolValue(l.B)
	}
	if want == bat.Time && v.Kind == bat.Int {
		return bat.TimeValue(v.I), nil
	}
	if want == bat.Time && v.Kind == bat.Str {
		return bat.ParseValue(bat.Time, v.S)
	}
	return v, nil
}

// Select runs a one-time query: tables read their current snapshot and
// stream scans read the current basket contents.
func (e *Engine) Select(s *sql.SelectStmt) (*bat.Chunk, error) {
	bound, err := plan.Bind(e.cat, s)
	if err != nil {
		return nil, err
	}
	opt := plan.Optimize(bound)
	leaves := map[plan.Node]*kernel.View{}
	for _, sc := range plan.Streams(opt) {
		if sc.Window != nil {
			return nil, fmt.Errorf("datacell: window on stream %q in a one-time query; use REGISTER QUERY", sc.Alias)
		}
		leaves[sc] = kernel.NewView(sc.Stream.Basket.Snapshot())
	}
	out, err := kernel.Run(opt, leaves)
	if err != nil {
		return nil, err
	}
	return out.Materialize(), nil
}

// Query1 parses and runs a one-time SELECT.
func (e *Engine) Query1(src string) (*bat.Chunk, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("datacell: Query1 expects a SELECT")
	}
	return e.Select(sel)
}

// AppendOption adjusts one Append call. Options mix freely with data
// arguments in any order.
type AppendOption func(*appendConfig)

type appendConfig struct {
	tenant string
}

// AsTenant charges the appended rows to the named tenant's account: they
// count against its append-rate quota and block under its consumer-lag
// backpressure before entering the shared append path (a throttled tenant
// delays only itself).
func AsTenant(tenant string) AppendOption {
	return func(c *appendConfig) { c.tenant = tenant }
}

// Append is the single ingest entry point: it pushes data into a stream's
// basket or bulk-loads a persistent table, dispatching on what the name
// resolves to in the catalog. Data arguments are polymorphic —
//
//	e.Append("trades", []any{1, "MSFT", 31.2})          // boxed rows
//	e.Append("trades", chunk)                           // pre-built columnar chunk (zero-boxing)
//	e.Append("trades", chunk, datacell.AsTenant("acme")) // on a tenant's account
//
// any mix of []any rows, *bat.Chunk chunks, and AppendOption values, in
// any order. Rows are native Go values matching the schema (int/int64,
// float64, string, bool, time.Time) and are boxed into one chunk; each
// chunk argument appends as-is. A call with no data still appends one
// empty chunk to a stream, advancing its arrival clock — exactly the
// historical Append(stream) behavior heartbeat-style callers rely on.
// Every stream append, rows or chunk, tenant or anonymous, funnels
// through the same gated path (quota admission, then basket append).
func (e *Engine) Append(target string, args ...any) error {
	var cfg appendConfig
	var chunks []*bat.Chunk
	var rows [][]any
	for _, a := range args {
		switch v := a.(type) {
		case []any:
			rows = append(rows, v)
		case [][]any: // a whole batch of rows at once
			rows = append(rows, v...)
		case *bat.Chunk:
			chunks = append(chunks, v)
		case AppendOption:
			v(&cfg)
		default:
			return fmt.Errorf("datacell: Append argument %T (want []any row, *bat.Chunk, or AppendOption)", a)
		}
	}
	if _, ok := e.cat.Stream(target); ok {
		if len(rows) > 0 || len(chunks) == 0 {
			if err := e.appendRows(target, cfg.tenant, rows...); err != nil {
				return err
			}
		}
		for _, c := range chunks {
			if err := e.appendChunkAs(target, c, cfg.tenant); err != nil {
				return err
			}
		}
		return nil
	}
	t, ok := e.cat.Table(target)
	if !ok {
		return fmt.Errorf("datacell: unknown stream or table %q", target)
	}
	if cfg.tenant != "" {
		return fmt.Errorf("datacell: AsTenant applies to streams; %q is a table", target)
	}
	if len(rows) > 0 {
		c := bat.NewChunk(t.Schema())
		for _, row := range rows {
			vals := make([]bat.Value, len(row))
			for i, gv := range row {
				v, err := bat.GoValue(gv)
				if err != nil {
					return err
				}
				vals[i] = v
			}
			if err := c.AppendRow(vals...); err != nil {
				return err
			}
		}
		if err := t.Append(c); err != nil {
			return err
		}
	}
	for _, c := range chunks {
		if err := t.Append(c); err != nil {
			return err
		}
	}
	return nil
}

// appendRows boxes rows into a chunk and runs the gated append path on
// tenant `as`'s account ("" = anonymous, charged to the stream's bound
// tenants only).
func (e *Engine) appendRows(stream, as string, rows ...[]any) error {
	st, ok := e.cat.Stream(stream)
	if !ok {
		return fmt.Errorf("datacell: unknown stream %q", stream)
	}
	c := bat.NewChunk(st.Schema())
	for _, row := range rows {
		vals := make([]bat.Value, len(row))
		for i, gv := range row {
			v, err := bat.GoValue(gv)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		if err := c.AppendRow(vals...); err != nil {
			return err
		}
	}
	return e.appendChunkAs(stream, c, as)
}

// appendChunkAs is the single gated append path behind Append (rows or
// chunks, anonymous or AsTenant) and INSERT: it charges tenant `as`
// (when named) plus every tenant bound to the stream by a TENANT query —
// except `as` itself, so an AsTenant append onto the tenant's own stream
// is charged exactly once. Admission (which may block) happens before the
// basket append, outside every engine lock.
func (e *Engine) appendChunkAs(stream string, c *bat.Chunk, as string) error {
	st, ok := e.cat.Stream(stream)
	if !ok {
		return fmt.Errorf("datacell: unknown stream %q", stream)
	}
	if as != "" {
		e.tenantState(as).admitAppend(c.Rows())
	}
	for _, ts := range e.boundTenants(stream) {
		if ts.name != as {
			ts.admitAppend(c.Rows())
		}
	}
	return st.Basket.Append(c, e.now())
}

// Basket exposes a stream's sharded basket container (receptors append to
// it directly; the container routes rows to shards).
func (e *Engine) Basket(stream string) (*basket.Sharded, error) {
	st, ok := e.cat.Stream(stream)
	if !ok {
		return nil, fmt.Errorf("datacell: unknown stream %q", stream)
	}
	return st.Basket, nil
}

// Schema reports the schema of a table or stream.
func (e *Engine) Schema(name string) (bat.Schema, error) {
	if t, ok := e.cat.Table(name); ok {
		return t.Schema(), nil
	}
	if s, ok := e.cat.Stream(name); ok {
		return s.Schema(), nil
	}
	return bat.Schema{}, fmt.Errorf("datacell: unknown table or stream %q", name)
}

// PauseStream holds a stream's arrivals back; ResumeStream releases them
// (demo §4, Pause and Resume).
func (e *Engine) PauseStream(stream string) error {
	st, ok := e.cat.Stream(stream)
	if !ok {
		return fmt.Errorf("datacell: unknown stream %q", stream)
	}
	st.Basket.Pause()
	return nil
}

// ResumeStream releases a paused stream.
func (e *Engine) ResumeStream(stream string) error {
	st, ok := e.cat.Stream(stream)
	if !ok {
		return fmt.Errorf("datacell: unknown stream %q", stream)
	}
	st.Basket.Resume()
	return nil
}

// AdvanceTime closes time-window buckets up to the watermark (microsecond
// timestamp) across all continuous queries — the scheduler's time
// constraint for idle streams. It raises each stream's settled event
// time, the one clock its time windows seal on, and the groups reading
// the stream (or the fabric workers slicing it) fire on the raise as they
// do on an append. A stream with no settled row yet is left alone. Tuple
// windows are unaffected.
func (e *Engine) AdvanceTime(watermark int64) {
	for _, n := range e.cat.StreamNames() {
		if st, ok := e.cat.Stream(n); ok {
			st.Basket.AdvanceTime(watermark)
		}
	}
}

// Drain blocks until every pending firing has completed — the
// synchronization point for tests and benchmarks after the last append.
func (e *Engine) Drain() { e.sched.Drain() }

// Catalog lists the engine's tables and streams as "kind name(schema)"
// lines, sorted.
func (e *Engine) Catalog() string {
	var b strings.Builder
	for _, n := range e.cat.TableNames() {
		t, _ := e.cat.Table(n)
		fmt.Fprintf(&b, "table  %s(%s) rows=%d\n", n, t.Schema(), t.Rows())
	}
	for _, n := range e.cat.StreamNames() {
		s, _ := e.cat.Stream(n)
		fmt.Fprintf(&b, "stream %s(%s)\n", n, s.Schema())
	}
	return b.String()
}

// Now reports the engine clock (microseconds).
func (e *Engine) Now() int64 { return e.now() }
