package datacell

import (
	"fmt"

	"datacell/internal/emitter"
	"datacell/internal/factory"
	"datacell/internal/plan"
	"datacell/internal/scheduler"
	"datacell/internal/sql"
	"datacell/internal/window"
)

// Mode selects how a continuous query is executed.
type Mode uint8

// The execution modes. ModeAuto picks incremental when the plan
// decomposes (windowed, at most two streams) and falls back to full
// re-evaluation otherwise — the optimizer choice the demo exposes as a
// knob.
const (
	ModeAuto Mode = iota
	ModeReeval
	ModeIncremental
)

// RegisterOptions tunes query registration.
type RegisterOptions struct {
	// Mode selects the execution strategy (default ModeAuto).
	Mode Mode
	// Emitter receives results in addition to the query's Out channel.
	Emitter emitter.Emitter
	// NoChannel suppresses the Out channel entirely (benchmarks that only
	// want an emitter callback or none at all).
	NoChannel bool
	// Isolated opts the query out of shared multi-query execution (SQL:
	// REGISTER ISOLATED QUERY): it becomes the only member of a private
	// group under a nonce-unique "!iso#n" key, with its own basket
	// cursors, slicers, operator DAG and pair cache, instead of joining
	// the stream's shared group. The default is shared execution for
	// every eligible plan — a single windowed stream scan, or a
	// decomposable stream⋈stream join (which joins the stream pair's join
	// group); every other plan gets a private group either way.
	Isolated bool
	// NoMemo keeps a grouped query out of its group's shared operator
	// DAG: the per-basic-window pipeline always evaluates privately, as if
	// no sibling shared a common sub-tail. Results are unaffected;
	// benchmarks use it to measure what the memo buys. It implies
	// NoSharedMerge.
	NoMemo bool
	// NoSharedMerge keeps a grouped query out of its group's merge
	// classes and post-merge trie: the query still resolves its per-basic-
	// window pipeline through the shared DAG, but merges full windows and
	// runs its post-merge fragment (HAVING, final sort/limit) privately —
	// the pre-PR-4 behavior. Results are unaffected; benchmarks use it to
	// measure what sharing past the merge boundary buys.
	NoSharedMerge bool
	// Tenant attributes the query to a named tenant for quota accounting
	// and admission control (SQL: REGISTER QUERY name TENANT t AS ...).
	// Registration fails with a *QuotaError when the tenant is at its
	// MaxQueries quota; DROP QUERY releases the slot. Empty means
	// untenanted — no quotas apply.
	Tenant string
}

// Query is a registered continuous query handle.
type Query struct {
	name string
	eng  *Engine
	// fac is the query's tail and its membership in its execution group,
	// which it reports once joined (fac.Group).
	fac    *factory.Factory
	out    *emitter.Channel // nil with NoChannel
	tenant string           // "" when untenanted
	// ingestStreams are the input streams this query's tenant claims for
	// ingest gating (tenant.go bindIngest); released on Stop.
	ingestStreams []string
	stopped       bool // guarded by eng.mu
}

// Register compiles and registers a continuous query from SQL text:
//
//	q, err := eng.Register("hot", "SELECT ... FROM s [SIZE 100 SLIDE 10] ...", nil)
//
// The query starts consuming stream data immediately. Queries over a
// single windowed stream join the stream's shared execution group (see
// ARCHITECTURE.md, "Query groups"): the stream is drained and sliced once
// for all member queries and only each query's private operator tail runs
// per member. Every other query runs the same way in a private group.
func (e *Engine) Register(name, selectSQL string, opts *RegisterOptions) (*Query, error) {
	o := RegisterOptions{}
	if opts != nil {
		o = *opts
	}
	// sel is nil: registerQuery parses lazily, so a plan-cache hit skips
	// the parser along with bind/optimize/decompose — re-registering a
	// known text is pure wiring.
	return e.register(name, selectSQL, nil, o.Mode, &o)
}

// planEntry is one plan-cache value: the compiled artifacts of a
// registration that every later registration of the same SQL text (same
// requested mode, same catalog generation) can reuse verbatim. Plans and
// decompositions are immutable after optimization — factories key private
// state on scan-node identity but never write through it — so entries are
// shared by reference across any number of live queries.
type planEntry struct {
	opt    plan.Node
	decomp *plan.Decomposition
	fmode  factory.Mode
}

func (e *Engine) planCacheGet(key string) (*planEntry, bool) {
	e.planMu.Lock()
	ent, ok := e.planCache[key]
	e.planMu.Unlock()
	if ok {
		e.planHits.Add(1)
	} else {
		e.planMiss.Add(1)
	}
	return ent, ok
}

func (e *Engine) planCachePut(key string, ent *planEntry) {
	e.planMu.Lock()
	e.planCache[key] = ent
	e.planMu.Unlock()
}

// PlanCacheStats reports the plan cache's lifetime hit/miss counters and
// current entry count. Misses count registrations that compiled from
// scratch (including every registration via Exec, which has no stable SQL
// text to key on — those bypass the cache).
func (e *Engine) PlanCacheStats() (hits, misses int64, entries int) {
	e.planMu.Lock()
	entries = len(e.planCache)
	e.planMu.Unlock()
	return e.planHits.Load(), e.planMiss.Load(), entries
}

// RegisterOption adjusts one RegisterQuery call; each sets one field of
// RegisterOptions, so the two registration surfaces stay equivalent.
type RegisterOption func(*RegisterOptions)

// WithMode selects the execution strategy (default ModeAuto).
func WithMode(m Mode) RegisterOption {
	return func(o *RegisterOptions) { o.Mode = m }
}

// WithTenant attributes the query to a named tenant for quota accounting
// and admission control.
func WithTenant(tenant string) RegisterOption {
	return func(o *RegisterOptions) { o.Tenant = tenant }
}

// Isolated opts the query out of shared multi-query execution.
func Isolated() RegisterOption {
	return func(o *RegisterOptions) { o.Isolated = true }
}

// NoMemo keeps a grouped query out of its group's shared operator DAG
// (implies NoSharedMerge); results are unaffected.
func NoMemo() RegisterOption {
	return func(o *RegisterOptions) { o.NoMemo = true }
}

// NoSharedMerge keeps a grouped query out of its group's merge classes
// and post-merge trie; results are unaffected.
func NoSharedMerge() RegisterOption {
	return func(o *RegisterOptions) { o.NoSharedMerge = true }
}

// NoChannel suppresses the query's Out channel.
func NoChannel() RegisterOption {
	return func(o *RegisterOptions) { o.NoChannel = true }
}

// RegisterQuery is Register with functional options — the preferred
// registration surface:
//
//	q, err := eng.RegisterQuery("hot", sql)                                  // defaults
//	q, err := eng.RegisterQuery("hot", sql, datacell.Isolated())             // opt out of sharing
//	q, err := eng.RegisterQuery("hot", sql, datacell.WithTenant("acme"),
//	    datacell.WithMode(datacell.ModeIncremental))
//
// Both surfaces share the plan cache, tenant admission, and every
// execution path; RegisterOptions remains for callers that build options
// programmatically.
func (e *Engine) RegisterQuery(name, selectSQL string, opts ...RegisterOption) (*Query, error) {
	o := RegisterOptions{}
	for _, opt := range opts {
		opt(&o)
	}
	return e.Register(name, selectSQL, &o)
}

// register wraps registerQuery with tenant admission control: the slot
// is reserved before any planning work (so concurrent registrations
// cannot overshoot MaxQueries) and released again on every failure path.
// src is the query's SQL text for plan-cache keying ("" bypasses the
// cache — the Exec path, which holds only the parsed statement).
func (e *Engine) register(name, src string, sel *sql.SelectStmt, mode Mode, opts *RegisterOptions) (*Query, error) {
	var ts *tenantState
	if opts != nil && opts.Tenant != "" {
		ts = e.tenantState(opts.Tenant)
		if err := ts.admitQuery(); err != nil {
			return nil, err
		}
	}
	q, err := e.registerQuery(name, src, sel, mode, opts)
	if ts != nil {
		if err != nil {
			ts.releaseSlot("")
		} else {
			q.tenant = opts.Tenant
			ts.attachQuery(q)
			// With the query live, its input streams ingest on the
			// tenant's account (receptor/INSERT gating, tenant.go).
			e.bindIngest(q)
		}
	}
	return q, err
}

func (e *Engine) registerQuery(name, src string, sel *sql.SelectStmt, mode Mode, opts *RegisterOptions) (*Query, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("datacell: engine closed")
	}
	if _, dup := e.queries[name]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("datacell: query %q already registered", name)
	}
	e.mu.Unlock()

	// Plan cache: identical SQL text under an unchanged catalog resolves
	// to the same bound, optimized, decomposed plan — skip recompiling.
	// The catalog generation in the key invalidates on any DDL (names
	// could bind differently); the requested mode is in the key because
	// the mode switch below changes which artifacts get built.
	var cacheKey string
	var ent *planEntry
	if src != "" {
		cacheKey = fmt.Sprintf("%d|%d|%s", e.cat.Gen(), mode, src)
		ent, _ = e.planCacheGet(cacheKey)
	}
	if ent == nil {
		if sel == nil {
			stmt, err := sql.Parse(src)
			if err != nil {
				return nil, err
			}
			s, ok := stmt.(*sql.SelectStmt)
			if !ok {
				return nil, fmt.Errorf("datacell: Register expects a SELECT, got %T", stmt)
			}
			sel = s
		}
		bound, err := plan.Bind(e.cat, sel)
		if err != nil {
			return nil, err
		}
		opt := plan.Optimize(bound)

		// Resolve the execution mode: the paper's mode 2 (incremental)
		// when the plan decomposes, mode 1 (re-evaluation) otherwise. A
		// forced re-evaluation join whose plan decomposes keeps its
		// decomposition, which selects the pair-cache tail: it certifies
		// that the recompute equals the merge of cached basic-window pairs,
		// and shared, isolated and fabric-routed registrations of the same
		// join then order joined rows identically.
		ent = &planEntry{opt: opt, fmode: factory.Reeval}
		d, err := plan.Decompose(opt)
		switch {
		case err != nil && mode == ModeIncremental:
			return nil, fmt.Errorf("datacell: incremental mode: %w", err)
		case err != nil:
		case mode != ModeReeval:
			ent.decomp, ent.fmode = d, factory.Incremental
		case d.Join != nil:
			ent.decomp = d
		}
		if cacheKey != "" {
			e.planCachePut(cacheKey, ent)
		}
	}
	var emitters emitter.Multi
	var outCh *emitter.Channel
	if opts == nil || !opts.NoChannel {
		outCh = emitter.NewChannel(e.buf)
		emitters = append(emitters, outCh)
	}
	if opts != nil && opts.Emitter != nil {
		emitters = append(emitters, opts.Emitter)
	}
	var emit emitter.Emitter = emitters
	if len(emitters) == 0 {
		emit = emitter.Null{}
	}
	decomp := ent.decomp
	fac := factory.New(factory.Config{
		Name:          name,
		Full:          ent.opt,
		Decomp:        decomp,
		Mode:          ent.fmode,
		NoMemo:        opts != nil && opts.NoMemo,
		NoSharedMerge: opts != nil && opts.NoSharedMerge,
		Emit:          emit,
		Now:           e.now,
	})
	// The tail reads the plan's stream scans, one input each, and so does
	// its group, one side each. The factory holds nothing before it joins a
	// group, so a plan refused below just drops it.
	scans := fac.Scans()
	if len(scans) == 0 {
		return nil, fmt.Errorf("datacell: %q reads no stream; use Exec for one-time queries", name)
	}

	// Every query runs as a member of an execution group. A single
	// windowed stream scan joins the stream's shared group, and a
	// decomposable stream⋈stream join the stream pair's, unless the caller
	// opted out: their basic windows are a function of the stream (and
	// the pair's canonical interleaving) alone. Re-evaluation joins share
	// too when their plan decomposes: the decomposition certifies that the
	// full-window recompute equals the merge of cached basic-window pairs.
	// Every other query — ISOLATED, a non-windowed scan, a multi-stream
	// read that does not decompose — is the only member of a private
	// group, one side per stream scan of its plan, under a nonce-unique
	// key.
	shareable := len(scans) == 1 && scans[0].Window != nil || decomp != nil && decomp.Join != nil
	windowed := 0
	for _, sc := range scans {
		if sc.Window != nil {
			windowed++
		}
		// Streams exported to a shard fabric live in worker processes: a
		// consumer must route through a group whose windowed front ends the
		// fabric can feed. Plans no such shape fits would need local basket
		// cursors, which see nothing.
		if sc.Stream.RemoteTag() != "" && !shareable {
			return nil, fmt.Errorf("datacell: stream %q is exported to the shard fabric; only windowed stream scans and decomposable stream joins can consume it", sc.Stream.Name)
		}
	}
	if windowed != 0 && windowed != len(scans) {
		return nil, fmt.Errorf("datacell: %q mixes windowed and non-windowed streams; window every stream or none", name)
	}
	keySuffix := ""
	if !shareable || (opts != nil && opts.Isolated) {
		keySuffix = fmt.Sprintf("!iso#%d", e.groupSeq.Add(1))
	}

	q := &Query{name: name, eng: e, fac: fac, out: outCh}
	e.mu.Lock()
	if _, dup := e.queries[name]; dup {
		e.mu.Unlock()
		fac.Stop()
		return nil, fmt.Errorf("datacell: query %q already registered", name)
	}
	e.queries[name] = q
	e.mu.Unlock()

	if err := e.joinGroup(q, scans, keySuffix); err != nil {
		e.mu.Lock()
		delete(e.queries, q.name)
		e.mu.Unlock()
		fac.Stop()
		return nil, err
	}
	return q, nil
}

// joinGroup registers q as a member of the execution group over scans —
// its stream's, or for a stream⋈stream join its stream pair's, shared
// group, or a private one — creating the group — front ends, operator
// DAGs, merge classes, pair caches, and one scheduler transition per
// (side, shard) — when q is the first consumer with this group key. The member's private tail runs as
// its own transition under the query's name, so pause/resume/drop of one
// member never stalls its siblings or the shared shard firings.
//
// A side whose stream is exported to the shard fabric is remote-fed
// instead: the attached fabric supplies a slicing spec (a join's spec key
// carries a #L / #R suffix so the two sides of one group stay distinct on
// the wire), the worker processes run that side's shard front ends, and
// sealed epoch fragments arrive through Group.OfferRemote — so the side
// has no local shard transitions or append subscriptions. Pairing, and
// the join itself, stay here, where the members' shared pair caches live;
// the sides are independent, so a remote stream can join a local one.
//
// keySuffix, when non-empty, privatizes the group: q gets a group of its
// own under a nonce-unique key instead of sharing one.
func (e *Engine) joinGroup(q *Query, scans []*plan.ScanStream, keySuffix string) error {
	key := plan.GroupKeyOf(scans) + keySuffix
	var createErr error
	gv, n := e.cat.JoinGroup(key, func() any {
		// The scheduler group name carries a nonce: a new group created
		// while a same-keyed predecessor is still tearing down must not
		// share transition names with it.
		gname := fmt.Sprintf("group:%s#%d", key, e.groupSeq.Add(1))
		cfg := factory.GroupConfig{
			Key:          key,
			SchedGroup:   gname,
			Scans:        scans,
			Remote:       make([]*factory.RemoteSource, len(scans)),
			NotifyMember: func(query string) { e.sched.NotifyGroup(query) },
			NotifyShards: func() { e.sched.NotifyGroup(gname) },
		}
		specs := make([]*FabricSpec, len(scans))
		for side, sc := range scans {
			if sc.Stream.RemoteTag() == "" {
				continue
			}
			fab := e.fabricHandler()
			if fab == nil {
				createErr = fmt.Errorf("datacell: stream %q is exported to the shard fabric but no fabric is attached", sc.Stream.Name)
			} else {
				specKey := key
				if len(scans) == 2 {
					specKey = fmt.Sprintf("%s#%c", key, "LR"[side])
				}
				specs[side], createErr = fab.AddSpec(sc.Stream.Name, specKey, sc.Window, sc.Out)
			}
			if createErr != nil {
				for _, spec := range specs[:side] {
					if spec != nil {
						spec.Drop()
					}
				}
				return nil
			}
			cfg.Remote[side] = &factory.RemoteSource{
				Shards: specs[side].Shards,
				Close:  specs[side].Drop,
			}
		}
		g := factory.NewGroup(cfg)
		// Join the creating member before the shard transitions (or the
		// fabric feeds) go live so no basic window can seal against an
		// empty member list.
		g.Join(q.fac)
		for side, spec := range specs {
			side := side
			if spec != nil {
				spec.Attach(func(shard int, frags []*window.Frag, wm int64) {
					g.OfferRemote(side, shard, frags, wm)
				})
				continue
			}
			for sh := 0; sh < g.NumShards(side); sh++ {
				sh := sh
				name := fmt.Sprintf("%s/%d", gname, sh)
				if len(scans) > 1 {
					name = fmt.Sprintf("%s/%d.%d", gname, side, sh)
				}
				e.sched.Add(&scheduler.Transition{
					Name:     name,
					Group:    gname,
					Affinity: sh,
					Ready:    func() bool { return g.ShardReady(side, sh) },
					Fire:     func() { g.FireShard(side, sh) },
				})
			}
		}
		g.SubscribeAppend()
		return g
	})
	if createErr != nil || gv == nil {
		e.cat.LeaveGroup(key)
		if createErr == nil {
			createErr = fmt.Errorf("datacell: group %q failed to initialize", key)
		}
		return createErr
	}
	g := gv.(*factory.Group)
	if q.fac.Group() == nil {
		g.Join(q.fac)
	}

	// The member's private tail: one transition, grouped under the query
	// name. Affinity n spreads sibling tails across workers.
	e.sched.Add(&scheduler.Transition{
		Name:     q.name + "/tail",
		Group:    q.name,
		Affinity: n,
		Ready:    q.fac.Ready,
		Fire:     func() { q.fac.Fire() },
	})
	// Cover anything sealed (or appended) during setup.
	e.sched.NotifyGroup(g.SchedGroup())
	e.sched.NotifyGroup(q.name)
	return nil
}

// Name reports the query name.
func (q *Query) Name() string { return q.name }

// Mode reports the resolved execution mode ("incremental" or "reeval").
func (q *Query) Mode() string { return q.fac.Stats().Mode }

// Tenant reports the tenant the query is attributed to ("" when
// untenanted).
func (q *Query) Tenant() string { return q.tenant }

// GroupKey reports the execution group the query belongs to; a private
// group's key ends in a nonce-unique "!iso#n".
func (q *Query) GroupKey() string { return q.fac.Group().Key() }

// Out is the result channel (nil when registered with NoChannel). Each
// element is one evaluation's result set with metadata.
func (q *Query) Out() <-chan emitter.Result {
	if q.out == nil {
		return nil
	}
	return q.out.Out()
}

// Dropped reports results discarded because the Out channel was full.
func (q *Query) Dropped() int64 {
	if q.out == nil {
		return 0
	}
	return q.out.Dropped()
}

// Pause suspends the query: its group keeps draining and slicing its
// streams, sealed basic windows (or batches) accumulate in the group's
// delivery log past the member's cursor, and they are processed on Resume
// (demo §4, Pause and Resume).
// Pausing one member of a shared group does not stall its siblings.
func (q *Query) Pause() { q.eng.sched.Pause(q.name) }

// Resume reactivates a paused query.
func (q *Query) Resume() { q.eng.sched.Resume(q.name) }

// Paused reports whether the query is paused.
func (q *Query) Paused() bool { return q.eng.sched.Paused(q.name) }

// Stop removes the query from the network: its tail transition is removed
// (waiting out any in-flight firing) and its factory stops, leaving its
// execution group, whose shard transitions, basket cursors and
// subscriptions are torn down when it was the last member. The windows
// the group logged for the query but it has not read yet — the log
// entries [cursor, head), e.g. a paused query's backlog — are dropped
// unevaluated, as are tuples buffered in the group's open epochs when it
// was the last member. Its emitters close.
func (q *Query) Stop() {
	e := q.eng
	e.mu.Lock()
	if q.stopped {
		e.mu.Unlock()
		return
	}
	q.stopped = true
	e.mu.Unlock()

	// Release the tenant's quota slot first: a rejected sibling can
	// re-register the moment the drop is initiated. The stopped guard
	// above makes this exactly-once.
	if q.tenant != "" {
		e.tenantState(q.tenant).releaseSlot(q.name)
		e.releaseIngest(q)
	}

	e.sched.RemoveWait(q.name)
	g := q.fac.Group()
	last := false
	if g != nil {
		// Last member: retire the group's shard transitions before the
		// factory leaves, then release the group's cursors and
		// subscriptions.
		if _, remaining := e.cat.LeaveGroup(g.Key()); remaining == 0 {
			e.sched.RemoveWait(g.SchedGroup())
			last = true
		}
	}
	q.fac.Stop()
	if last {
		g.Close()
	}
	// The name is released only now: a concurrent Register of the same
	// name during teardown fails as a duplicate instead of racing this
	// removal (its same-named transitions would be swept by the
	// RemoveWait above).
	e.mu.Lock()
	delete(e.queries, q.name)
	e.mu.Unlock()
}

// Stats returns the query's counters (firings, tuples, latencies).
func (q *Query) Stats() factory.Stats { return q.fac.Stats() }

// RecentLatencies returns the response times (µs) of the newest
// evaluations, oldest first — the sample behind the p99 gauge on /metrics
// and the multi-tenant harness's seal-latency percentile.
func (q *Query) RecentLatencies() []int64 { return q.fac.RecentLatencies() }

// PlanString renders the optimized one-time plan — the "normal" plan shape
// of the demo's plan inspection.
func (q *Query) PlanString() string { return q.fac.PlanString() }

// ContinuousPlanString renders the continuous plan: the split/merge
// decomposition for incremental queries, or the re-evaluation wrapper.
func (q *Query) ContinuousPlanString() string { return q.fac.ContinuousPlanString() }
