package datacell

import (
	"strconv"

	"datacell/internal/metrics"
	"datacell/internal/monitor"
)

// EngineMetricDescs declares every metric family the engine collector
// exports: basket occupancy and throughput, per-query evaluation
// counters and latencies (including a p99 over the newest evaluations),
// shared-group memo/merge/post effectiveness, scheduler depths, and
// per-tenant accounting. docs/METRICS.md is the rendered reference; a
// unit test keeps the two in sync.
var EngineMetricDescs = []metrics.Desc{
	// Baskets.
	{Name: "datacell_basket_occupancy_tuples", Type: metrics.Gauge,
		Help: "Tuples currently buffered in the stream's basket.", Labels: []string{"stream"}},
	{Name: "datacell_basket_appended_tuples_total", Type: metrics.Counter,
		Help: "Tuples ever appended to the stream's basket.", Labels: []string{"stream"}},
	{Name: "datacell_basket_dropped_tuples_total", Type: metrics.Counter,
		Help: "Tuples dropped from the basket after full consumption.", Labels: []string{"stream"}},
	{Name: "datacell_basket_consumers", Type: metrics.Gauge,
		Help: "Registered basket consumers (query cursors).", Labels: []string{"stream"}},
	{Name: "datacell_basket_shards", Type: metrics.Gauge,
		Help: "Shard count of the stream's basket container.", Labels: []string{"stream"}},
	{Name: "datacell_basket_segments_total", Type: metrics.Counter,
		Help: "Storage segments ever started in the stream's basket, summed over shards.", Labels: []string{"stream"}},
	{Name: "datacell_basket_segments_reused_total", Type: metrics.Counter,
		Help: "Segments whose columns reuse storage released by consumed segments, summed over shards.", Labels: []string{"stream"}},

	// Continuous queries.
	{Name: "datacell_query_evals_total", Type: metrics.Counter,
		Help: "Window/batch evaluations (results emitted).", Labels: []string{"query"}},
	{Name: "datacell_query_tuples_in_total", Type: metrics.Counter,
		Help: "Tuples consumed by the query.", Labels: []string{"query"}},
	{Name: "datacell_query_rows_out_total", Type: metrics.Counter,
		Help: "Result rows emitted by the query.", Labels: []string{"query"}},
	{Name: "datacell_query_busy_usec_total", Type: metrics.Counter,
		Help: "Wall time of the query's tail activations, each truncated to whole microseconds.", Labels: []string{"query"}},
	{Name: "datacell_query_last_latency_usec", Type: metrics.Gauge,
		Help: "Response time of the newest result (microseconds).", Labels: []string{"query"}},
	{Name: "datacell_query_max_latency_usec", Type: metrics.Gauge,
		Help: "Worst response time observed (microseconds).", Labels: []string{"query"}},
	{Name: "datacell_query_p99_latency_usec", Type: metrics.Gauge,
		Help: "99th-percentile response time over the newest evaluations (microseconds).", Labels: []string{"query"}},
	{Name: "datacell_query_results_pending", Type: metrics.Gauge,
		Help: "Results sitting unconsumed in the query's Out channel.", Labels: []string{"query"}},
	{Name: "datacell_query_results_dropped_total", Type: metrics.Counter,
		Help: "Results discarded because the Out channel was full.", Labels: []string{"query"}},

	// Shared execution groups.
	{Name: "datacell_group_members", Type: metrics.Gauge,
		Help: "Member queries sharing the group's slice.", Labels: []string{"group"}},
	{Name: "datacell_group_shards", Type: metrics.Gauge,
		Help: "Shared firing units of the group (both sides for joins).", Labels: []string{"group"}},
	{Name: "datacell_group_windows_out_total", Type: metrics.Counter,
		Help: "Basic windows fanned out to members.", Labels: []string{"group"}},
	{Name: "datacell_group_live_buffers", Type: metrics.Gauge,
		Help: "Sealed window buffers still referenced by a member.", Labels: []string{"group"}},
	{Name: "datacell_group_dag_nodes", Type: metrics.Gauge,
		Help: "Distinct operator nodes in the group's shared operator DAG.", Labels: []string{"group"}},
	{Name: "datacell_group_memo_hits_total", Type: metrics.Counter,
		Help: "Operator evaluations served from a sibling's memoized output.", Labels: []string{"group"}},
	{Name: "datacell_group_memo_misses_total", Type: metrics.Counter,
		Help: "Operator evaluations actually computed in the shared DAG.", Labels: []string{"group"}},
	{Name: "datacell_group_memo_hit_ratio", Type: metrics.Gauge,
		Help: "DAG memo hit rate in [0,1].", Labels: []string{"group"}},
	{Name: "datacell_group_merge_classes", Type: metrics.Gauge,
		Help: "Merge classes: member sets whose full-window merges are byte-identical.", Labels: []string{"group"}},
	{Name: "datacell_group_merge_hits_total", Type: metrics.Counter,
		Help: "Full-window merges served from a class sibling's evaluation.", Labels: []string{"group"}},
	{Name: "datacell_group_merge_misses_total", Type: metrics.Counter,
		Help: "Full-window merges actually computed.", Labels: []string{"group"}},
	{Name: "datacell_group_merge_hit_ratio", Type: metrics.Gauge,
		Help: "Shared-merge hit rate in [0,1].", Labels: []string{"group"}},
	{Name: "datacell_group_post_nodes", Type: metrics.Gauge,
		Help: "Distinct post-merge fragment operators in the group's trie.", Labels: []string{"group"}},
	{Name: "datacell_group_post_hits_total", Type: metrics.Counter,
		Help: "Post-merge chain requests served whole from the trie's memo.", Labels: []string{"group"}},
	{Name: "datacell_group_post_misses_total", Type: metrics.Counter,
		Help: "Post-merge operator evaluations, one per node, memoized or private.", Labels: []string{"group"}},
	{Name: "datacell_group_post_hit_ratio", Type: metrics.Gauge,
		Help: "Post-merge trie memo hit rate in [0,1].", Labels: []string{"group"}},
	{Name: "datacell_group_pair_caches", Type: metrics.Gauge,
		Help: "Shared join-pair caches (one per distinct join fingerprint).", Labels: []string{"group"}},
	{Name: "datacell_group_cached_pairs", Type: metrics.Gauge,
		Help: "Live basic-window join-pair cache entries.", Labels: []string{"group"}},
	{Name: "datacell_group_pairs_computed_total", Type: metrics.Counter,
		Help: "Basic-window join pairs ever computed (misses of the pair cache).", Labels: []string{"group"}},

	// Scheduler.
	{Name: "datacell_scheduler_workers", Type: metrics.Gauge,
		Help: "Worker-pool size."},
	{Name: "datacell_scheduler_transitions", Type: metrics.Gauge,
		Help: "Registered Petri-net transitions."},
	{Name: "datacell_scheduler_transition_groups", Type: metrics.Gauge,
		Help: "Registered transition groups (queries and shared groups)."},
	{Name: "datacell_scheduler_queued", Type: metrics.Gauge,
		Help: "Transitions sitting in ready queues."},
	{Name: "datacell_scheduler_running", Type: metrics.Gauge,
		Help: "Transitions currently inside Fire."},
	{Name: "datacell_scheduler_fired_total", Type: metrics.Counter,
		Help: "Cumulative transition firings since start."},
	{Name: "datacell_scheduler_queue_depth", Type: metrics.Gauge,
		Help: "Per-worker ready-queue length.", Labels: []string{"worker"}},

	// Tenants.
	{Name: "datacell_tenant_queries", Type: metrics.Gauge,
		Help: "Registered queries (plus in-flight reservations) of the tenant.", Labels: []string{"tenant"}},
	{Name: "datacell_tenant_lag_windows", Type: metrics.Gauge,
		Help: "Unconsumed results of the tenant's slowest consumer.", Labels: []string{"tenant"}},
	{Name: "datacell_tenant_rejected_queries_total", Type: metrics.Counter,
		Help: "Registrations refused by admission control.", Labels: []string{"tenant"}},
	{Name: "datacell_tenant_appended_rows_total", Type: metrics.Counter,
		Help: "Rows ingested through the tenant append path.", Labels: []string{"tenant"}},
	{Name: "datacell_tenant_throttled_appends_total", Type: metrics.Counter,
		Help: "Appends that blocked on the rate limiter or lag backpressure.", Labels: []string{"tenant"}},
	{Name: "datacell_tenant_throttle_wait_usec_total", Type: metrics.Counter,
		Help: "Total time throttled appends waited (microseconds).", Labels: []string{"tenant"}},
}

// MetricsCollector adapts the engine's live counters into a metrics
// source for a Registry. Collection is a read-only snapshot — safe to
// scrape while the network fires.
func (e *Engine) MetricsCollector() metrics.Collector {
	return metrics.CollectorFunc{Descs: EngineMetricDescs, Fn: e.collectMetrics}
}

func (e *Engine) collectMetrics(emit func(metrics.Metric)) {
	g1 := func(name, label string, v float64) {
		emit(metrics.Metric{Name: name, LabelValues: []string{label}, Value: v})
	}

	st := e.Stats()
	for _, b := range st.Baskets {
		g1("datacell_basket_occupancy_tuples", b.Name, float64(b.Len))
		g1("datacell_basket_appended_tuples_total", b.Name, float64(b.TotalIn))
		g1("datacell_basket_dropped_tuples_total", b.Name, float64(b.TotalDrop))
		g1("datacell_basket_consumers", b.Name, float64(b.Consumers))
		g1("datacell_basket_shards", b.Name, float64(b.Shards))
		g1("datacell_basket_segments_total", b.Name, float64(b.Segments))
		g1("datacell_basket_segments_reused_total", b.Name, float64(b.Reused))
	}

	e.mu.Lock()
	qs := make([]*Query, 0, len(e.queries))
	for _, q := range e.queries {
		qs = append(qs, q)
	}
	e.mu.Unlock()
	for _, q := range qs {
		s := q.Stats()
		g1("datacell_query_evals_total", s.Name, float64(s.Evals))
		g1("datacell_query_tuples_in_total", s.Name, float64(s.TuplesIn))
		g1("datacell_query_rows_out_total", s.Name, float64(s.RowsOut))
		g1("datacell_query_busy_usec_total", s.Name, float64(s.BusyUsec))
		g1("datacell_query_last_latency_usec", s.Name, float64(s.LastLatency))
		g1("datacell_query_max_latency_usec", s.Name, float64(s.MaxLatency))
		g1("datacell_query_p99_latency_usec", s.Name,
			float64(monitor.Percentile(q.fac.RecentLatencies(), 99)))
		if q.out != nil {
			g1("datacell_query_results_pending", s.Name, float64(q.out.Pending()))
			g1("datacell_query_results_dropped_total", s.Name, float64(q.out.Dropped()))
		}
	}

	for _, gi := range e.Groups() {
		g1("datacell_group_members", gi.Key, float64(gi.Members))
		g1("datacell_group_shards", gi.Key, float64(gi.Shards))
		g1("datacell_group_windows_out_total", gi.Key, float64(gi.WindowsOut))
		g1("datacell_group_live_buffers", gi.Key, float64(gi.LiveBufs))
		g1("datacell_group_dag_nodes", gi.Key, float64(gi.DagNodes))
		g1("datacell_group_memo_hits_total", gi.Key, float64(gi.MemoHits))
		g1("datacell_group_memo_misses_total", gi.Key, float64(gi.MemoMisses))
		g1("datacell_group_memo_hit_ratio", gi.Key, gi.MemoHitRate())
		g1("datacell_group_merge_classes", gi.Key, float64(gi.MergeClasses))
		g1("datacell_group_merge_hits_total", gi.Key, float64(gi.MergeHits))
		g1("datacell_group_merge_misses_total", gi.Key, float64(gi.MergeMisses))
		g1("datacell_group_merge_hit_ratio", gi.Key, gi.MergeHitRate())
		g1("datacell_group_post_nodes", gi.Key, float64(gi.PostNodes))
		g1("datacell_group_post_hits_total", gi.Key, float64(gi.PostHits))
		g1("datacell_group_post_misses_total", gi.Key, float64(gi.PostMisses))
		g1("datacell_group_post_hit_ratio", gi.Key, gi.PostHitRate())
		g1("datacell_group_pair_caches", gi.Key, float64(gi.PairCaches))
		g1("datacell_group_cached_pairs", gi.Key, float64(gi.CachedPairs))
		g1("datacell_group_pairs_computed_total", gi.Key, float64(gi.PairsComputed))
	}

	ss := e.sched.Stats()
	g0 := func(name string, v float64) { emit(metrics.Metric{Name: name, Value: v}) }
	g0("datacell_scheduler_workers", float64(ss.Workers))
	g0("datacell_scheduler_transitions", float64(ss.Transitions))
	g0("datacell_scheduler_transition_groups", float64(ss.Groups))
	g0("datacell_scheduler_queued", float64(ss.Queued))
	g0("datacell_scheduler_running", float64(ss.Running))
	g0("datacell_scheduler_fired_total", float64(ss.Fired))
	for i, d := range ss.QueueDepths {
		g1("datacell_scheduler_queue_depth", strconv.Itoa(i), float64(d))
	}

	for _, t := range e.TenantStats() {
		g1("datacell_tenant_queries", t.Name, float64(t.Queries))
		g1("datacell_tenant_lag_windows", t.Name, float64(t.LagWindows))
		g1("datacell_tenant_rejected_queries_total", t.Name, float64(t.RejectedQueries))
		g1("datacell_tenant_appended_rows_total", t.Name, float64(t.AppendedRows))
		g1("datacell_tenant_throttled_appends_total", t.Name, float64(t.ThrottledAppends))
		g1("datacell_tenant_throttle_wait_usec_total", t.Name, float64(t.ThrottleWaitUsec))
	}
}
