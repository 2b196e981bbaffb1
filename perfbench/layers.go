package main

import (
	"time"

	"datacell"
	"datacell/internal/bat"
	"datacell/internal/catalog"
	"datacell/internal/kernel"
	"datacell/internal/metrics"
	"datacell/internal/plan"
	"datacell/internal/sql"
)

// Per-layer readings. Each is taken from the benchmark's side: spans
// around calls into a layer's exported functions, or its public counters.

// layerState holds the counters read at the end of a traced run.
type layerState struct {
	planHits, planMisses            int64
	memoH, memoM, mergeH, mergeM    int64
	postH, postM                    int64
	shardSkew                       float64
	dropped                         int64
	engineLat                       []float64
	wireB, wirePlainB, subs, batchs float64
}

// metricValue reads one family's samples, summed over labels.
func metricValue(c metrics.Collector, names ...string) map[string]float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	c.Collect(func(m metrics.Metric) {
		if want[m.Name] {
			out[m.Name] += m.Value
		}
	})
	return out
}

func schedulerStats(eng *datacell.Engine) (queued, fired float64) {
	v := metricValue(eng.MetricsCollector(), "datacell_scheduler_queued", "datacell_scheduler_fired_total")
	return v["datacell_scheduler_queued"], v["datacell_scheduler_fired_total"]
}

// sampleLayers takes the paced phase's periodic layer readings.
func (r *runner) sampleLayers() {
	p := &r.paced
	if b, err := r.s.eng.Basket(r.stream()); err == nil {
		p.basketMax = max(p.basketMax, int64(b.Stats().Len))
	}
	q, _ := schedulerStats(r.s.eng)
	p.queuedMax = max(p.queuedMax, q)
	var live int64
	for _, g := range r.s.eng.Groups() {
		live += g.LiveBufs
	}
	p.liveBufsMax = max(p.liveBufsMax, live)
}

// finalLayerSample reads the cumulative counters once every result is in.
func (r *runner) finalLayerSample() {
	if r.tr == nil {
		return
	}
	ls := &r.layers
	ls.planHits, ls.planMisses, _ = r.s.eng.PlanCacheStats()
	for _, g := range r.s.eng.Groups() {
		ls.memoH += g.MemoHits
		ls.memoM += g.MemoMisses
		ls.mergeH += g.MergeHits
		ls.mergeM += g.MergeMisses
		ls.postH += g.PostHits
		ls.postM += g.PostMisses
	}
	if b, err := r.s.eng.Basket(r.stream()); err == nil {
		var sum, top float64
		st := b.ShardStats()
		for _, s := range st {
			sum += float64(s.TotalIn)
			top = max(top, float64(s.TotalIn))
		}
		if sum > 0 {
			ls.shardSkew = top / (sum / float64(len(st)))
		}
	}
	for _, q := range r.s.qs {
		ls.dropped += q.Dropped()
		for _, l := range q.RecentLatencies() {
			ls.engineLat = append(ls.engineLat, float64(l))
		}
	}
	if r.s.coord != nil {
		v := metricValue(r.s.coord.MetricsCollector(),
			"datacell_fabric_wire_bytes_total", "datacell_fabric_wire_plain_bytes_total",
			"datacell_fabric_batch_subframes_total", "datacell_fabric_batch_frames_total")
		ls.wireB, ls.wirePlainB = v["datacell_fabric_wire_bytes_total"], v["datacell_fabric_wire_plain_bytes_total"]
		ls.subs, ls.batchs = v["datacell_fabric_batch_subframes_total"], v["datacell_fabric_batch_frames_total"]
	}
}

// reconnects counts fabric worker re-attachments after the first one; a
// healthy run has none.
func (s *sut) reconnects() int64 {
	if s.coord == nil {
		return 0
	}
	v := metricValue(s.coord.MetricsCollector(), "datacell_fabric_worker_reconnects_total")
	// The counter includes each worker's first attach.
	return int64(v["datacell_fabric_worker_reconnects_total"]) - int64(s.coord.Workers())
}

// proxies are offline per-row costs of single layers, measured on the
// workload's own query texts and input chunks.
type proxies struct {
	parseUs, compileUs      float64
	kernelNsRow             float64
	marshalNsRow, unmarshal float64
}

const proxyRounds = 5

// measureProxies times sql.Parse, plan Bind/Optimize/Decompose, a fused
// kernel run over one basic window, and the chunk codec, each as the
// median of proxyRounds passes.
func (r *runner) measureProxies() (proxies, error) {
	var px proxies
	cat := catalog.New()
	schema := r.w.source(r.seed).next().Schema
	if _, err := cat.CreateStream(r.stream(), schema); err != nil {
		return px, err
	}
	chunks := make([]*bat.Chunk, 8)
	src := r.w.source(r.seed)
	rows := 0
	for i := range chunks {
		chunks[i] = src.next()
		rows += chunks[i].Rows()
	}
	var parse, compile, kern, marsh, unmarsh []float64
	for round := 0; round < proxyRounds; round++ {
		var pNs, cNs, kNs, kRows int64
		var decomps []*plan.Decomposition
		for _, text := range r.w.queries {
			sp := r.tr.begin("sql.Parse", -1)
			t0 := time.Now()
			stmt, err := sql.Parse(text)
			pNs += time.Since(t0).Nanoseconds()
			r.tr.end(sp)
			if err != nil {
				return px, err
			}
			sp = r.tr.begin("plan.Compile", -1)
			t0 = time.Now()
			bound, err := plan.Bind(cat, stmt.(*sql.SelectStmt))
			var d *plan.Decomposition
			if err == nil {
				d, err = plan.Decompose(plan.Optimize(bound))
			}
			cNs += time.Since(t0).Nanoseconds()
			r.tr.end(sp)
			if err != nil {
				return px, err
			}
			decomps = append(decomps, d)
		}
		for _, d := range decomps {
			sp := r.tr.begin("kernel.Run", -1)
			t0 := time.Now()
			if kp, ok := kernel.Compile(d, 0, d.Agg, false); ok {
				kp.Run(chunks[round%len(chunks)])
				kRows += int64(chunks[round%len(chunks)].Rows())
			}
			kNs += time.Since(t0).Nanoseconds()
			r.tr.end(sp)
		}
		parse = append(parse, float64(pNs)/1e3/float64(len(r.w.queries)))
		compile = append(compile, float64(cNs)/1e3/float64(len(r.w.queries)))
		if kRows > 0 {
			kern = append(kern, float64(kNs)/float64(kRows))
		}

		sp := r.tr.begin("bat.MarshalChunk", -1)
		t0 := time.Now()
		bufs := make([][]byte, len(chunks))
		for i, c := range chunks {
			bufs[i] = bat.MarshalChunk(nil, c)
		}
		marsh = append(marsh, float64(time.Since(t0).Nanoseconds())/float64(rows))
		r.tr.end(sp)
		sp = r.tr.begin("bat.UnmarshalChunk", -1)
		t0 = time.Now()
		for _, b := range bufs {
			if _, _, err := bat.UnmarshalChunk(b); err != nil {
				return px, err
			}
		}
		unmarsh = append(unmarsh, float64(time.Since(t0).Nanoseconds())/float64(rows))
		r.tr.end(sp)
	}
	px.parseUs, px.compileUs, px.kernelNsRow = median(parse), median(compile), median(kern)
	px.marshalNsRow, px.unmarshal = median(marsh), median(unmarsh)
	return px, nil
}
