// Command perfbench is the repository's benchmark. One run sets up one
// workload, drives it through an untimed warm-up, a closed loop and a
// paced open loop, checks every emitted result against a plain-Go
// reference, and prints its metrics as the last line of standard output:
//
//	perfbench --workload fanout --seed 1 --seconds 16 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs with spans
// around the calls into each layer and reports the per-layer metrics. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	start := time.Now()
	name := flag.String("workload", "fanout", "workload: fanout, lroad or fabric")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 16, "measured seconds (half closed loop, half paced)")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	traceOut := flag.String("trace-out", ".bench_build/traces", "directory for the traced run's spans")
	flag.Parse()

	var w *workload
	for _, x := range workloads() {
		if x.name == *name {
			w = x
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	r := &runner{
		w: w, seed: *seed, seconds: *seconds,
		workers: max(1, runtime.NumCPU()-1),
	}
	if *trace == 1 {
		r.tr = newTracer()
		r.tr.on.Store(true)
	}
	r.wd = &watchdog{
		deadline: start.Add(160 * time.Second),
		onStall: func(report string) {
			fmt.Fprintln(os.Stderr, report)
			printResult(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricOut{}})
			os.Exit(1)
		},
	}
	r.wd.start()

	env := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "workers": r.workers,
		"producers": 1, "connections": connections(w), "go": runtime.Version(), "commit": commit(),
		"paced_chunks_per_s": w.pacedChunksPerSec,
	}
	line, _ := json.Marshal(env)
	fmt.Printf("env %s\n", line)

	if err := r.run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	var px proxies
	if r.tr != nil {
		var err error
		if px, err = r.measureProxies(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: layer proxies: %v\n", err)
			os.Exit(1)
		}
	}

	v := r.verdict
	failed := v.failed + r.appendErrs.Load() + r.reconnects
	if r.reconnects > 0 {
		fmt.Printf("fabric worker reconnected %d times\n", r.reconnects)
	}
	if !r.paced.valid {
		failed++
		fmt.Printf("paced phase invalid: %s\n", r.paced.why)
	}
	if v.failed > 0 {
		fmt.Printf("verification failures (%d):\n%s\n", v.failed, v.String())
	}
	lat := r.emitLatencies()
	fmt.Printf("phases: setup %d× median %.4fs; closed %d segments; paced %d chunks at %.0f/s, %d windows timed, emit p50 %.3f ms p99 %.3f ms, gen late p99 %.3f ms\n",
		len(r.setupS), median(r.setupS), len(r.closed), r.paced.chunks, w.pacedChunksPerSec,
		len(lat), median(lat), percentileF(lat, 0.99), percentile(r.paced.lateNs, 0.99)/1e6)

	var rates []float64
	for _, s := range r.closed {
		rates = append(rates, float64(s.tuples)/(float64(s.wallNs)/1e9))
	}
	fmt.Printf("closed-loop segment tuples/s: p10 %.4g p25 %.4g p50 %.4g p75 %.4g p90 %.4g\n",
		percentileF(rates, 0.1), percentileF(rates, 0.25), median(rates), percentileF(rates, 0.75), percentileF(rates, 0.9))

	res := result{
		Correct:   failed == 0,
		Attempted: max(v.attempted, 1),
		Failed:    min(failed, max(v.attempted, 1)),
	}
	if r.tr == nil {
		res.Metrics = r.endToEnd(lat)
	} else {
		res.Metrics = r.perLayer(lat, px)
		path := filepath.Join(*traceOut, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := os.MkdirAll(*traceOut, 0o755); err == nil {
			if err := r.tr.write(path); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			} else {
				fmt.Printf("spans written to %s\n", path)
			}
		}
	}
	printMetrics(res.Metrics)
	printResult(res)
}

func connections(w *workload) int {
	if w.fabric {
		return 2 // control session plus the direct data plane
	}
	return 0
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// endToEnd are the metrics a user of the engine sees. Throughput figures
// are medians over the closed loop's segments.
func (r *runner) endToEnd(lat []float64) map[string]metricOut {
	var rate, cpu, alloc []float64
	for _, s := range r.closed {
		if s.traced {
			continue
		}
		t := float64(s.tuples)
		rate = append(rate, t/(float64(s.wallNs)/1e9))
		cpu = append(cpu, float64(s.cpuNs)/t)
		alloc = append(alloc, s.allocB/t)
	}
	return map[string]metricOut{
		"setup_s":           {median(r.setupS), "s"},
		"tuples_per_s":      {median(rate), "1/s"},
		"cpu_ns_per_tuple":  {median(cpu), "ns"},
		"alloc_b_per_tuple": {median(alloc), "B"},
		"heap_live_mb":      {r.heapLiveMB, "MB"},
		"emit_p50_ms":       {median(lat), "ms"},
	}
}

// perLayer are the traced run's readings of single layers. Metrics of
// the fabric layer read 0 on the in-process workloads.
func (r *runner) perLayer(lat []float64, px proxies) map[string]metricOut {
	var tuples, wall, appendNs, busyUs, fired, results int64
	var gcCycles, gcCPU, totalCPU float64
	var drains, ratesOn, ratesOff []float64
	for _, s := range r.closed {
		tuples += s.tuples
		wall += s.wallNs
		appendNs += s.appendNs
		busyUs += s.busyUs
		fired += s.fired
		results += s.results
		gcCycles += s.gcCycles
		gcCPU += s.gcCPU
		totalCPU += s.totalCPU
		drains = append(drains, float64(s.drainNs)/1e6)
		rate := float64(s.tuples) / float64(s.wallNs)
		if s.traced {
			ratesOn = append(ratesOn, rate)
		} else {
			ratesOff = append(ratesOff, rate)
		}
	}
	ls := &r.layers
	var deliver []float64
	for _, l := range r.logs {
		for i := range l.gen {
			deliver = append(deliver, float64(l.recvNs[i]/1e3-l.firedUs[i]))
		}
	}
	var sentTuples float64
	if r.w.fabric {
		sentTuples = float64(r.sent.Load() * sensorSlide)
	}
	var regUs []float64
	for _, d := range r.tr.durations("RegisterQuery") {
		regUs = append(regUs, float64(d)/1e3)
	}
	drainMs, fabricDrainMs := median(drains), 0.0
	if r.w.fabric {
		drainMs, fabricDrainMs = 0, median(drains)
	}
	self := r.tr.selfTimes(r.closedFrom, r.closedTo)
	var tracedWall float64
	for _, s := range r.closed {
		if s.traced {
			tracedWall += float64(s.wallNs)
		}
	}
	share := func(names ...string) float64 {
		var n int64
		for _, x := range names {
			n += self[x]
		}
		return ratio(float64(n), tracedWall)
	}
	return map[string]metricOut{
		"datacell.append_ns_per_tuple": {ratio(float64(appendNs), float64(tuples)), "ns"},
		"datacell.drain_ms":            {drainMs, "ms"},
		"datacell.register_us":         {median(regUs), "us"},
		"plan.cache_hit_rate":          {ratio(float64(ls.planHits), float64(ls.planHits+ls.planMisses)), "ratio"},
		"sql.parse_us":                 {px.parseUs, "us"},
		"plan.compile_us":              {px.compileUs, "us"},
		"basket.backlog_max":           {float64(r.paced.basketMax), "rows"},
		"basket.shard_skew":            {ls.shardSkew, "ratio"},
		"window.windows_per_mtuple":    {ratio(float64(results)*1e6, float64(tuples)), "1/Mtuple"},
		"window.live_bufs_max":         {float64(r.paced.liveBufsMax), "count"},
		"factory.busy_share":           {ratio(float64(busyUs)*1e3, float64(wall)*float64(r.workers)), "ratio"},
		"factory.busy_ns_per_tuple":    {ratio(float64(busyUs)*1e3, float64(tuples)), "ns"},
		"factory.memo_hit_rate":        {ratio(float64(ls.memoH), float64(ls.memoH+ls.memoM)), "ratio"},
		"factory.merge_hit_rate":       {ratio(float64(ls.mergeH), float64(ls.mergeH+ls.mergeM)), "ratio"},
		"factory.post_hit_rate":        {ratio(float64(ls.postH), float64(ls.postH+ls.postM)), "ratio"},
		"factory.engine_lat_p50_us":    {median(ls.engineLat), "us"},
		"kernel.ns_per_row":            {px.kernelNsRow, "ns"},
		"scheduler.fired_per_window":   {ratio(float64(fired), float64(results)), "ratio"},
		"scheduler.queued_max":         {r.paced.queuedMax, "count"},
		"emitter.deliver_p50_us":       {median(deliver), "us"},
		"emitter.dropped":              {float64(ls.dropped), "count"},
		"fabric.wire_b_per_tuple":      {ratio(ls.wireB, sentTuples), "B"},
		"fabric.codec_ratio":           {ratio(ls.wirePlainB, ls.wireB), "ratio"},
		"fabric.subframes_per_batch":   {ratio(ls.subs, ls.batchs), "ratio"},
		"fabric.drain_ms":              {fabricDrainMs, "ms"},
		"fabric.reconnects":            {float64(r.reconnects), "count"},
		"bat.marshal_ns_per_row":       {px.marshalNsRow, "ns"},
		"bat.unmarshal_ns_per_row":     {px.unmarshal, "ns"},
		"gc.cycles_per_mtuple":         {ratio(gcCycles*1e6, float64(tuples)), "1/Mtuple"},
		"gc.cpu_share":                 {ratio(gcCPU, totalCPU), "ratio"},
		"paced.emit_p99_ms":            {percentileF(lat, 0.99), "ms"},
		"paced.gen_late_p99_ms":        {percentile(r.paced.lateNs, 0.99) / 1e6, "ms"},
		"paced.backlog_windows_max":    {float64(maxOf(r.paced.backlog)), "count"},
		"trace.overhead_share":         {ratio(median(ratesOff), median(ratesOn)) - 1, "ratio"},
		"trace.producer_self_share":    {share("segment"), "ratio"},
		"trace.append_self_share":      {share("Append"), "ratio"},
		"trace.drain_self_share":       {share("Engine.Drain", "Coordinator.Drain"), "ratio"},
		"trace.receive_self_share":     {share("receive"), "ratio"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func printMetrics(ms map[string]metricOut) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-30s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	fmt.Print(b.String())
}

func printResult(res result) {
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}
