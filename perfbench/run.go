package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"datacell/internal/bat"
	"datacell/internal/emitter"
)

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, and only the last set-up system is driven.
const setupRepeats = 21

// runner drives one workload through its phases: set-up, untimed warm-up,
// closed loop, paced open loop, verification.
type runner struct {
	w       *workload
	seed    int64
	seconds float64
	workers int
	tr      *tracer // nil in untraced runs
	wd      *watchdog

	s     *sut
	src   source
	sent  atomic.Int64 // chunks appended so far
	logs  []*resultLog
	recvd []atomic.Int64 // results received per query
	wg    sync.WaitGroup

	appendErrs atomic.Int64
	reconnects int64
	setupS     []float64
	closed     []segment
	heapLiveMB float64
	paced      pacedStats
	layers     layerState
	// closedFrom and closedTo bound the closed loop on the tracer's clock.
	closedFrom, closedTo int64
	want                 [][]expected
	verdict              verdict
}

// segment is one closed-loop burst: segChunks appends, then a drain.
type segment struct {
	traced            bool
	tuples            int64
	wallNs, cpuNs     int64
	allocB, gcCycles  float64
	gcCPU, totalCPU   float64
	busyUs, fired     int64
	results           int64
	appendNs, drainNs int64
}

func (r *runner) stream() string { return r.w.stream }

// run executes every phase and verifies the results.
func (r *runner) run() error {
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, err := setup(r.w, r.workers, r.tr)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			s.close()
		} else {
			r.s = s
		}
	}
	r.wd.sut.Store(r.s)
	r.src = r.w.source(r.seed)
	r.logs = make([]*resultLog, len(r.s.qs))
	r.recvd = make([]atomic.Int64, len(r.s.qs))
	for i, q := range r.s.qs {
		r.logs[i] = &resultLog{}
		r.wg.Add(1)
		go func(i int, out <-chan emitter.Result) {
			defer r.wg.Done()
			for res := range out {
				sp := r.tr.begin("receive", -1)
				r.logs[i].add(res, time.Now().UnixNano())
				r.tr.end(sp)
				r.recvd[i].Add(1)
			}
		}(i, q.Out())
	}

	// Warm-up: untimed, so caches fill and lazy set-up finishes.
	for i := int64(0); i < r.w.warmChunks; i++ {
		r.append(r.src.next(), -1)
	}
	r.drain(-1)

	r.closedLoop()
	r.pacedLoop()

	// Close every window the input reached, then verify.
	n := r.sent.Load()
	r.drain(-1)
	if r.w.closesTrailing {
		r.s.eng.AdvanceTime(n * lrBaseSec * 1_000_000)
		r.drain(-1)
	}
	r.want = r.w.reference(r.seed, n)
	r.waitResults(func(qi int) int64 { return int64(len(r.want[qi])) }, 5*time.Second)
	r.reconnects = r.s.reconnects()
	r.finalLayerSample()
	r.wd.sut.Store(nil)
	r.s.close()
	r.wg.Wait()
	names := make([]string, len(r.s.qs))
	for i, q := range r.s.qs {
		names[i] = q.Name()
	}
	r.verdict = verify(names, r.logs, r.want)
	return nil
}

func (r *runner) append(c *bat.Chunk, parent int32) {
	sp := r.tr.begin("Append", parent)
	err := r.s.eng.Append(r.stream(), c)
	r.tr.end(sp)
	if err != nil {
		r.appendErrs.Add(1)
	}
	r.sent.Add(1)
}

// drain runs the workload's drain under the watchdog and returns its
// duration.
func (r *runner) drain(parent int32) int64 {
	name := "Engine.Drain"
	if r.s.coord != nil {
		name = "Coordinator.Drain"
	}
	sp := r.tr.begin(name, parent)
	r.wd.enter(name)
	t0 := time.Now()
	r.s.drain()
	d := time.Since(t0).Nanoseconds()
	r.wd.leave()
	r.tr.end(sp)
	return d
}

// waitResults waits until query qi has received target(qi) results, or
// the timeout passes (a missing result then shows in verification).
func (r *runner) waitResults(target func(qi int) int64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		done := true
		for qi := range r.recvd {
			if r.recvd[qi].Load() < target(qi) {
				done = false
				break
			}
		}
		if done {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *runner) sealed() func(qi int) int64 {
	n := r.sent.Load()
	return func(qi int) int64 { return r.w.sealedBy(qi, n) }
}

func (r *runner) received() int64 {
	var n int64
	for qi := range r.recvd {
		n += r.recvd[qi].Load()
	}
	return n
}

// closedLoop appends as fast as Append returns, in segments that each end
// with a drain, so the backlog stays bounded. It runs for half the run's
// measured seconds, or until the workload's chunk cap. In a traced run
// every other segment is traced, which gives the tracing overhead from
// one process.
func (r *runner) closedLoop() {
	budget := time.Duration(r.seconds / 2 * float64(time.Second))
	t0 := time.Now()
	if r.tr != nil {
		r.closedFrom = r.tr.now()
	}
	var chunks int64
	for i := 0; len(r.closed) < 6 || time.Since(t0) < budget; i++ {
		if r.w.closedMaxChunks > 0 && chunks >= r.w.closedMaxChunks {
			break
		}
		chunks += r.w.segChunks
		traced := r.tr != nil && i%2 == 0
		if r.tr != nil {
			r.tr.on.Store(traced)
		}
		sg := segment{traced: traced}
		before := sampleRuntime()
		busy0, fired0 := r.busyAndFired()
		res0 := r.received()
		seg := r.tr.begin("segment", -1)
		w0 := time.Now()
		for j := int64(0); j < r.w.segChunks; j++ {
			c := r.src.next()
			sg.tuples += int64(c.Rows())
			a0 := time.Now()
			r.append(c, seg)
			sg.appendNs += time.Since(a0).Nanoseconds()
		}
		sg.drainNs = r.drain(seg)
		sg.wallNs = time.Since(w0).Nanoseconds()
		r.tr.end(seg)
		after := sampleRuntime()
		busy1, fired1 := r.busyAndFired()
		r.waitResults(r.sealed(), 2*time.Second)
		sg.results = r.received() - res0
		sg.cpuNs = after.cpuNs - before.cpuNs
		sg.allocB = after.allocB - before.allocB
		sg.gcCycles = after.gcCycles - before.gcCycles
		sg.gcCPU = after.gcCPU - before.gcCPU
		sg.totalCPU = after.totalCPU - before.totalCPU
		sg.busyUs, sg.fired = busy1-busy0, fired1-fired0
		r.closed = append(r.closed, sg)
	}
	if r.tr != nil {
		r.closedTo = r.tr.now()
		r.tr.on.Store(true)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var own int64
	for _, l := range r.logs {
		own += l.bytes()
	}
	r.heapLiveMB = float64(int64(ms.HeapAlloc)-own) / (1 << 20)
}

// busyAndFired reads the factories' summed busy time and the scheduler's
// fired counter; only traced runs pay for it.
func (r *runner) busyAndFired() (busyUs, fired int64) {
	if r.tr == nil {
		return 0, 0
	}
	for _, q := range r.s.qs {
		busyUs += q.Stats().BusyUsec
	}
	_, f := schedulerStats(r.s.eng)
	return busyUs, int64(f)
}

// pacedStats is what the open-loop phase measured.
type pacedStats struct {
	firstChunk, chunks int64
	schedNs            []int64 // scheduled send time of each paced chunk
	lateNs             []int64 // how late each send started
	backlog            []int64 // sampled outstanding windows
	basketMax          int64
	queuedMax          float64
	liveBufsMax        int64
	valid              bool
	why                string
}

// pacedLoop sends chunks at the workload's fixed rate for half the run's
// measured seconds. Each chunk is built before it is due, and latency is
// timed from when it was due, so a stall charges every later chunk.
func (r *runner) pacedLoop() {
	p := &r.paced
	interval := time.Duration(float64(time.Second) / r.w.pacedChunksPerSec)
	p.chunks = int64(r.seconds / 2 * r.w.pacedChunksPerSec)
	p.firstChunk = r.sent.Load()
	p.schedNs = make([]int64, p.chunks)
	p.lateNs = make([]int64, p.chunks)

	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			seal := r.sealed()
			var out int64
			for qi := range r.recvd {
				out += seal(qi) - r.recvd[qi].Load()
			}
			p.backlog = append(p.backlog, out)
			if r.tr != nil {
				r.sampleLayers()
			}
		}
	}()

	start := time.Now().Add(interval)
	for i := int64(0); i < p.chunks; i++ {
		c := r.src.next()
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		p.schedNs[i] = due.UnixNano()
		p.lateNs[i] = now.Sub(due).Nanoseconds()
		r.append(c, -1)
	}
	r.waitResults(r.sealed(), 5*time.Second)
	close(stop)
	<-sampled
	p.check(len(r.s.qs), interval)
}

// check marks the paced phase invalid when the generator fell behind its
// schedule (median lateness over half a send interval, or p99 over
// 100 ms) or the backlog of outstanding windows kept growing: its
// latencies would then describe a queue, not the system.
func (p *pacedStats) check(queries int, interval time.Duration) {
	p.valid = true
	if late := percentile(p.lateNs, 0.5); late > float64(interval)/2 {
		p.valid, p.why = false, fmt.Sprintf("generator median lateness %.1f ms > half the send interval", late/1e6)
		return
	}
	if late := percentile(p.lateNs, 0.99); late > 100e6 {
		p.valid, p.why = false, fmt.Sprintf("generator p99 lateness %.1f ms > 100 ms", late/1e6)
		return
	}
	q := len(p.backlog) / 4
	if q == 0 {
		return
	}
	first, last := mean(p.backlog[:q]), mean(p.backlog[len(p.backlog)-q:])
	if last > 2*first+float64(2*queries) {
		p.valid, p.why = false, fmt.Sprintf("backlog grew from %.1f to %.1f outstanding windows", first, last)
	}
}

// emitLatencies returns, for every window sealed by a paced chunk, the
// time from that chunk's scheduled send to the result's receipt (ms).
func (r *runner) emitLatencies() []float64 {
	p := &r.paced
	var out []float64
	for qi, l := range r.logs {
		for i, g := range l.gen {
			c := r.w.completingChunk(qi, g) - p.firstChunk
			if c < 0 || c >= p.chunks {
				continue
			}
			out = append(out, float64(l.recvNs[i]-p.schedNs[c])/1e6)
		}
	}
	return out
}

// runtimeSample is a point reading of process CPU and runtime counters.
type runtimeSample struct {
	cpuNs            int64
	allocB, gcCycles float64
	gcCPU, totalCPU  float64
}

var runtimeMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleRuntime() runtimeSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(runtimeMetrics))
	copy(s, runtimeMetrics)
	metrics.Read(s)
	return runtimeSample{
		cpuNs:    ru.Utime.Nano() + ru.Stime.Nano(),
		allocB:   sampleValue(s[0]),
		gcCycles: sampleValue(s[1]),
		gcCPU:    sampleValue(s[2]),
		totalCPU: sampleValue(s[3]),
	}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// watchdog ends a run that has wedged: a drain that does not return
// within callLimit, or a run past its deadline, prints a stall report and
// a failed result and exits.
type watchdog struct {
	deadline time.Time
	sut      atomic.Pointer[sut]
	call     atomic.Pointer[string]
	since    atomic.Int64
	onStall  func(report string)
}

const callLimit = 30 * time.Second

func (wd *watchdog) enter(call string) {
	wd.since.Store(time.Now().UnixNano())
	wd.call.Store(&call)
}

func (wd *watchdog) leave() { wd.call.Store(nil) }

func (wd *watchdog) start() {
	go func() {
		for range time.Tick(100 * time.Millisecond) {
			now := time.Now()
			call := wd.call.Load()
			switch {
			case call != nil && now.Sub(time.Unix(0, wd.since.Load())) > callLimit:
				wd.onStall(wd.report(fmt.Sprintf("%s has not returned after %s", *call, callLimit)))
			case now.After(wd.deadline):
				what := "no call in flight"
				if call != nil {
					what = *call + " in flight"
				}
				wd.onStall(wd.report("run deadline passed, " + what))
			}
		}
	}()
}

func (wd *watchdog) report(reason string) string {
	msg := "stall: " + reason
	if s := wd.sut.Load(); s != nil {
		for _, st := range s.eng.Stats().Baskets {
			msg += fmt.Sprintf("\n  basket %s len=%d in=%d", st.Name, st.Len, st.TotalIn)
		}
		q, _ := schedulerStats(s.eng)
		msg += fmt.Sprintf("\n  scheduler queued=%.0f\n  fabric: %s", q, s.eng.FabricStatus())
	}
	return msg
}

func median(xs []float64) float64 { return percentileF(xs, 0.5) }

func percentileF(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1)+0.5)]
}

func percentile(xs []int64, p float64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return percentileF(f, p)
}

func mean(xs []int64) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}
