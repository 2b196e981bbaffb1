package fabric

import (
	"strconv"
	"time"

	"datacell/internal/metrics"
)

// CoordinatorMetricDescs declares the coordinator-side fabric families:
// per-worker session health (frames, replay-log retention, durable
// snapshot cursors, reconnects) and per-stream routing state. The
// retained/snap_cursor pair is the replay-log retention gauge rendered
// by \fabric — see docs/RECOVERY.md for why retained frames only fall
// when a worker's durable cursor advances.
var CoordinatorMetricDescs = []metrics.Desc{
	{Name: "datacell_fabric_workers", Type: metrics.Gauge,
		Help: "Configured worker slots."},
	{Name: "datacell_fabric_worker_connected", Type: metrics.Gauge,
		Help: "1 when the worker slot has a live connection.", Labels: []string{"worker"}},
	{Name: "datacell_fabric_worker_frames_out_total", Type: metrics.Counter,
		Help: "Frames sent to the worker since coordinator start.", Labels: []string{"worker"}},
	{Name: "datacell_fabric_worker_frames_in_total", Type: metrics.Counter,
		Help: "Frames received from the worker since coordinator start.", Labels: []string{"worker"}},
	{Name: "datacell_fabric_worker_retained_frames", Type: metrics.Gauge,
		Help: "Replay-log frames held for the worker (pruned at its durable snapshot cursor).", Labels: []string{"worker"}},
	{Name: "datacell_fabric_worker_snap_cursor", Type: metrics.Gauge,
		Help: "Highest cursor the worker has durably snapshotted (the retention floor).", Labels: []string{"worker"}},
	{Name: "datacell_fabric_worker_reconnects_total", Type: metrics.Counter,
		Help: "Times the worker slot re-attached a connection.", Labels: []string{"worker"}},
	{Name: "datacell_fabric_stream_shards", Type: metrics.Gauge,
		Help: "Total shard count of the exported stream.", Labels: []string{"stream"}},
	{Name: "datacell_fabric_stream_routed_settled", Type: metrics.Gauge,
		Help: "Contiguously settled append sequence routed to workers.", Labels: []string{"stream"}},
	{Name: "datacell_fabric_stream_moving_shards", Type: metrics.Gauge,
		Help: "Shards with an in-flight Reassign.", Labels: []string{"stream"}},
	{Name: "datacell_fabric_batch_flushes_total", Type: metrics.Counter,
		Help: "Lane batch flushes by cause (size, delay, barrier).", Labels: []string{"worker", "cause"}},
	{Name: "datacell_fabric_batch_frames_total", Type: metrics.Counter,
		Help: "Coalesced batch frames shipped on the worker's lane.", Labels: []string{"worker"}},
	{Name: "datacell_fabric_batch_subframes_total", Type: metrics.Counter,
		Help: "Sub-frames (appends and watermarks) carried inside the worker's batch frames.", Labels: []string{"worker"}},
	{Name: "datacell_fabric_batch_bytes_total", Type: metrics.Counter,
		Help: "Batch payload bytes shipped on the worker's lane.", Labels: []string{"worker"}},
	{Name: "datacell_fabric_wire_bytes_total", Type: metrics.Counter,
		Help: "Encoded append payload bytes routed to workers."},
	{Name: "datacell_fabric_wire_plain_bytes_total", Type: metrics.Counter,
		Help: "Plain-layout equivalent of the routed append payloads (the delta/dict savings baseline)."},
}

// MetricsCollector adapts the coordinator's live session and routing
// counters into a metrics source.
func (c *Coordinator) MetricsCollector() metrics.Collector {
	return metrics.CollectorFunc{Descs: CoordinatorMetricDescs, Fn: c.collectMetrics}
}

func (c *Coordinator) collectMetrics(emit func(metrics.Metric)) {
	emit(metrics.Metric{Name: "datacell_fabric_workers", Value: float64(len(c.peers))})
	for _, p := range c.peers {
		w := strconv.Itoa(p.idx)
		g := func(name string, v float64) {
			emit(metrics.Metric{Name: name, LabelValues: []string{w}, Value: v})
		}
		p.sess.mu.Lock()
		connected := 0.0
		if p.sess.conn != nil {
			connected = 1
		}
		framesOut, framesIn := p.sess.framesOut, p.sess.framesIn
		retained, snapCur, reconnects := len(p.sess.outbox), p.sess.snapAcked, p.sess.reconnects
		p.sess.mu.Unlock()
		g("datacell_fabric_worker_connected", connected)
		g("datacell_fabric_worker_frames_out_total", float64(framesOut))
		g("datacell_fabric_worker_frames_in_total", float64(framesIn))
		g("datacell_fabric_worker_retained_frames", float64(retained))
		g("datacell_fabric_worker_snap_cursor", float64(snapCur))
		g("datacell_fabric_worker_reconnects_total", float64(reconnects))

		l := c.lanes[p.idx]
		l.mu.Lock()
		batches, subs, bytesOut := l.batches, l.subFrames, l.bytesOut
		bySize, byDelay, byBarrier := l.flushSize, l.flushDelay, l.flushBarrier
		l.mu.Unlock()
		g("datacell_fabric_batch_frames_total", float64(batches))
		g("datacell_fabric_batch_subframes_total", float64(subs))
		g("datacell_fabric_batch_bytes_total", float64(bytesOut))
		for _, fc := range []struct {
			cause string
			n     uint64
		}{{"size", bySize}, {"delay", byDelay}, {"barrier", byBarrier}} {
			emit(metrics.Metric{Name: "datacell_fabric_batch_flushes_total",
				LabelValues: []string{w, fc.cause}, Value: float64(fc.n)})
		}
	}
	c.wireMu.Lock()
	wireB, plainB := c.wireBytes, c.wirePlainBytes
	c.wireMu.Unlock()
	emit(metrics.Metric{Name: "datacell_fabric_wire_bytes_total", Value: float64(wireB)})
	emit(metrics.Metric{Name: "datacell_fabric_wire_plain_bytes_total", Value: float64(plainB)})

	c.mu.Lock()
	streams := make([]*coordStream, 0, len(c.streams))
	for _, cs := range c.streams {
		streams = append(streams, cs)
	}
	c.mu.Unlock()
	for _, cs := range streams {
		cs.mu.Lock()
		shards, moving := cs.shards, len(cs.moving)
		cs.mu.Unlock()
		settled := cs.bk.Settled()
		g := func(name string, v float64) {
			emit(metrics.Metric{Name: name, LabelValues: []string{cs.name}, Value: v})
		}
		g("datacell_fabric_stream_shards", float64(shards))
		g("datacell_fabric_stream_routed_settled", float64(settled))
		g("datacell_fabric_stream_moving_shards", float64(moving))
	}
}

// WorkerMetricDescs declares the worker-side fabric families: applied
// frame cursor, durable snapshot cursor and its age, and the
// undeliverable-frame counter (version skew / corruption visibility).
var WorkerMetricDescs = []metrics.Desc{
	{Name: "datacell_fabric_worker_applied_frame", Type: metrics.Gauge,
		Help: "Highest coordinator frame applied to worker state."},
	{Name: "datacell_fabric_worker_snapshot_cursor", Type: metrics.Gauge,
		Help: "Cursor of the last durable checkpoint (next Hello's Snap field)."},
	{Name: "datacell_fabric_worker_snapshot_age_seconds", Type: metrics.Gauge,
		Help: "Seconds since the last durable checkpoint landed (-1 before the first)."},
	{Name: "datacell_fabric_worker_frame_errors_total", Type: metrics.Counter,
		Help: "Session frames that decoded badly or failed to apply (acked but dropped)."},
	{Name: "datacell_fabric_worker_streams", Type: metrics.Gauge,
		Help: "Exported streams with local state on this worker."},
	{Name: "datacell_fabric_worker_specs", Type: metrics.Gauge,
		Help: "Installed slicing specs on this worker."},
	{Name: "datacell_fabric_worker_link_up", Type: metrics.Gauge,
		Help: "1 when the coordinator link is connected."},
	{Name: "datacell_fabric_worker_batches_out_total", Type: metrics.Counter,
		Help: "Coalesced output batch frames sent to the coordinator."},
	{Name: "datacell_fabric_worker_subframes_out_total", Type: metrics.Counter,
		Help: "Sub-frames (fragments and pongs) carried inside output batches."},
}

// MetricsCollector adapts the worker's cursors and counters into a
// metrics source — the backing of dcworker's -metrics-listen endpoint.
func (w *Worker) MetricsCollector() metrics.Collector {
	return metrics.CollectorFunc{Descs: WorkerMetricDescs, Fn: w.collectMetrics}
}

func (w *Worker) collectMetrics(emit func(metrics.Metric)) {
	w.mu.Lock()
	applied, lastSnap, snapAt := w.applied, w.lastSnap, w.lastSnapAt
	frameErrs := w.frameErrs
	streams, specs := len(w.streams), len(w.specs)
	batchesOut, subOut := w.batchesOut, w.subOut
	w.mu.Unlock()
	g := func(name string, v float64) { emit(metrics.Metric{Name: name, Value: v}) }
	g("datacell_fabric_worker_applied_frame", float64(applied))
	g("datacell_fabric_worker_snapshot_cursor", float64(lastSnap))
	age := -1.0
	if snapAt > 0 {
		age = float64(time.Now().UnixMicro()-snapAt) / 1e6
	}
	g("datacell_fabric_worker_snapshot_age_seconds", age)
	g("datacell_fabric_worker_frame_errors_total", float64(frameErrs))
	g("datacell_fabric_worker_streams", float64(streams))
	g("datacell_fabric_worker_specs", float64(specs))
	up := 0.0
	if w.sess.connected() {
		up = 1
	}
	g("datacell_fabric_worker_link_up", up)
	g("datacell_fabric_worker_batches_out_total", float64(batchesOut))
	g("datacell_fabric_worker_subframes_out_total", float64(subOut))
}
