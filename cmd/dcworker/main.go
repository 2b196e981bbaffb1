// Command dcworker runs one DataCell shard-fabric worker process: it
// dials a coordinator (cmd/datacell with -fabric-listen, or any embedded
// fabric.Coordinator), receives its shard-range assignment, runs the
// sharded front end — per-shard baskets, per-spec ShardSlicers,
// watermark-driven epoch sealing — for every exported stream, and ships
// sealed basic-window fragments back over the fabric. Connections are
// resumable: a dropped link redials and replays from the last
// acknowledged frame, so no window is lost or duplicated.
//
// Usage:
//
//	dcworker -join host:port -index 0 [-id name]
//	         [-snapshot-dir dir] [-snapshot-interval 500ms]
//	         [-metrics-listen addr]
//
// With -metrics-listen the worker serves a Prometheus-text /metrics
// endpoint with its applied-frame and snapshot cursors, snapshot age and
// frame-error counter (see docs/METRICS.md).
//
// With -snapshot-dir the worker periodically checkpoints its full slicing
// state (baskets, open epochs, session cursors) to dir/worker-<index>.snap
// and, after a crash, restores from it and replays only the delta from the
// coordinator's replay log — lossless recovery (see docs/RECOVERY.md).
//
// The worker exits when the coordinator says goodbye (coordinator Close),
// or on SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"datacell/internal/fabric"
	"datacell/internal/metrics"
)

func main() {
	join := flag.String("join", "", "coordinator fabric address (required)")
	index := flag.Int("index", 0, "worker slot index in the coordinator's partition layout")
	id := flag.String("id", "", "self-reported worker label (default w<index>)")
	snapDir := flag.String("snapshot-dir", "", "directory for durable state snapshots (empty: snapshots off, recovery replays full history)")
	snapEvery := flag.Duration("snapshot-interval", 500*time.Millisecond, "interval between periodic snapshots (with -snapshot-dir)")
	metricsListen := flag.String("metrics-listen", "",
		"serve a Prometheus-text /metrics endpoint on this address")
	flag.Parse()
	if *join == "" {
		fmt.Fprintln(os.Stderr, "dcworker: -join is required")
		os.Exit(2)
	}

	w := fabric.NewWorker(fabric.WorkerOptions{
		Coordinator:   *join,
		Index:         *index,
		ID:            *id,
		SnapshotDir:   *snapDir,
		SnapshotEvery: *snapEvery,
	})
	fmt.Println(w.Describe())

	if *metricsListen != "" {
		reg := metrics.NewRegistry()
		reg.MustRegister(w.MetricsCollector())
		msrv, err := metrics.Serve(*metricsListen, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcworker: metrics:", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Printf("dcworker: serving /metrics on %s\n", msrv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Println("dcworker: signal received, shutting down")
		w.Close()
	case <-w.Done():
		fmt.Println("dcworker: coordinator said goodbye, shutting down")
		w.Close()
	}
}
