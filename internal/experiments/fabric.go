package experiments

import (
	"fmt"
	"os"
	"time"

	"datacell"
	"datacell/internal/fabric"
)

// FabricFanout measures the PR-5 scale-out benchmark: Q grouped standing
// queries (selective filter + count) over a 4-shard stream, executed
// either entirely in-process ("local") or through the distributed shard
// fabric with a coordinator plus `workers` worker runtimes over loopback
// TCP ("fabricN") — same workload, same grouped sharing stack, with the
// shard front ends (drain, slice, seal) running behind the wire. The
// tracked fabric_direct_vs_local ratio is floored only on multi-core
// machines: on one core the fabric pays serialization and loopback cost
// for work the local engine shares over memory, so the ratio charts the
// overhead the scale-out path must amortize with real second-machine
// capacity. It mirrors BenchmarkFabricFanout in internal/fabric.
func FabricFanout(queries, workers, n, batch, nkeys int) BenchResult {
	return fabricFanout(queries, workers, n, batch, nkeys, false)
}

// FabricFanoutSnap is FabricFanout with worker snapshotting enabled: each
// worker checkpoints its shard state to a spill directory on a short
// interval throughout the run, so the tracked snapshot_overhead ratio
// (fabric2snap / fabric2, report-only) charts what the copy-on-write
// checkpoint path costs on the hot ingest path.
func FabricFanoutSnap(queries, workers, n, batch, nkeys int) BenchResult {
	return fabricFanout(queries, workers, n, batch, nkeys, true)
}

func fabricFanout(queries, workers, n, batch, nkeys int, snapshot bool) BenchResult {
	chunks := sensorChunks(n, batch, nkeys)
	eng := datacell.New(&datacell.Options{Workers: 4})
	defer eng.Close()

	var coord *fabric.Coordinator
	var workerRts []*fabric.Worker
	var snapDir string
	// Coordinator first, workers after: Close order matters for the Bye
	// broadcast to reach live workers. The snapshot spill dir goes last —
	// worker Close takes a final checkpoint into it.
	defer func() {
		if coord != nil {
			coord.Close()
		}
		for _, w := range workerRts {
			w.Close()
		}
		if snapDir != "" {
			os.RemoveAll(snapDir)
		}
	}()
	if workers > 0 {
		var err error
		coord, err = fabric.NewCoordinator(eng, fabric.Options{Workers: workers})
		if err != nil {
			panic(err)
		}
	}
	if _, err := eng.Exec("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"); err != nil {
		panic(err)
	}
	if workers > 0 {
		if err := coord.ExportStream("s"); err != nil {
			panic(err)
		}
		if snapshot {
			var err error
			if snapDir, err = os.MkdirTemp("", "dcbench-snap"); err != nil {
				panic(err)
			}
		}
		for i := 0; i < workers; i++ {
			opts := fabric.WorkerOptions{Coordinator: coord.Addr(), Index: i}
			if snapshot {
				// Short interval so checkpoints actually fire inside the
				// timed region (the -quick run ingests in ~10ms), but not so
				// short that checkpointing saturates a single-core runner.
				opts.SnapshotDir = snapDir
				opts.SnapshotEvery = 10 * time.Millisecond
			}
			workerRts = append(workerRts, fabric.NewWorker(opts))
		}
	}
	for j := 0; j < queries; j++ {
		sql := fmt.Sprintf(
			"SELECT count(*) AS n FROM s [SIZE 8192 SLIDE 2048] WHERE v > %d.0", 400+(j%8)*12)
		if _, err := eng.RegisterQuery(fmt.Sprintf("q%02d", j), sql,
			datacell.WithMode(datacell.ModeIncremental), datacell.NoChannel()); err != nil {
			panic(err)
		}
	}
	start := time.Now()
	for _, c := range chunks {
		_ = eng.Append("s", c)
	}
	if workers > 0 {
		coord.Drain()
	} else {
		eng.Drain()
	}
	wall := time.Since(start)
	label := "local"
	if workers > 0 {
		label = fmt.Sprintf("fabric%d", workers)
		if snapshot {
			label += "snap"
		}
	}
	return BenchResult{
		Name:         fmt.Sprintf("fabric_fanout/%s/q_%d", label, queries),
		Tuples:       n,
		WallSec:      wall.Seconds(),
		TuplesPerSec: float64(n) / wall.Seconds(),
	}
}
