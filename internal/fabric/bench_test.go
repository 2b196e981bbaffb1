package fabric_test

import (
	"testing"

	"datacell/internal/experiments"
)

// BenchmarkFabricFanout measures the 16-query grouped workload over a
// 4-shard stream, in-process vs through the shard fabric (coordinator + 2
// worker runtimes over loopback TCP). The dcbench counterpart derives the
// fabric_direct_vs_local ratio (floored ≥1× on multi-core runners); here
// the sub-benchmarks make the same comparison visible to `go test -bench`.
func BenchmarkFabricFanout(b *testing.B) {
	const n, batch, nkeys = 1 << 15, 2048, 256
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"local", 0},
		{"fabric2", 2},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.FabricFanout(16, cfg.workers, n, batch, nkeys)
				b.ReportMetric(r.TuplesPerSec, "tuples/s")
			}
			b.SetBytes(int64(n))
		})
	}
}
