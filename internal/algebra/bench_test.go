package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"datacell/internal/bat"
)

// BenchmarkSelectCmp times one predicated comparison over a 4096-row
// float window — the size of a fanout basic window — at 12.5%, 50% and
// 100% selectivity, over all rows and under a candidate list of every
// other row. B/op is the exactly sized result: 4 bytes per survivor.
func BenchmarkSelectCmp(b *testing.B) {
	const rows = 4096
	rng := rand.New(rand.NewSource(1))
	fs := make(bat.Floats, rows)
	for i := range fs {
		fs[i] = rng.Float64()
	}
	var xs bat.Vector = fs // boxed once, outside the timed loop
	cands := make(Sel, 0, rows/2)
	for i := 0; i < rows; i += 2 {
		cands = append(cands, int32(i))
	}
	for _, pct := range []float64{12.5, 50, 100} {
		c := bat.FloatValue(1 - pct/100) // xs > c keeps pct% of the rows
		for _, cs := range []struct {
			label string
			sel   Sel
		}{{"all", nil}, {"cands", cands}} {
			b.Run(fmt.Sprintf("sel=%g%%/%s", pct, cs.label), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Select(xs, cs.sel, GT, c)
				}
			})
		}
	}
}

// BenchmarkGroupInts times integer grouping over a 4096-row window on
// three key shapes: 64 keys in a dense domain (fanout's key), Linear
// Road's 3-column (xway, dir, seg) key over 4 × 2 × 100 values, and 64
// keys spread over a domain too wide for the direct table, which falls
// back to hashing. The hint is the steady-state group count, as the
// kernel feeds it back from the previous window.
func BenchmarkGroupInts(b *testing.B) {
	const rows = 4096
	rng := rand.New(rand.NewSource(1))
	k64, wide := make(bat.Ints, rows), make(bat.Ints, rows)
	xway, dir, seg := make(bat.Ints, rows), make(bat.Ints, rows), make(bat.Ints, rows)
	for i := 0; i < rows; i++ {
		k64[i] = int64(rng.Intn(64))
		wide[i] = k64[i] * 1_000_003
		xway[i], dir[i], seg[i] = int64(rng.Intn(4)), int64(rng.Intn(2)), int64(rng.Intn(100))
	}
	for _, shape := range []struct {
		label string
		keys  []bat.Vector
		dense bool
	}{
		{"dense_64keys", []bat.Vector{k64}, true},
		{"xway_dir_seg", []bat.Vector{xway, dir, seg}, true},
		{"wide_hash", []bat.Vector{wide}, false},
	} {
		b.Run(shape.label, func(b *testing.B) {
			if denseChosen(shape.keys, rows) != shape.dense {
				b.Fatalf("dense path taken = %v, want %v", !shape.dense, shape.dense)
			}
			hint := Group(shape.keys, nil, rows).N
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GroupHint(shape.keys, nil, rows, hint)
			}
		})
	}
}
