package window

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"datacell/internal/bat"
	"datacell/internal/plan"
)

// epochSlides are the slides the epoch properties run at: unit, small
// primes, a microsecond-scale time slide, a huge one and the largest.
var epochSlides = []int64{1, 2, 3, 7, 1000, 1_000_000, 1 << 40, math.MaxInt64}

// epochInputs draws one sequence of slicing-axis values: random over the
// whole int64 range, clustered out of order around a random base (the
// common case: most rows share the previous row's epoch), negative, and
// pinned to the int64 extremes.
func epochInputs(rng *rand.Rand, slide int64) []int64 {
	xs := make([]int64, 0, 512)
	for i := 0; i < 64; i++ {
		xs = append(xs, int64(rng.Uint64()))
	}
	base := int64(rng.Uint64()) / 2
	for i := 0; i < 256; i++ {
		xs = append(xs, base+rng.Int63n(4*min(slide, 1<<20))-2*min(slide, 1<<20))
	}
	for i := 0; i < 64; i++ {
		xs = append(xs, -rng.Int63n(10*min(slide, 1<<40)+1))
	}
	for i := int64(0); i < 8; i++ {
		xs = append(xs, math.MinInt64+i, math.MaxInt64-i, -i, i)
	}
	rng.Shuffle(len(xs)/2, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// TestQuickEpochSpanMatchesFloorDiv: the cached-span epoch of every value
// equals floorDiv(x, slide), whatever the order the values arrive in.
func TestQuickEpochSpanMatchesFloorDiv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, slide := range epochSlides {
		for round := 0; round < 20; round++ {
			var sp epochSpan
			for _, x := range epochInputs(rng, slide) {
				if got, want := sp.of(x, slide), floorDiv(x, slide); got != want {
					t.Fatalf("slide %d: epoch of %d = %d, want %d", slide, x, got, want)
				}
				if !(sp.lo <= x && x < sp.hi) && x != math.MaxInt64 {
					t.Fatalf("slide %d: span [%d, %d) does not hold %d", slide, sp.lo, sp.hi, x)
				}
			}
		}
	}
}

// TestQuickRowGenMatchesDivision: the slicer's per-row epochs equal the
// division-per-row rule — seq / Slide for tuple windows; for time
// windows floorDiv(ts, slide), clamped up into the newest epoch seen and
// never below the flushed watermark — on random, out-of-order and
// negative timestamps with flushes in between (the late-row clamp).
func TestQuickRowGenMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, slide := range []int64{1, 3, 1000, 1_000_000} {
		// Tuple windows: non-negative sequence stamps.
		tw := NewShardSlicer(&plan.Window{Tuples: true, Size: 4 * slide, Slide: slide}, sch())
		seqs := make([]int64, 0, 1024)
		for seq := rng.Int63n(1 << 40); len(seqs) < cap(seqs); seq += 1 + rng.Int63n(2*slide) {
			seqs = append(seqs, seq)
		}
		for i, seq := range seqs {
			if got := tw.rowGen(i, seqs, nil); got != seq/slide {
				t.Fatalf("tuple slide %d: epoch of seq %d = %d, want %d", slide, seq, got, seq/slide)
			}
		}

		// Time windows: the reference replays the clamp on its own state.
		sl := NewShardSlicer(&plan.Window{Range: 4 * time.Duration(slide) * time.Microsecond,
			SlideDur: time.Duration(slide) * time.Microsecond}, sch())
		maxGen, nextGen := int64(NoEpoch), int64(NoEpoch)
		ts := epochInputs(rng, slide)
		for i, x := range ts {
			want := max(floorDiv(x, slide), maxGen, nextGen)
			maxGen = max(maxGen, want)
			if got := sl.rowGen(i, nil, ts); got != want {
				t.Fatalf("time slide %d: row %d (ts %d) in epoch %d, want %d", slide, i, x, got, want)
			}
			if i%97 == 96 {
				// Seal up to just past a recent row, so later rows below it clamp.
				wm := floorDiv(ts[i-rng.Intn(8)], slide)
				sl.Flush(wm)
				nextGen = max(nextGen, wm)
			}
		}
	}
}

// TestQuickPushMatchesDivision: Push, which skips the rows inside the
// previous row's epoch span, files every row into the epoch the
// division-per-row rule assigns — random, out-of-order and negative
// timestamps in random batches, with flushes between batches (so later
// rows clamp), and sequence stamps for tuple windows.
func TestQuickPushMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, slide := range []int64{1, 3, 1000, 1_000_000} {
		for _, tuples := range []bool{false, true} {
			w := &plan.Window{Range: 4 * time.Duration(slide) * time.Microsecond,
				SlideDur: time.Duration(slide) * time.Microsecond}
			if tuples {
				w = &plan.Window{Tuples: true, Size: 4 * slide, Slide: slide}
			}
			sl := NewShardSlicer(w, sch())
			xs := epochInputs(rng, slide)
			if tuples {
				xs = xs[:0]
				for seq := rng.Int63n(1 << 40); len(xs) < 512; seq += rng.Int63n(2 * slide) {
					xs = append(xs, seq)
				}
			}
			want := make([]int64, len(xs))
			got := make([]int64, len(xs))
			maxGen, nextGen := int64(NoEpoch), int64(NoEpoch)
			collect := func(frags []*Frag) {
				for _, f := range frags {
					for _, run := range f.Data.Chunks {
						for _, i := range run.Cols[1].(bat.Ints) {
							got[i] = f.Gen
						}
					}
				}
			}
			for lo := 0; lo < len(xs); {
				hi := min(len(xs), lo+1+rng.Intn(40))
				c := bat.NewChunk(sch())
				for i := lo; i < hi; i++ {
					_ = c.AppendRow(bat.TimeValue(xs[i]), bat.IntValue(int64(i)))
					if tuples {
						want[i] = xs[i] / slide
					} else {
						want[i] = max(floorDiv(xs[i], slide), maxGen, nextGen)
						maxGen = max(maxGen, want[i])
					}
				}
				sl.Push(c, nil, make(bat.Ints, hi-lo), bat.Ints(xs[lo:hi]))
				if !tuples && rng.Intn(3) == 0 {
					wm := floorDiv(xs[lo+rng.Intn(hi-lo)], slide)
					collect(sl.Flush(wm))
					nextGen = max(nextGen, wm)
				}
				lo = hi
			}
			collect(sl.Flush(math.MaxInt64))
			for _, f := range sl.open { // the epoch of MaxInt64 never seals
				collect([]*Frag{f})
			}
			for i := range xs {
				if got[i] != want[i] {
					t.Fatalf("slide %d tuples=%v: row %d (%d) in epoch %d, want %d", slide, tuples, i, xs[i], got[i], want[i])
				}
			}
		}
	}
}
