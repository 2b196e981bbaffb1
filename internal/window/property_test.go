package window

import (
	"math/rand"
	"testing"
	"testing/quick"

	"datacell/internal/bat"
	"datacell/internal/plan"
)

// Property: for tuple windows, the concatenation of all closed basic
// windows plus the open buffer equals the input stream, in order, and
// every closed basic window has exactly Slide tuples.
func TestQuickTupleSlicerPartition(t *testing.T) {
	f := func(raw []int16, slideRaw uint8, batchRaw uint8) bool {
		slide := int64(slideRaw%7) + 1
		batch := int(batchRaw%5) + 1
		w := &plan.Window{Tuples: true, Size: slide * 4, Slide: slide}
		s := newOneShard(w)

		var vals []int64
		for _, x := range raw {
			vals = append(vals, int64(x))
		}
		var closed []*BW
		for pos := 0; pos < len(vals); pos += batch {
			hi := pos + batch
			if hi > len(vals) {
				hi = len(vals)
			}
			c := bat.NewChunk(sch())
			var arr bat.Ints
			for _, v := range vals[pos:hi] {
				_ = c.AppendRow(bat.TimeValue(v), bat.IntValue(v))
				arr = append(arr, v)
			}
			closed = append(closed, s.Push(c, arr)...)
		}
		var rebuilt []int64
		for _, bw := range closed {
			if bw.Data.Rows() != int(slide) {
				return false
			}
			for i := 0; i < bw.Data.Rows(); i++ {
				rebuilt = append(rebuilt, bw.Data.Concat().Row(i)[1].I)
			}
		}
		if s.Pending() != len(vals)-len(rebuilt) {
			return false
		}
		for i, v := range rebuilt {
			if vals[i] != v {
				return false
			}
		}
		// Generations are consecutive from zero.
		for i, bw := range closed {
			if bw.Gen != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: for time windows over monotone timestamps, every tuple lands
// in the bucket floor(ts/slide), and buckets close in order with no gaps.
func TestQuickTimeSlicerBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 100; iter++ {
		slide := int64(1+rng.Intn(5)) * 1000
		w := &plan.Window{
			Tuples: false, TimeIdx: 0,
			Range:    4 * 1000 * 1000, // nanoseconds irrelevant; Parts unused here
			SlideDur: 1,
		}
		// Build the slicer manually around the slide in µs.
		s := newOneShard(w)
		s.sl.slideUsec = slide

		n := rng.Intn(60)
		ts := make([]int64, n)
		cur := int64(rng.Intn(int(slide)))
		for i := range ts {
			cur += int64(rng.Intn(int(slide)))
			ts[i] = cur
		}
		var closed []*BW
		for _, x := range ts {
			c := bat.NewChunk(sch())
			_ = c.AppendRow(bat.TimeValue(x), bat.IntValue(x))
			closed = append(closed, s.Push(c, bat.Ints{x})...)
		}
		closed = append(closed, s.AdvanceTime(cur+10*slide)...)

		// Rebuild bucket assignment and compare.
		want := map[int64][]int64{}
		for _, x := range ts {
			want[x/slide] = append(want[x/slide], x)
		}
		if n > 0 {
			first := ts[0] / slide
			for gi, bw := range closed {
				bucket := first + int64(gi)
				rows := bw.Data.Rows()
				if len(want[bucket]) != rows {
					t.Fatalf("iter %d: bucket %d has %d rows, want %d",
						iter, bucket, rows, len(want[bucket]))
				}
				for i := 0; i < rows; i++ {
					if bw.Data.Concat().Row(i)[1].I != want[bucket][i] {
						t.Fatalf("iter %d: bucket %d row %d mismatch", iter, bucket, i)
					}
				}
			}
		}
	}
}

// Property: a ring holding n basic windows always reports the last n
// pushed, in push order.
func TestQuickRingKeepsLastN(t *testing.T) {
	f := func(total uint8, capRaw uint8) bool {
		n := int(capRaw%6) + 1
		r := NewRing(n)
		pushed := int(total % 40)
		for i := 0; i < pushed; i++ {
			r.Push(BW{Gen: int64(i)})
		}
		live := r.Live()
		wantLen := pushed
		if wantLen > n {
			wantLen = n
		}
		if len(live) != wantLen {
			return false
		}
		for i, bw := range live {
			if bw.Gen != int64(pushed-wantLen+i) {
				return false
			}
		}
		return r.Full() == (pushed >= n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
