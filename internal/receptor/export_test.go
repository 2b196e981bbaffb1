package receptor

import (
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
)

// Test-only readers and a rated replay: the engine and the commands need none
// of them.

// Received reports the number of tuples appended so far.
func (r *TCP) Received() int64 { return r.total.Load() }

// BadLines reports the number of malformed lines skipped.
func (r *TCP) BadLines() int64 { return r.badLine.Load() }

// RatedReplay pushes pre-built chunks into a basket at a target rate of
// tuples per second, in batches. It blocks until done or until stop is
// closed, and returns the tuples pushed and the elapsed wall time —
// emulating the demo's configurable-rate stream source.
func RatedReplay(bk basket.Appender, src []*bat.Chunk, tuplesPerSec int, stop <-chan struct{}, now func() int64) (int64, time.Duration) {
	if now == nil {
		now = func() int64 { return time.Now().UnixMicro() }
	}
	start := time.Now()
	var sent int64
	for _, c := range src {
		select {
		case <-stop:
			return sent, time.Since(start)
		default:
		}
		if err := bk.Append(c, now()); err != nil {
			return sent, time.Since(start)
		}
		sent += int64(c.Rows())
		if tuplesPerSec > 0 {
			target := time.Duration(float64(sent) / float64(tuplesPerSec) * float64(time.Second))
			if ahead := target - time.Since(start); ahead > 0 {
				select {
				case <-time.After(ahead):
				case <-stop:
					return sent, time.Since(start)
				}
			}
		}
	}
	return sent, time.Since(start)
}
