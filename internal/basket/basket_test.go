package basket

import (
	"math/rand"
	"sync"
	"testing"

	"datacell/internal/bat"
)

func sch() bat.Schema {
	return bat.NewSchema([]string{"v"}, []bat.Kind{bat.Int})
}

func chunkOf(xs ...int64) *bat.Chunk {
	return &bat.Chunk{Schema: sch(), Cols: []bat.Vector{bat.Ints(xs)}}
}

func TestAppendPeekConsume(t *testing.T) {
	b := New("s", sch())
	id := b.Register()
	if err := b.Append(chunkOf(1, 2, 3), 100); err != nil {
		t.Fatal(err)
	}
	if got := b.Available(id); got != 3 {
		t.Fatalf("Available = %d", got)
	}
	c, arr := b.Peek(id, 2)
	if c.Rows() != 2 || c.Row(0)[0].I != 1 {
		t.Fatalf("Peek = %v", c)
	}
	if len(arr) != 2 || arr[0] != 100 {
		t.Fatalf("arrivals = %v", arr)
	}
	b.Consume(id, 2)
	if got := b.Available(id); got != 1 {
		t.Fatalf("Available after consume = %d", got)
	}
	c, _ = b.Peek(id, 10)
	if c.Rows() != 1 || c.Row(0)[0].I != 3 {
		t.Fatalf("Peek after consume = %v", c)
	}
}

func TestPeekEmptyAndUnknownConsumer(t *testing.T) {
	b := New("s", sch())
	id := b.Register()
	if c, _ := b.Peek(id, 5); c != nil {
		t.Error("Peek of empty basket should be nil")
	}
	if c, _ := b.Peek(99, 5); c != nil {
		t.Error("Peek of unknown consumer should be nil")
	}
	if b.Available(99) != 0 {
		t.Error("Available of unknown consumer should be 0")
	}
	b.Consume(99, 5) // must not panic
}

func TestRegisterSeesOnlyNewTuples(t *testing.T) {
	b := New("s", sch())
	first := b.Register()
	_ = b.Append(chunkOf(1, 2), 0)
	late := b.Register()
	if got := b.Available(late); got != 0 {
		t.Errorf("late consumer Available = %d, want 0", got)
	}
	if got := b.Available(first); got != 2 {
		t.Errorf("first consumer Available = %d, want 2", got)
	}
}

func TestAppendValidation(t *testing.T) {
	b := New("s", sch())
	bad := &bat.Chunk{
		Schema: bat.NewSchema([]string{"x", "y"}, []bat.Kind{bat.Int, bat.Int}),
		Cols:   []bat.Vector{bat.Ints{1}, bat.Ints{2}},
	}
	if err := b.Append(bad, 0); err == nil {
		t.Error("arity mismatch should fail")
	}
	wrong := &bat.Chunk{
		Schema: bat.NewSchema([]string{"v"}, []bat.Kind{bat.Str}),
		Cols:   []bat.Vector{bat.Strs{"x"}},
	}
	if err := b.Append(wrong, 0); err == nil {
		t.Error("kind mismatch should fail")
	}
}

func TestVacuumDropsFullyConsumedPrefix(t *testing.T) {
	b := New("s", sch())
	id := b.Register()
	n := vacuumThreshold + 100
	for i := 0; i < n; i++ {
		_ = b.Append(chunkOf(int64(i)), 0)
	}
	b.Consume(id, int64(vacuumThreshold))
	st := b.Stats()
	if st.TotalDrop < vacuumThreshold {
		t.Errorf("TotalDrop = %d, want >= %d", st.TotalDrop, vacuumThreshold)
	}
	if st.Len != n-int(st.TotalDrop) {
		t.Errorf("Len = %d after dropping %d of %d", st.Len, st.TotalDrop, n)
	}
	// Remaining data still correct.
	c, _ := b.Peek(id, 5)
	if c.Row(0)[0].I != int64(vacuumThreshold) {
		t.Errorf("first pending = %v", c.Row(0)[0])
	}
}

func TestVacuumRespectsSlowestConsumer(t *testing.T) {
	b := New("s", sch())
	fast := b.Register()
	slow := b.Register()
	for i := 0; i < vacuumThreshold*2; i++ {
		_ = b.Append(chunkOf(int64(i)), 0)
	}
	b.Consume(fast, vacuumThreshold*2)
	if got := b.Stats().TotalDrop; got != 0 {
		t.Errorf("dropped %d tuples while slow consumer unread", got)
	}
	b.Consume(slow, vacuumThreshold*2)
	if got := b.Stats().TotalDrop; got == 0 {
		t.Error("nothing dropped after all consumed")
	}
}

func TestUnregisterFreesTuples(t *testing.T) {
	b := New("s", sch())
	a := b.Register()
	z := b.Register()
	for i := 0; i < vacuumThreshold+1; i++ {
		_ = b.Append(chunkOf(int64(i)), 0)
	}
	b.Consume(a, int64(vacuumThreshold+1))
	if b.Stats().TotalDrop != 0 {
		t.Fatal("should hold for z")
	}
	b.Unregister(z)
	if b.Stats().TotalDrop == 0 {
		t.Error("unregister should release tuples")
	}
}

func TestNoConsumersDropsEverything(t *testing.T) {
	b := New("s", sch())
	_ = b.Append(chunkOf(1, 2, 3), 0)
	id := b.Register()
	_ = b.Append(chunkOf(4), 0)
	b.Unregister(id)
	if st := b.Stats(); st.Len != 0 {
		t.Errorf("unconsumed basket Len = %d, want 0", st.Len)
	}
}

func TestPauseResume(t *testing.T) {
	b := New("s", sch())
	id := b.Register()
	var notified int
	b.OnAppend(func() { notified++ })
	b.Pause()
	if !b.Paused() {
		t.Fatal("not paused")
	}
	_ = b.Append(chunkOf(1, 2), 50)
	if got := b.Available(id); got != 0 {
		t.Errorf("paused basket exposed %d tuples", got)
	}
	if notified != 0 {
		t.Error("paused append should not notify")
	}
	b.Resume()
	if got := b.Available(id); got != 2 {
		t.Errorf("after resume Available = %d", got)
	}
	if notified != 1 {
		t.Errorf("resume notifications = %d, want 1", notified)
	}
	c, arr := b.Peek(id, 10)
	if c.Rows() != 2 || arr[0] != 50 {
		t.Errorf("flushed data = %v arr=%v", c, arr)
	}
	// Resume of an unpaused, empty-pending basket should not notify.
	b.Resume()
	if notified != 1 {
		t.Errorf("spurious notification, n = %d", notified)
	}
}

func TestOnAppendNotification(t *testing.T) {
	b := New("s", sch())
	ch := make(chan struct{}, 4)
	b.OnAppend(func() { ch <- struct{}{} })
	_ = b.Append(chunkOf(1), 0)
	select {
	case <-ch:
	default:
		t.Error("no notification")
	}
}

func TestPeekViewStableAcrossVacuum(t *testing.T) {
	b := New("s", sch())
	id := b.Register()
	for i := 0; i < vacuumThreshold+10; i++ {
		_ = b.Append(chunkOf(int64(i)), 0)
	}
	view, _ := b.Peek(id, 5)
	b.Consume(id, int64(vacuumThreshold+10)) // triggers vacuum & realloc
	if view.Row(0)[0].I != 0 || view.Row(4)[0].I != 4 {
		t.Error("old view corrupted by vacuum")
	}
}

// Arrival and sequence stamps fill in bulk; the stamp views PeekSeqs and
// SnapshotSeqs handed out earlier must keep their contents across later
// appends of every kind.
func TestStampViewsStableAcrossAppends(t *testing.T) {
	b := New("s", sch())
	id := b.Register()
	_ = b.Append(chunkOf(1, 2, 3), 100)
	_, arr, seqs := b.PeekSeqs(id, 10)
	_, snapSeqs := b.SnapshotSeqs()
	arr0 := append(bat.Ints(nil), arr...)
	seqs0 := append(bat.Ints(nil), seqs...)
	snap0 := append(bat.Ints(nil), snapSeqs...)

	_ = b.Append(chunkOf(4, 5), 200)
	_ = b.AppendSeqs(chunkOf(6, 7), 300, bat.Ints{10, 11})
	_ = b.AppendFetchSeqs(chunkOf(8, 9, 10), []int32{0, 2}, 400, bat.Ints{12, 13})
	_ = b.Append(chunkOf(11), 500)

	for i := range arr0 {
		if arr[i] != arr0[i] || seqs[i] != seqs0[i] || snapSeqs[i] != snap0[i] {
			t.Fatalf("handed-out stamp views changed: arrivals %v seqs %v snapshot %v", arr, seqs, snapSeqs)
		}
	}
	c, arr, seqs := b.PeekSeqs(id, 100)
	wantArr := []int64{100, 100, 100, 200, 200, 300, 300, 400, 400, 500}
	wantSeqs := []int64{0, 1, 2, 3, 4, 10, 11, 12, 13, 14}
	if c.Rows() != len(wantArr) {
		t.Fatalf("%d rows buffered, want %d", c.Rows(), len(wantArr))
	}
	for i := range wantArr {
		if arr[i] != wantArr[i] || seqs[i] != wantSeqs[i] {
			t.Fatalf("arrivals %v seqs %v, want %v %v", arr, seqs, wantArr, wantSeqs)
		}
	}
}

// Property-style concurrency test: concurrent appenders and one consumer;
// every appended tuple is seen exactly once, in order.
func TestConcurrentAppendConsume(t *testing.T) {
	b := New("s", sch())
	id := b.Register()
	const writers = 4
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_ = b.Append(chunkOf(int64(w)), 0)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	counts := make(map[int64]int)
	total := 0
	rng := rand.New(rand.NewSource(1))
	for total < writers*perWriter {
		c, _ := b.Peek(id, 1+rng.Intn(64))
		if c == nil {
			select {
			case <-done:
				c2, _ := b.Peek(id, writers*perWriter)
				if c2 == nil {
					if total != writers*perWriter {
						t.Fatalf("saw %d tuples, want %d", total, writers*perWriter)
					}
					break
				}
				c = c2
			default:
				continue
			}
		}
		rows := c.Rows()
		for i := 0; i < rows; i++ {
			counts[c.Row(i)[0].I]++
		}
		b.Consume(id, int64(rows))
		total += rows
	}
	for w := int64(0); w < writers; w++ {
		if counts[w] != perWriter {
			t.Errorf("writer %d: saw %d tuples, want %d", w, counts[w], perWriter)
		}
	}
}

func TestStats(t *testing.T) {
	b := New("str", sch())
	_ = b.Register()
	_ = b.Append(chunkOf(1, 2), 0)
	st := b.Stats()
	if st.Name != "str" || st.TotalIn != 2 || st.Len != 2 || st.Consumers != 1 || st.Paused {
		t.Errorf("stats = %+v", st)
	}
}
