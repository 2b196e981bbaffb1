package receptor

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
)

func sch() bat.Schema {
	return bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
}

func TestParseLine(t *testing.T) {
	vals, err := ParseLine(sch(), "123, 7, 2.5")
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].I != 123 || vals[1].I != 7 || vals[2].F != 2.5 {
		t.Errorf("vals = %v", vals)
	}
	if _, err := ParseLine(sch(), "1,2"); err == nil {
		t.Error("short line should fail")
	}
	if _, err := ParseLine(sch(), "1,x,3.0"); err == nil {
		t.Error("bad int should fail")
	}
}

func TestReplayCSV(t *testing.T) {
	bk := basket.New("s", sch())
	id := bk.Register()
	src := `# comment
1,1,0.5
2,2,1.5

3,3,2.5
`
	n, err := ReplayCSV(strings.NewReader(src), bk, 2, func() int64 { return 9 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("replayed %d tuples", n)
	}
	var c *bat.Chunk
	var arr bat.Ints
	bk.ConsumeEach(id, func(cc *bat.Chunk, a, _ bat.Ints) { c, arr = cc, a })
	if c.Rows() != 3 || arr[0] != 9 {
		t.Errorf("basket = %v arr=%v", c, arr)
	}
}

func TestReplayCSVErrors(t *testing.T) {
	bk := basket.New("s", sch())
	_, err := ReplayCSV(strings.NewReader("1,1,0.5\nbad,line\n"), bk, 10, nil)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v", err)
	}
}

func TestTCPReceptor(t *testing.T) {
	bk := basket.New("s", sch())
	id := bk.Register()
	r, err := ListenTCP("127.0.0.1:0", bk, func() int64 { return 5 })
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(conn, "1,1,0.5")
	fmt.Fprintln(conn, "oops,not,good")
	fmt.Fprintln(conn, "# comment")
	fmt.Fprintln(conn, "2,2,1.5")
	_ = conn.Close()

	deadline := time.Now().Add(2 * time.Second)
	for r.Received() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if r.Received() != 2 {
		t.Fatalf("received = %d", r.Received())
	}
	if r.BadLines() != 1 {
		t.Errorf("bad lines = %d", r.BadLines())
	}
	var c *bat.Chunk
	bk.ConsumeEach(id, func(cc *bat.Chunk, _, _ bat.Ints) { c = cc })
	if c.Rows() != 2 || c.Row(1)[2].F != 1.5 {
		t.Errorf("basket contents = %v", c)
	}
}

func TestTCPReceptorMultipleConns(t *testing.T) {
	bk := basket.New("s", sch())
	_ = bk.Register()
	r, err := ListenTCP("127.0.0.1:0", bk, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const conns = 4
	const per = 25
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		go func(c net.Conn, base int) {
			for j := 0; j < per; j++ {
				fmt.Fprintf(c, "%d,%d,1.0\n", base+j, base+j)
			}
			_ = c.Close()
		}(conn, i*1000)
	}
	deadline := time.Now().Add(3 * time.Second)
	for r.Received() < conns*per && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if r.Received() != conns*per {
		t.Errorf("received = %d, want %d", r.Received(), conns*per)
	}
}

func TestRatedReplay(t *testing.T) {
	bk := basket.New("s", sch())
	_ = bk.Register()
	var src []*bat.Chunk
	for i := 0; i < 5; i++ {
		c := bat.NewChunk(sch())
		for j := 0; j < 20; j++ {
			_ = c.AppendRow(bat.TimeValue(int64(i*20+j)), bat.IntValue(int64(j)), bat.FloatValue(1))
		}
		src = append(src, c)
	}
	// 100 tuples at 1000/s should take ~100ms.
	sent, took := RatedReplay(bk, src, 1000, nil, nil)
	if sent != 100 {
		t.Errorf("sent = %d", sent)
	}
	if took < 60*time.Millisecond {
		t.Errorf("rate not limited: took %v", took)
	}
	if got := bk.Stats().TotalIn; got != 100 {
		t.Errorf("basket in = %d", got)
	}
}

func TestRatedReplayStop(t *testing.T) {
	bk := basket.New("s", sch())
	_ = bk.Register()
	var src []*bat.Chunk
	for i := 0; i < 100; i++ {
		c := bat.NewChunk(sch())
		_ = c.AppendRow(bat.TimeValue(int64(i)), bat.IntValue(1), bat.FloatValue(1))
		src = append(src, c)
	}
	stop := make(chan struct{})
	close(stop)
	sent, _ := RatedReplay(bk, src, 10, stop, nil)
	if sent != 0 {
		t.Errorf("sent = %d after immediate stop", sent)
	}
}

func TestRatedReplayUnlimited(t *testing.T) {
	bk := basket.New("s", sch())
	_ = bk.Register()
	c := bat.NewChunk(sch())
	_ = c.AppendRow(bat.TimeValue(1), bat.IntValue(1), bat.FloatValue(1))
	sent, _ := RatedReplay(bk, []*bat.Chunk{c, c, c}, 0, nil, nil)
	if sent != 3 {
		t.Errorf("sent = %d", sent)
	}
}
