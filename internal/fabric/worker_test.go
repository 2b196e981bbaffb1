package fabric

import (
	"bufio"
	"net"
	"testing"
	"time"

	"datacell"
	"datacell/internal/bat"
	"datacell/internal/emitter"
)

// scriptedLink is the coordinator end of one worker connection, driven
// frame by frame by a test.
type scriptedLink struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

// acceptWorker accepts the worker's next dial and reads its Hello.
func acceptWorker(t *testing.T, ln net.Listener) (*scriptedLink, emitter.Frame) {
	t.Helper()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	l := &scriptedLink{t: t, conn: conn, br: bufio.NewReader(conn)}
	f, err := emitter.ReadFrame(l.br)
	if err != nil || f.Type != frameHello {
		t.Fatalf("want Hello, got type %d err %v", f.Type, err)
	}
	return l, f
}

func (l *scriptedLink) write(f emitter.Frame) {
	l.t.Helper()
	if err := emitter.WriteFrame(l.conn, f); err != nil {
		l.t.Fatal(err)
	}
}

// TestFabricWorkerGapDropsConn pins the worker's handling of a sequence
// gap on its one link: a frame whose sequence skips past the receive
// cursor is not applied, the worker drops the connection, and its next
// Hello carries the unchanged cursor so the coordinator's resume replay
// fills the gap.
func TestFabricWorkerGapDropsConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	w := NewWorker(WorkerOptions{Coordinator: ln.Addr().String(), Index: 0})
	defer w.Close()

	schema := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	stream := func(name string) []byte {
		return marshalStream(streamMsg{Name: name, Schema: schema, Shards: 1, Lo: 0, Hi: 1})
	}
	hasStream := func(name string) bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.streams[name] != nil
	}

	l, hello := acceptWorker(t, ln)
	if hello.Seq != 0 {
		t.Fatalf("fresh worker Hello cursor = %d, want 0", hello.Seq)
	}
	l.write(emitter.Frame{Type: frameWelcome, Seq: 0})
	l.write(emitter.Frame{Type: frameStream, Seq: 1, Payload: stream("a")})
	// Sequence 2 never arrives: 3 is past the gap.
	l.write(emitter.Frame{Type: frameStream, Seq: 3, Payload: stream("b")})

	// The worker must drop the conn: reads end in an error, not a timeout.
	for {
		f, err := emitter.ReadFrame(l.br)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("worker kept the connection after a sequence gap")
			}
			break
		}
		if f.Type != frameAck {
			t.Fatalf("unexpected frame type %d from worker", f.Type)
		}
	}
	_ = l.conn.Close()

	if !hasStream("a") {
		t.Fatal("in-order frame 1 was not applied")
	}
	if hasStream("b") {
		t.Fatal("frame 3 past the gap was applied")
	}
	w.mu.Lock()
	applied := w.applied
	w.mu.Unlock()
	if applied != 1 {
		t.Fatalf("applied = %d, want 1", applied)
	}

	// The redial's Hello resumes from the unchanged cursor; replaying from
	// there delivers 2 and 3 in order.
	l, hello = acceptWorker(t, ln)
	defer l.conn.Close()
	if hello.Seq != 1 {
		t.Fatalf("Hello cursor after the gap = %d, want 1", hello.Seq)
	}
	l.write(emitter.Frame{Type: frameWelcome, Seq: 0})
	l.write(emitter.Frame{Type: frameStream, Seq: 2, Payload: stream("c")})
	l.write(emitter.Frame{Type: frameStream, Seq: 3, Payload: stream("b")})
	for deadline := time.Now().Add(5 * time.Second); !hasStream("b"); {
		if time.Now().After(deadline) {
			t.Fatal("replayed frames 2 and 3 were not applied")
		}
		time.Sleep(time.Millisecond)
	}
	if !hasStream("c") || w.sess.cursor() != 3 {
		t.Fatalf("after replay: stream c=%v cursor=%d, want true and 3", hasStream("c"), w.sess.cursor())
	}
}

// TestFabricHelloVersionMismatch: a peer speaking another protocol
// version is refused at the handshake instead of misreading frames, and
// the current version is welcomed.
func TestFabricHelloVersionMismatch(t *testing.T) {
	eng := datacell.New(&datacell.Options{Workers: 1})
	defer eng.Close()
	c, err := NewCoordinator(eng, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, v := range []int{protoVersion - 1, protoVersion + 1, protoVersion} {
		conn, err := net.Dial("tcp", c.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		hello := marshalHello(helloMsg{Version: v, Index: 0, ID: "probe"})
		if err := emitter.WriteFrame(conn, emitter.Frame{Type: frameHello, Payload: hello}); err != nil {
			t.Fatal(err)
		}
		f, err := emitter.ReadFrame(bufio.NewReader(conn))
		_ = conn.Close()
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("version %d: no answer to the Hello", v)
		}
		if welcomed := err == nil && f.Type == frameWelcome; welcomed != (v == protoVersion) {
			t.Fatalf("version %d (current %d): welcomed=%v", v, protoVersion, welcomed)
		}
	}
}
