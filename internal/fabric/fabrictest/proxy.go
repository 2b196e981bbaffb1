// Package fabrictest provides reusable fault injection for fabric tests:
// TCP proxies that sit between a worker and its coordinator and cut,
// delay or duplicate traffic on a reproducible schedule. The fabric's
// recovery contract — any fault schedule yields output byte-identical to
// the fault-free run — is proven by driving workloads through these
// proxies (fabric_test.go, proc_test.go).
//
// The package is protocol-agnostic on purpose: it parses the emitter
// frame envelope but knows nothing about the fabric's frame vocabulary.
// Whether a frame is safe to duplicate (control frames are not) is the
// caller's call, supplied as a predicate — see fabric.DupSafe.
package fabrictest

import (
	"bytes"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"datacell/internal/emitter"
)

// FaultKind is one class of injected fault.
type FaultKind int

const (
	// FaultCut severs the connection mid-frame: the frame's header and
	// half its payload are delivered, then both directions die. The peer
	// is left holding a torn frame, exactly like a real link loss.
	FaultCut FaultKind = iota
	// FaultDelay stalls the stream before forwarding the frame (head-of-
	// line, as TCP would).
	FaultDelay
	// FaultDup forwards the frame twice, if the proxy's DupOK predicate
	// allows it for this frame (session frames dedup by sequence; control
	// frames must not be duplicated).
	FaultDup
)

func (k FaultKind) String() string {
	switch k {
	case FaultCut:
		return "cut"
	case FaultDelay:
		return "delay"
	case FaultDup:
		return "dup"
	}
	return "?"
}

// Fault is one scheduled fault: when frame ordinal Frame (1-based,
// counted per direction, ACROSS reconnects — the counter survives a cut)
// passes through the proxy in its schedule's direction, apply Kind. A
// duplicate fault landing on a frame the DupOK predicate rejects (a
// control frame) is deferred to the next dup-safe frame rather than
// silently dropped, so every scheduled fault eventually fires as long as
// enough frames flow.
type Fault struct {
	Frame int
	Kind  FaultKind
	Delay time.Duration // FaultDelay only
}

// Schedule is a reproducible fault plan; the proxy applies it in frame
// order regardless of the order given here.
type Schedule []Fault

// RandomSchedule derives a fault plan from a seeded source: n faults at
// distinct frame ordinals in [1, maxFrame], with at least one cut so the
// schedule actually exercises a reconnect. Same source state, same
// schedule — failures reproduce from the seed.
func RandomSchedule(r *rand.Rand, n, maxFrame int) Schedule {
	if maxFrame < n {
		maxFrame = n
	}
	ordinals := r.Perm(maxFrame)[:n]
	s := make(Schedule, n)
	anyCut := false
	for i := range s {
		k := FaultKind(r.Intn(3))
		if k == FaultCut {
			anyCut = true
		}
		s[i] = Fault{
			Frame: 1 + ordinals[i],
			Kind:  k,
			Delay: time.Duration(1+r.Intn(20)) * time.Millisecond,
		}
	}
	if !anyCut && n > 0 {
		s[r.Intn(n)].Kind = FaultCut
	}
	return s
}

// Direction names one way through a FaultProxy.
type Direction int

const (
	// Up is the dialer → target direction (worker → coordinator).
	Up Direction = iota
	// Down is the target → dialer direction (coordinator → worker).
	Down
)

// FaultProxy is a frame-aware TCP proxy applying one Schedule to each
// direction. A cut in either direction kills both.
type FaultProxy struct {
	ln     net.Listener
	target string
	// DupOK gates FaultDup per frame. nil means never duplicate.
	DupOK func(emitter.Frame) bool

	mu     sync.Mutex
	dirs   [2]faultDir // indexed by Direction
	wg     sync.WaitGroup
	conns  map[net.Conn]bool
	closed bool
}

// faultDir is one direction's schedule and progress (guarded by the
// proxy's mu).
type faultDir struct {
	schedule  Schedule // sorted by Frame
	frameNo   int      // frames seen in this direction, across connections
	nextFault int      // index into schedule of the next pending fault
	dupOwed   bool
	triggered int
}

// NewFaultProxy listens on loopback and forwards to target, applying up
// to the dialer → target frames and down to the target → dialer frames.
// Set DupOK before the first connection arrives.
func NewFaultProxy(target string, up, down Schedule) (*FaultProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &FaultProxy{ln: ln, target: target, conns: make(map[net.Conn]bool)}
	for d, sch := range []Schedule{up, down} {
		sorted := append(Schedule(nil), sch...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Frame < sorted[j].Frame })
		p.dirs[d].schedule = sorted
	}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr is the address workers should dial instead of the coordinator.
func (p *FaultProxy) Addr() string { return p.ln.Addr().String() }

// Triggered reports how many scheduled faults actually fired in one
// direction — tests assert it is nonzero, or the run proved nothing.
func (p *FaultProxy) Triggered(d Direction) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dirs[d].triggered
}

// Close stops the proxy and severs every live connection.
func (p *FaultProxy) Close() {
	p.mu.Lock()
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	_ = p.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	p.wg.Wait()
}

func (p *FaultProxy) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return
		}
		p.conns[conn] = true
		p.mu.Unlock()
		p.wg.Add(1)
		go p.pipe(conn)
	}
}

func (p *FaultProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = true
	p.mu.Unlock()
}

func (p *FaultProxy) untrack(cs ...net.Conn) {
	p.mu.Lock()
	for _, c := range cs {
		delete(p.conns, c)
	}
	p.mu.Unlock()
}

// faultFor advances one direction's frame counter for one forwarded
// frame and reports the fault to apply to it, if any. A pending duplicate
// that the predicate rejected earlier (dupOwed) fires on the first
// dup-safe frame.
func (p *FaultProxy) faultFor(d Direction, f emitter.Frame) *Fault {
	dupSafe := p.DupOK != nil && p.DupOK(f)
	p.mu.Lock()
	defer p.mu.Unlock()
	fd := &p.dirs[d]
	fd.frameNo++
	if fd.dupOwed {
		if !dupSafe {
			return nil
		}
		fd.dupOwed = false
		fd.triggered++
		return &Fault{Kind: FaultDup}
	}
	if fd.nextFault >= len(fd.schedule) || fd.frameNo < fd.schedule[fd.nextFault].Frame {
		return nil
	}
	fl := &fd.schedule[fd.nextFault]
	fd.nextFault++
	if fl.Kind == FaultDup && !dupSafe {
		fd.dupOwed = true
		return nil
	}
	fd.triggered++
	return fl
}

func (p *FaultProxy) pipe(client net.Conn) {
	defer p.wg.Done()
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		_ = client.Close()
		return
	}
	p.track(upstream)
	kill := func() {
		_ = client.Close()
		_ = upstream.Close()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer kill()
		p.forward(Up, client, upstream)
	}()
	go func() {
		defer wg.Done()
		defer kill()
		p.forward(Down, upstream, client)
	}()
	wg.Wait()
	p.untrack(client, upstream)
}

// forward copies frames from src to dst, applying direction d's faults,
// until either side fails or a cut fires.
func (p *FaultProxy) forward(d Direction, src, dst net.Conn) {
	for {
		f, err := emitter.ReadFrame(src)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := emitter.WriteFrame(&buf, f); err != nil {
			return
		}
		raw := buf.Bytes()
		if fl := p.faultFor(d, f); fl != nil {
			switch fl.Kind {
			case FaultCut:
				// Deliver a torn frame: header plus half the payload.
				_, _ = dst.Write(raw[:len(raw)-len(f.Payload)/2-1])
				time.Sleep(5 * time.Millisecond)
				return
			case FaultDelay:
				time.Sleep(fl.Delay)
			case FaultDup:
				if _, err := dst.Write(raw); err != nil {
					return
				}
			}
		}
		if _, err := dst.Write(raw); err != nil {
			return
		}
	}
}
