package main

import (
	"fmt"
	"time"

	"datacell"
	"datacell/internal/fabric"
	"datacell/internal/linearroad"
)

// workload is one input set the benchmark runs. Every chunk a source
// yields is exactly one base bucket of the reference (4096 sensor tuples,
// or 30 simulated seconds of position reports), so chunk indexes and
// window generations convert by arithmetic alone.
type workload struct {
	name    string
	why     string
	stream  string
	ddl     string
	queries []string
	refs    []refQuery // one per query, same order
	fabric  bool
	// sealLag is how many base buckets after a window's last one must
	// arrive before it seals: 0 for tuple windows (the chunk that fills
	// the slide seals it), 1 for event-time windows (the next bucket's
	// timestamps move the watermark).
	sealLag int64
	// warmChunks are appended untimed before the closed loop; segChunks
	// are appended per closed-loop segment, each followed by a drain.
	warmChunks, segChunks int64
	// closedMaxChunks, when positive, ends the closed loop early. The
	// fabric coordinator keeps every routed frame for replay while its
	// worker does not checkpoint, so its heap grows with every tuple;
	// the cap bounds it.
	closedMaxChunks int64
	// pacedChunksPerSec is the open-loop send rate. It is fixed, not
	// derived from the measured capacity, so two commits see the same
	// offered load; it sits well below the closed-loop capacity.
	pacedChunksPerSec float64
	source            func(seed int64) source
	reference         func(seed int64, chunks int64) [][]expected
	// closesTrailing is true when the last windows need AdvanceTime after
	// the input ends (event-time windows).
	closesTrailing bool
}

// firstGen and lastGen bound the generations of query qi's windows that
// the first n chunks have sealed: a window's last slide is gen, and it
// seals once chunk (gen+1)*slide-1+sealLag has been appended.
func (w *workload) firstGen(qi int) int64 { return int64(w.refs[qi].parts - 1) }

func (w *workload) lastGen(qi int, n int64) int64 {
	return (n-w.sealLag)/int64(w.refs[qi].slide) - 1
}

// sealedBy counts query qi's windows sealed by the first n chunks.
func (w *workload) sealedBy(qi int, n int64) int64 {
	if c := w.lastGen(qi, n) - w.firstGen(qi) + 1; c > 0 {
		return c
	}
	return 0
}

// completingChunk is the chunk whose append seals window gen of query qi.
func (w *workload) completingChunk(qi int, gen int64) int64 {
	return (gen+1)*int64(w.refs[qi].slide) - 1 + w.sealLag
}

func sensorWorkload(name, why, ddl string, qs []sensorQuery) *workload {
	w := &workload{
		name: name, why: why, stream: "s", ddl: ddl,
		source:    func(seed int64) source { return newSensorSource(seed, sensorSlide) },
		reference: func(seed, chunks int64) [][]expected { return sensorReference(seed, chunks*sensorSlide, qs) },
	}
	for _, q := range qs {
		w.queries = append(w.queries, q.sql())
		w.refs = append(w.refs, q.ref())
	}
	return w
}

func workloads() []*workload {
	var all, diag []sensorQuery
	for f := range sensorFilters {
		for h := range sensorHavings {
			all = append(all, sensorQuery{f, h})
		}
		diag = append(diag, sensorQuery{f, f})
	}
	fanout := sensorWorkload("fanout",
		"64 standing grouped aggregates on one unsharded stream: factory sharing and kernels do the work",
		"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT)", all)
	fanout.warmChunks, fanout.segChunks, fanout.pacedChunksPerSec = 64, 64, 100

	fab := sensorWorkload("fabric",
		"8 of fanout's queries over a 2-shard stream exported to one loopback worker: the wire does the work",
		"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 2 KEY k", diag)
	fab.fabric = true
	fab.warmChunks, fab.segChunks, fab.pacedChunksPerSec = 64, 32, 50
	fab.closedMaxChunks = 768

	lroad := &workload{
		name:   "lroad",
		why:    "Linear Road on 4 expressways, 2 shards by segment: event-time windows, routing and sealing do the work",
		stream: "lr_pos",
		ddl:    linearroad.CreateStreamSQL + " SHARD 2 KEY seg",
		queries: []string{
			linearroad.SegmentStatsSQL(), linearroad.VehicleCountSQL(), linearroad.AccidentSQL(),
		},
		refs:           lrRefs(),
		sealLag:        1,
		closesTrailing: true,
		source:         func(seed int64) source { return newLRSource(seed, lrBaseSec) },
		reference: func(seed, chunks int64) [][]expected {
			return lrReference(seed, lrBaseSec, chunks, chunks*lrBaseSec)
		},
	}
	lroad.warmChunks, lroad.segChunks, lroad.pacedChunksPerSec = 64, 32, 100
	return []*workload{fanout, lroad, fab}
}

// sut is the system under test as one workload sets it up: an engine,
// and for the fabric workload a coordinator with one loopback worker.
type sut struct {
	eng    *datacell.Engine
	coord  *fabric.Coordinator
	worker *fabric.Worker
	qs     []*datacell.Query
}

// setup starts the engine, runs the DDL, registers every query and, on
// the fabric workload, waits for the worker handshake. This is what
// setup_s times.
func setup(w *workload, workers int, tr *tracer) (*sut, error) {
	root := tr.begin("setup", -1)
	defer tr.end(root)
	s := &sut{eng: datacell.New(&datacell.Options{Workers: workers})}
	if w.fabric {
		c, err := fabric.NewCoordinator(s.eng, fabric.Options{Workers: 1})
		if err != nil {
			s.eng.Close()
			return nil, err
		}
		s.coord = c
	}
	sp := tr.begin("Exec", root)
	_, err := s.eng.Exec(w.ddl)
	tr.end(sp)
	if err == nil && w.fabric {
		if err = s.coord.ExportStream(w.stream); err == nil {
			// No checkpoints: with them, Coordinator.Drain wedged in two
			// of three 16 s runs (see README.md).
			s.worker = fabric.NewWorker(fabric.WorkerOptions{Coordinator: s.coord.Addr(), Index: 0})
		}
	}
	for i := 0; err == nil && i < len(w.queries); i++ {
		var q *datacell.Query
		sp := tr.begin("RegisterQuery", root)
		q, err = s.eng.RegisterQuery(fmt.Sprintf("q%02d", i), w.queries[i])
		tr.end(sp)
		s.qs = append(s.qs, q)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	if w.fabric {
		sp := tr.begin("Coordinator.Drain", root)
		s.coord.Drain()
		tr.end(sp)
	}
	return s, nil
}

// drain waits until every appended tuple has been evaluated and every
// result emitted.
func (s *sut) drain() {
	if s.coord != nil {
		s.coord.Drain()
		return
	}
	s.eng.Drain()
}

func (s *sut) close() {
	if s.coord != nil {
		s.coord.Close()
	}
	if s.worker != nil {
		s.worker.Close()
		select {
		case <-s.worker.Done():
		case <-time.After(5 * time.Second):
		}
	}
	s.eng.Close()
}
