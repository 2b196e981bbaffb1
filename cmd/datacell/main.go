// Command datacell runs an interactive DataCell instance: a SQL shell on
// stdin with the demo's control commands (plan inspection, query network,
// pause/resume), optionally also serving the same protocol over TCP for
// cmd/dcmon and remote clients, and optionally opening CSV receptors for
// streams.
//
// Usage:
//
//	datacell [-listen addr] [-metrics-listen addr] [-receptor stream=addr]...
//	         [-init file.sql]
//	         [-fabric-listen addr -fabric-workers n [-fabric-export stream]...]
//
// With -metrics-listen the instance serves a Prometheus-text /metrics
// endpoint covering basket occupancy and rates, query latencies, shared-
// group memo effectiveness, scheduler depths, tenant accounting and —
// when also a coordinator — fabric session health (see docs/METRICS.md).
//
// With -fabric-listen the instance doubles as a shard-fabric coordinator:
// exported streams' shard sets partition across dcworker processes, which
// run the sharded front ends and ship sealed basic windows back (see
// ARCHITECTURE.md, "Distributed shard fabric").
//
// Example session:
//
//	> CREATE STREAM s (ts TIMESTAMP, v FLOAT);
//	> REGISTER QUERY avg5 AS SELECT avg(v) FROM s [SIZE 100 SLIDE 20];
//	> \cplan avg5
//	> \network
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"datacell"
	"datacell/internal/basket"
	"datacell/internal/fabric"
	"datacell/internal/factory"
	"datacell/internal/metrics"
	"datacell/internal/monitor"
	"datacell/internal/receptor"
	"datacell/internal/scheduler"
	"datacell/internal/server"
)

type receptorFlags []string

func (r *receptorFlags) String() string { return strings.Join(*r, ",") }
func (r *receptorFlags) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	listen := flag.String("listen", "", "also serve the session protocol on this TCP address")
	initFile := flag.String("init", "", "SQL script to execute at startup")
	workers := flag.Int("workers", 4, "scheduler worker pool size")
	fabricListen := flag.String("fabric-listen", "",
		"run as shard-fabric coordinator: serve dcworker connections on this address")
	fabricWorkers := flag.Int("fabric-workers", 2,
		"with -fabric-listen: worker process count the shard ranges partition across")
	fabricFlushBytes := flag.Int("fabric-flush-bytes", 64<<10,
		"with -fabric-listen: staged append bytes per worker lane before a batch ships")
	fabricFlushDelay := flag.Duration("fabric-flush-delay", 2*time.Millisecond,
		"with -fabric-listen: max time appends wait in a lane before a batch ships")
	metricsListen := flag.String("metrics-listen", "",
		"serve a Prometheus-text /metrics endpoint on this address")
	var receptors receptorFlags
	flag.Var(&receptors, "receptor", "open a CSV receptor: stream=host:port (repeatable)")
	var fabricExports receptorFlags
	flag.Var(&fabricExports, "fabric-export",
		"with -fabric-listen: export a stream's shards to the fabric (repeatable; after -init DDL)")
	flag.Parse()

	eng := datacell.New(&datacell.Options{Workers: *workers})
	defer eng.Close()

	if *initFile != "" {
		src, err := os.ReadFile(*initFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "init:", err)
			os.Exit(1)
		}
		if _, err := eng.ExecScript(string(src)); err != nil {
			fmt.Fprintln(os.Stderr, "init:", err)
			os.Exit(1)
		}
		fmt.Printf("executed %s\n", *initFile)
	}

	var coord *fabric.Coordinator
	if *fabricListen != "" {
		var err error
		coord, err = fabric.NewCoordinator(eng, fabric.Options{
			Listen:     *fabricListen,
			Workers:    *fabricWorkers,
			FlushBytes: *fabricFlushBytes,
			FlushDelay: *fabricFlushDelay,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fabric:", err)
			os.Exit(1)
		}
		defer coord.Close()
		for _, name := range fabricExports {
			if err := coord.ExportStream(name); err != nil {
				fmt.Fprintln(os.Stderr, "fabric:", err)
				os.Exit(1)
			}
			fmt.Printf("fabric: stream %s exported\n", name)
		}
		fmt.Printf("fabric coordinator on %s (expecting %d workers; start them with: dcworker -join %s -index <i>)\n",
			coord.Addr(), *fabricWorkers, coord.Addr())
	} else if len(fabricExports) > 0 {
		fmt.Fprintln(os.Stderr, "-fabric-export requires -fabric-listen")
		os.Exit(1)
	}

	for _, spec := range receptors {
		name, addr, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "bad -receptor %q (want stream=addr)\n", spec)
			os.Exit(1)
		}
		// The gated appender throttles network ingest on tenant-bound
		// streams exactly like an AsTenant append (see docs/OPERATIONS.md).
		bk, err := eng.IngestAppender(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r, err := receptor.ListenTCP(addr, bk, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer r.Close()
		fmt.Printf("receptor for stream %s on %s\n", name, r.Addr())
	}

	if *metricsListen != "" {
		reg := metrics.NewRegistry()
		reg.MustRegister(eng.MetricsCollector())
		// The monitor supplies the derived per-interval rates; a bounded
		// lifetime sampler feeds it once a second.
		mon := monitor.NewCollector(func() ([]basket.Stats, []factory.Stats) {
			st := eng.Stats()
			return st.Baskets, st.Queries
		})
		mon.SetLimit(4)
		reg.MustRegister(mon.MetricsCollector())
		sampler := scheduler.NewTicker(time.Second, func(time.Time) { mon.Sample(eng.Now()) })
		defer sampler.Stop()
		if coord != nil {
			reg.MustRegister(coord.MetricsCollector())
		}
		msrv, err := metrics.Serve(*metricsListen, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Printf("serving /metrics on %s\n", msrv.Addr())
	}

	if *listen != "" {
		srv, err := server.Listen(eng, *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("serving session protocol on %s\n", srv.Addr())
	}

	fmt.Println("DataCell-Go — type \\help for commands, \\quit to exit")
	sess := server.NewSession(eng)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	fmt.Print("> ")
	for sc.Scan() {
		out, quit := sess.Dispatch(sc.Text())
		if out != "" {
			fmt.Println(out)
		}
		if quit {
			return
		}
		fmt.Print("> ")
	}
}
