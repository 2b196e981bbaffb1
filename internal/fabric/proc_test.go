package fabric_test

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"datacell"
	"datacell/internal/fabric"
	"datacell/internal/fabric/snapshot"
)

// buildWorkerBin compiles the dcworker binary into a temp dir.
func buildWorkerBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dcworker")
	build := exec.Command("go", "build", "-o", bin, "datacell/cmd/dcworker")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build dcworker: %v\n%s", err, out)
	}
	return bin
}

// workerLogDir is where worker process output lands: FABRIC_TEST_LOGDIR
// when set (CI uploads it as an artifact on failure), a test temp dir
// otherwise.
func workerLogDir(t *testing.T) string {
	t.Helper()
	if dir := os.Getenv("FABRIC_TEST_LOGDIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// TestFabricTwoProcess boots a coordinator in-process and two REAL worker
// processes (the dcworker binary) over loopback, runs the 16-query grouped
// workload, pins byte-identical results against a single-process run, and
// asserts both workers shut down cleanly (exit 0) on coordinator Close.
// This is the CI fabric-smoke entry point.
func TestFabricTwoProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs child processes; skipped with -short")
	}
	bin := buildWorkerBin(t)

	const members = 16
	const size, slide = 64, 16
	chunks := testChunks(400, 17, 5)
	ddl := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"
	local := runLocal(t, ddl, members, size, slide, chunks)

	eng := datacell.New(&datacell.Options{Workers: 1})
	defer eng.Close()
	coord, err := fabric.NewCoordinator(eng, fabric.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	if err := coord.ExportStream("s"); err != nil {
		t.Fatal(err)
	}

	procs := make([]*exec.Cmd, 2)
	for i := range procs {
		procs[i] = exec.Command(bin, "-join", coord.Addr(), "-index", fmt.Sprint(i))
		procs[i].Stdout = os.Stderr
		procs[i].Stderr = os.Stderr
		if err := procs[i].Start(); err != nil {
			t.Fatal(err)
		}
	}

	qs := make([]*datacell.Query, members)
	for i := range qs {
		q, err := eng.Register(fmt.Sprintf("q%02d", i), memberSQL(i, size, slide),
			&datacell.RegisterOptions{Mode: memberMode(i)})
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	for _, c := range chunks {
		if err := eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	coord.Drain()
	got := make([][]string, members)
	for i, q := range qs {
		got[i] = collectRendered(q)
	}
	assertSameResults(t, "two-process", got, local)

	// Orderly shutdown: Close broadcasts Bye; both workers must exit 0.
	coord.Close()
	for i, p := range procs {
		done := make(chan error, 1)
		go func() { done <- p.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker %d exited uncleanly: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			_ = p.Process.Kill()
			t.Fatalf("worker %d did not exit after coordinator Close", i)
		}
	}
}

// TestFabricWorkerKillRecovery is the fault-injection acceptance test for
// lossless recovery with REAL processes: dcworker children snapshotting to
// disk are SIGKILLed at seed-randomized points mid-epoch (no warning, no
// final checkpoint) and restarted with the same snapshot dir; after the
// dust settles, every query's windows are byte-identical to the
// single-process run — zero row loss, zero duplication. Worker output goes
// to per-incarnation log files (FABRIC_TEST_LOGDIR in CI) named in the
// failure message.
func TestFabricWorkerKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs child processes; skipped with -short")
	}
	bin := buildWorkerBin(t)
	logDir := workerLogDir(t)
	snapDir := t.TempDir()

	const members = 8
	const size, slide = 20, 10
	const seed = 7
	chunks := testChunks(800, 20, 4)
	ddl := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k"
	local := runLocal(t, ddl, members, size, slide, chunks)

	eng := datacell.New(&datacell.Options{Workers: 1})
	defer eng.Close()
	coord, err := fabric.NewCoordinator(eng, fabric.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := eng.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	if err := coord.ExportStream("s"); err != nil {
		t.Fatal(err)
	}

	var logs []string
	incarnation := 0
	start := func(index int) *exec.Cmd {
		incarnation++
		name := filepath.Join(logDir, fmt.Sprintf("worker-%d-run-%d.log", index, incarnation))
		logF, err := os.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, name)
		cmd := exec.Command(bin,
			"-join", coord.Addr(), "-index", fmt.Sprint(index),
			"-snapshot-dir", snapDir, "-snapshot-interval", "20ms")
		cmd.Stdout = logF
		cmd.Stderr = logF
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
			_ = logF.Close()
		})
		return cmd
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf(format+"\nworker logs: %v", append(args, logs)...)
	}

	procs := []*exec.Cmd{start(0), start(1)}
	qs := make([]*datacell.Query, members)
	for i := range qs {
		q, err := eng.Register(fmt.Sprintf("q%02d", i), memberSQL(i, size, slide),
			&datacell.RegisterOptions{Mode: memberMode(i)})
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}

	// Feed everything in one pass, SIGKILLing worker 1 at seed-randomized
	// chunk positions — mid-epoch by construction (slide 10, chunk 20: every
	// chunk leaves epochs open) — and restarting it a few chunks later. No
	// drain around the kills: the fabric must absorb them in full flight.
	r := rand.New(rand.NewSource(seed))
	nKills := 3
	killAt := make(map[int]bool, nKills)
	for len(killAt) < nKills {
		killAt[5+r.Intn(len(chunks)-10)] = true
	}
	restartGap := 0
	hadSnapshot := 0
	kills := 0
	for ci, c := range chunks {
		// A kill point landing while the worker is still down (restartGap
		// counting) is skipped — there is nothing to shoot.
		if killAt[ci] && restartGap == 0 {
			// Let the 20ms snapshot ticker land somewhere nondeterministic
			// relative to the kill, then shoot the process.
			time.Sleep(time.Duration(5+r.Intn(40)) * time.Millisecond)
			if err := procs[1].Process.Kill(); err != nil {
				fail("SIGKILL worker 1: %v", err)
			}
			_, _ = procs[1].Process.Wait()
			kills++
			if _, err := os.Stat(snapshot.FileName(snapDir, 1)); err == nil {
				hadSnapshot++
			}
			restartGap = 3 + r.Intn(5)
		}
		if restartGap > 0 {
			if restartGap--; restartGap == 0 {
				procs[1] = start(1)
			}
		}
		if err := eng.Append("s", c); err != nil {
			t.Fatal(err)
		}
	}
	if restartGap > 0 {
		procs[1] = start(1)
	}
	coord.Drain()

	got := make([][]string, members)
	for i, q := range qs {
		got[i] = collectRendered(q)
	}
	for i := range local {
		if len(got[i]) != len(local[i]) {
			fail("member %d sealed %d windows, local %d (row loss or duplication across SIGKILL)",
				i, len(got[i]), len(local[i]))
		}
		for j := range local[i] {
			if got[i][j] != local[i][j] {
				fail("member %d eval %d diverges after SIGKILL recovery:\nfabric:\n%s\nlocal:\n%s",
					i, j, got[i][j], local[i][j])
			}
		}
	}
	if kills == 0 {
		fail("no kill ever fired; the test exercised nothing")
	}
	t.Logf("killed worker 1 %d times (%d with a snapshot on disk), results byte-identical", kills, hadSnapshot)
}
