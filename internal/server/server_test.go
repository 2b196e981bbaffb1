package server

import (
	"fmt"
	"strings"
	"testing"

	"datacell"
)

func newEngine(t *testing.T) *datacell.Engine {
	t.Helper()
	e := datacell.New(&datacell.Options{Workers: 2})
	t.Cleanup(e.Close)
	return e
}

func TestSessionSQLAndErrors(t *testing.T) {
	s := NewSession(newEngine(t))
	out, quit := s.Dispatch("CREATE STREAM s (ts TIMESTAMP, v INT);")
	if quit || !strings.Contains(out, "stream s created") {
		t.Fatalf("create: %q", out)
	}
	out, _ = s.Dispatch("INSERT INTO s VALUES (1, 5)")
	if !strings.Contains(out, "1 row(s)") {
		t.Errorf("insert: %q", out)
	}
	out, _ = s.Dispatch("SELECT v FROM s")
	if !strings.Contains(out, "5") {
		t.Errorf("select: %q", out)
	}
	out, _ = s.Dispatch("SELEC nonsense")
	if !strings.Contains(out, "error:") {
		t.Errorf("bad sql: %q", out)
	}
	if out, _ := s.Dispatch(""); out != "" {
		t.Errorf("empty input: %q", out)
	}
}

func TestSessionQueryLifecycle(t *testing.T) {
	s := NewSession(newEngine(t))
	s.Dispatch("CREATE STREAM s (ts TIMESTAMP, v INT)")
	out, _ := s.Dispatch("REGISTER QUERY q AS SELECT sum(v) AS t FROM s [SIZE 2 SLIDE 2]")
	if !strings.Contains(out, "registered (incremental)") {
		t.Fatalf("register: %q", out)
	}
	if out, _ := s.Dispatch(`\queries`); out != "q" {
		t.Errorf("queries: %q", out)
	}
	if out, _ := s.Dispatch(`\plan q`); !strings.Contains(out, "scan stream") {
		t.Errorf("plan: %q", out)
	}
	if out, _ := s.Dispatch(`\cplan q`); !strings.Contains(out, "basic window") {
		t.Errorf("cplan: %q", out)
	}
	s.Dispatch("INSERT INTO s VALUES (1, 3), (2, 4)")
	s.eng.Drain()
	out, _ = s.Dispatch(`\results q 5`)
	if !strings.Contains(out, "7") {
		t.Errorf("results: %q", out)
	}
	if out, _ := s.Dispatch(`\results q`); !strings.Contains(out, "no pending") {
		t.Errorf("drained results: %q", out)
	}
	if out, _ := s.Dispatch(`\stats q`); !strings.Contains(out, "evals=1") {
		t.Errorf("stats: %q", out)
	}
	if out, _ := s.Dispatch(`\pause q`); out != "paused" {
		t.Errorf("pause: %q", out)
	}
	if out, _ := s.Dispatch(`\resume q`); out != "resumed" {
		t.Errorf("resume: %q", out)
	}
	if out, _ := s.Dispatch(`\plan ghost`); !strings.Contains(out, "error") {
		t.Errorf("ghost plan: %q", out)
	}
}

func TestSessionControlCommands(t *testing.T) {
	s := NewSession(newEngine(t))
	s.Dispatch("CREATE STREAM s (ts TIMESTAMP, v INT)")
	if out, _ := s.Dispatch(`\catalog`); !strings.Contains(out, "stream s") {
		t.Errorf("catalog: %q", out)
	}
	if out, _ := s.Dispatch(`\network`); !strings.Contains(out, "baskets:") {
		t.Errorf("network: %q", out)
	}
	if out, _ := s.Dispatch(`\queries`); out != "(none)" {
		t.Errorf("queries: %q", out)
	}
	if out, _ := s.Dispatch(`\pause-stream s`); out != "stream paused" {
		t.Errorf("pause-stream: %q", out)
	}
	if out, _ := s.Dispatch(`\resume-stream s`); out != "stream resumed" {
		t.Errorf("resume-stream: %q", out)
	}
	if out, _ := s.Dispatch(`\pause-stream ghost`); !strings.Contains(out, "error") {
		t.Errorf("ghost stream: %q", out)
	}
	if out, _ := s.Dispatch(`\advance 1000000`); out != "advanced" {
		t.Errorf("advance: %q", out)
	}
	if out, _ := s.Dispatch(`\advance nope`); !strings.Contains(out, "error") {
		t.Errorf("bad advance: %q", out)
	}
	if out, _ := s.Dispatch(`\bogus`); !strings.Contains(out, "unknown command") {
		t.Errorf("bogus: %q", out)
	}
	if out, _ := s.Dispatch(`\help`); !strings.Contains(out, "commands:") {
		t.Errorf("help: %q", out)
	}
	out, quit := s.Dispatch(`\quit`)
	if !quit || out != "bye" {
		t.Errorf("quit: %q %v", out, quit)
	}
	if got := SortedCommands(); len(got) != 18 {
		t.Errorf("commands = %d", len(got))
	}
}

// TestSessionTenantsCommand: \tenants renders per-tenant accounting once
// a quota or tagged registration exists.
func TestSessionTenantsCommand(t *testing.T) {
	eng := newEngine(t)
	s := NewSession(eng)
	if out, _ := s.Dispatch(`\tenants`); out != "(none)" {
		t.Errorf("empty tenants: %q", out)
	}
	s.Dispatch("CREATE STREAM s (ts TIMESTAMP, v FLOAT);")
	eng.SetTenantQuota("acme", datacell.TenantQuota{MaxQueries: 3})
	if out, _ := s.Dispatch("REGISTER QUERY q TENANT acme AS SELECT avg(v) FROM s [SIZE 4 SLIDE 4]"); !strings.Contains(out, "registered") {
		t.Fatalf("register: %q", out)
	}
	out, _ := s.Dispatch(`\tenants`)
	if !strings.Contains(out, "acme") || !strings.Contains(out, "queries=1/3") {
		t.Errorf("tenants: %q", out)
	}
}

// TestSessionFabricCommand: \fabric reports the no-fabric placeholder on a
// plain engine (the attached case is covered by the fabric tests).
func TestSessionFabricCommand(t *testing.T) {
	s := NewSession(newEngine(t))
	if out, _ := s.Dispatch(`\fabric`); !strings.Contains(out, "no fabric attached") {
		t.Errorf("fabric: %q", out)
	}
}

// TestGroupsJoinPostShared: a 16-member shared-join workload — identical
// side pipelines and join, per-member post fragments above the join —
// reports a join group's real Group.PostStats through \groups: post-
// merge trie nodes exist, the merged join view and the shared HAVING
// fragments hit for 15 of every 16 member requests, and nothing renders
// as n/a anymore.
func TestGroupsJoinPostShared(t *testing.T) {
	eng := newEngine(t)
	s := NewSession(eng)
	for _, sql := range []string{
		"CREATE STREAM l (ts TIMESTAMP, k INT, v FLOAT);",
		"CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT);",
	} {
		if out, _ := s.Dispatch(sql); strings.Contains(out, "error") {
			t.Fatalf("%s: %q", sql, out)
		}
	}
	for j := 0; j < 16; j++ {
		sql := fmt.Sprintf(
			"REGISTER QUERY j%02d AS SELECT l.k, count(*) AS n FROM l [SIZE 4 SLIDE 2], r [SIZE 4 SLIDE 2] WHERE l.k = r.k GROUP BY l.k HAVING count(*) > %d", j, j%3)
		if out, _ := s.Dispatch(sql); strings.Contains(out, "error") {
			t.Fatalf("%s: %q", sql, out)
		}
	}
	for i := 0; i < 16; i++ {
		s.Dispatch(fmt.Sprintf("INSERT INTO l VALUES (%d, %d, 1.0), (%d, %d, 2.0)", i, i%3, i, (i+1)%3))
		s.Dispatch(fmt.Sprintf("INSERT INTO r VALUES (%d, %d, 3.0), (%d, %d, 4.0)", i, i%3, i, (i+2)%3))
	}
	eng.Drain()

	out, _ := s.Dispatch(`\groups`)
	if !strings.Contains(out, "kind=join") {
		t.Fatalf("no join group in %q", out)
	}
	if strings.Contains(out, "n/a") {
		t.Errorf("join group still renders an n/a stat: %q", out)
	}
	var g datacell.GroupInfo
	found := false
	for _, gi := range eng.Groups() {
		if gi.Kind == "join" {
			g, found = gi, true
		}
	}
	if !found {
		t.Fatal("no join group snapshot")
	}
	if g.MergeClasses == 0 || g.PostNodes == 0 {
		t.Fatalf("join sharing not engaged: classes=%d post_nodes=%d (%q)",
			g.MergeClasses, g.PostNodes, out)
	}
	if g.MergeHits == 0 || g.MergeHitRate() < 0.5 {
		t.Errorf("merged-view hit rate = %.2f (hits=%d misses=%d), want most requests served shared",
			g.MergeHitRate(), g.MergeHits, g.MergeMisses)
	}
	if g.PostHits == 0 || g.PostHitRate() < 0.5 {
		t.Errorf("post-merge hit rate = %.2f (hits=%d misses=%d), want most fragments served shared",
			g.PostHitRate(), g.PostHits, g.PostMisses)
	}
}

func TestServerOverTCP(t *testing.T) {
	e := newEngine(t)
	srv, err := Listen(e, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out, err := c.Call("CREATE STREAM s (ts TIMESTAMP, v INT)")
	if err != nil || !strings.Contains(out, "created") {
		t.Fatalf("create over tcp: %q %v", out, err)
	}
	out, err = c.Call("REGISTER QUERY q AS SELECT v FROM s")
	if err != nil || !strings.Contains(out, "registered") {
		t.Fatalf("register: %q %v", out, err)
	}
	if out, _ = c.Call("INSERT INTO s VALUES (1, 9)"); !strings.Contains(out, "1 row") {
		t.Fatalf("insert: %q", out)
	}
	e.Drain()
	out, err = c.Call(`\results q`)
	if err != nil || !strings.Contains(out, "9") {
		t.Fatalf("results: %q %v", out, err)
	}
	// Second client shares the engine.
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	out, err = c2.Call(`\network`)
	if err != nil || !strings.Contains(out, "q") {
		t.Fatalf("second client network: %q %v", out, err)
	}
	// \quit closes the session.
	if out, err := c.Call(`\quit`); err != nil || out != "bye" {
		t.Fatalf("quit: %q %v", out, err)
	}
	srv.Close()
	srv.Close() // idempotent
}

func TestShardsCommand(t *testing.T) {
	eng := datacell.New(nil)
	defer eng.Close()
	s := NewSession(eng)
	s.Dispatch("CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 4 KEY k")
	s.Dispatch("INSERT INTO s VALUES (1, 1, 1.0), (2, 2, 2.0), (3, 3, 3.0)")
	out, _ := s.Dispatch(`\shards s`)
	if !strings.Contains(out, "shards=4") || !strings.Contains(out, "route=hash(k)") ||
		!strings.Contains(out, "settled=3") || !strings.Contains(out, "s/0") {
		t.Errorf("\\shards output:\n%s", out)
	}
	if out, _ := s.Dispatch(`\shards ghost`); !strings.HasPrefix(out, "error:") {
		t.Errorf("unknown stream: %q", out)
	}
}
