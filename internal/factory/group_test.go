package factory

import (
	"testing"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/catalog"
	"datacell/internal/emitter"
	"datacell/internal/plan"
	"datacell/internal/sql"
)

// sharedFactory builds an incremental group-member factory for src, a
// query over one windowed stream, and returns it with its stream scan.
func sharedFactory(t *testing.T, cat *catalog.Catalog, name, src string, out emitter.Emitter) (*Factory, *plan.ScanStream) {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bound, err := plan.Bind(cat, stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	opt := plan.Optimize(bound)
	d, err := plan.Decompose(opt)
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	scan := plan.Streams(opt)[0]
	now := int64(0)
	fac, err := New(Config{
		Name: name, Full: opt, Decomp: d, Mode: Incremental, Shared: true,
		Emit: out, Now: func() int64 { now++; return now },
	}, map[*plan.ScanStream]*basket.Sharded{scan: scan.Stream.Basket})
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	return fac, scan
}

// TestAggregateMemberRingHoldsPartialsOnly: a grouped aggregate member
// resolves only its partial-aggregate node through the shared DAG. Its
// ring slots carry partials and no pipeline output, and the filter leaf
// feeding the aggregate is never materialized — by either member.
func TestAggregateMemberRingHoldsPartialsOnly(t *testing.T) {
	cat := catalog.New()
	s, err := cat.CreateStream("s", bat.NewSchema(
		[]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float}))
	if err != nil {
		t.Fatal(err)
	}
	out := emitter.NewChannel(64)
	const q = "SELECT k, sum(v) AS sv, count(*) AS n FROM s [SIZE 8 SLIDE 4] WHERE v > 1.0 GROUP BY k"
	fac1, scan := sharedFactory(t, cat, "q1", q, out)
	fac2, _ := sharedFactory(t, cat, "q2", q+" HAVING count(*) > 1", out)
	g := NewGroup(GroupConfig{
		Key: "s", SchedGroup: "group:s", Basket: scan.Stream.Basket,
		Window: scan.Window, Schema: scan.Out, NotifyMember: func(string) {},
	})
	m1, m2 := g.Join("q1", fac1), g.Join("q2", fac2)
	if m1.aggLeaf == nil || m1.leaf == nil || m1.leaf != m2.leaf {
		t.Fatalf("members did not share a filter leaf under their aggregate nodes")
	}

	c := bat.NewChunk(s.Schema())
	for i := 0; i < 16; i++ {
		_ = c.AppendRow(bat.TimeValue(int64(i)), bat.IntValue(int64(i%3)), bat.FloatValue(float64(i%4)))
	}
	if err := s.Basket.Append(c, 1); err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < g.NumShards(); sh++ {
		g.FireShard(sh)
	}
	m1.q.mu.Lock()
	items := append([]memberBW(nil), m1.q.pending...)
	m1.q.mu.Unlock()
	if len(items) != 4 {
		t.Fatalf("%d basic windows queued, want 4", len(items))
	}
	if m1.Fire()+m2.Fire() == 0 {
		t.Fatal("no results emitted")
	}

	for _, it := range items {
		it.dw.mu.Lock()
		cell := it.dw.memo[m1.leaf]
		it.dw.mu.Unlock()
		if cell == nil || cell.out == nil {
			t.Fatal("filter leaf was never evaluated under the aggregate")
		}
		if cell.out.Materialized() {
			t.Errorf("basic window %d: filter leaf view was materialized", it.bw.Gen)
		}
	}
	for _, fac := range []*Factory{fac1, fac2} {
		live := fac.inputs[0].ring.Live()
		if len(live) == 0 {
			t.Fatal("empty ring")
		}
		for _, bw := range live {
			if bw.Out != nil {
				t.Errorf("%s: ring slot %d holds pipeline output (%d rows)", fac.cfg.Name, bw.Gen, bw.Out.Rows())
			}
			if bw.Partial == nil {
				t.Errorf("%s: ring slot %d holds no partial", fac.cfg.Name, bw.Gen)
			}
		}
	}
}
