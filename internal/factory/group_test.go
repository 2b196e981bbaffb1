package factory

import (
	"testing"

	"datacell/internal/bat"
	"datacell/internal/catalog"
	"datacell/internal/emitter"
	"datacell/internal/plan"
	"datacell/internal/sql"
	"datacell/internal/window"
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
	now := int64(0)
	fac := New(Config{
		Name: name, Full: opt, Decomp: d, Mode: Incremental,
		Emit: out, Now: func() int64 { now++; return now },
	})
	return fac, fac.Scans()[0]
}

// TestAggregateMemberRingHoldsPartialsOnly: a grouped aggregate member
// resolves only its partial-aggregate node through the shared DAG. Its
// ring slots carry partials and no pipeline output, and the filter leaf
// feeding the aggregate is fused into it: its selection is never
// memoized in the window's slab, let alone materialized — by either
// member.
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
		Key: "s", SchedGroup: "group:s", Scans: []*plan.ScanStream{scan},
		NotifyMember: func(string) {},
	})
	g.Join(fac1)
	g.Join(fac2)
	m1, m2 := fac1, fac2
	if m1.aggLeaf == nil || m1.leaf[0] == nil || m1.leaf[0] != m2.leaf[0] {
		t.Fatalf("members did not share a filter leaf under their aggregate nodes")
	}
	if !m1.leaf[0].fused.Load() {
		t.Fatal("the filter leaf read only by one aggregate node is not fused into it")
	}

	c := bat.NewChunk(s.Schema())
	for i := 0; i < 16; i++ {
		_ = c.AppendRow(bat.TimeValue(int64(i)), bat.IntValue(int64(i%3)), bat.FloatValue(float64(i%4)))
	}
	if err := s.Basket.Append(c, 1); err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < g.NumShards(0); sh++ {
		g.FireShard(0, sh)
	}
	// The memo tables of the logged windows, read before the members
	// release (and so clear) the entries.
	var dws []*dagWin
	cur := logCursor{blk: m1.cur.blk, off: m1.cur.off}
	for n := g.log.head.Load() - m1.cur.read.Load(); n > 0; n-- {
		dws = append(dws, cur.next().dw)
	}
	if len(dws) != 4 {
		t.Fatalf("%d basic windows logged, want 4", len(dws))
	}
	if m1.Fire()+m2.Fire() == 0 {
		t.Fatal("no results emitted")
	}

	for i, dw := range dws {
		if dw.cell(m1.aggLeaf).out == nil {
			t.Fatalf("basic window %d: aggregate node was never evaluated", i)
		}
		cell := dw.cell(m1.leaf[0])
		if cell.out != nil || cell.view.Base != nil || cell.view.Sel != nil {
			t.Errorf("basic window %d: filter leaf selection was memoized", i)
		}
	}
	for _, fac := range []*Factory{fac1, fac2} {
		live := fac.rings[0].Live()
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

// TestOfferRemoteDropsOutOfRange: worker frames are outside input, so a
// remote-fed group drops offers naming a side or shard it does not have —
// without panicking or sealing a window — on one-sided and two-sided
// groups alike. Offers on every valid (side, shard) then do seal.
func TestOfferRemoteDropsOutOfRange(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"s", "r"} {
		if _, err := cat.CreateStream(name, bat.NewSchema(
			[]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{
		"SELECT k, v FROM s [SIZE 4 SLIDE 2]",
		"SELECT s.v, r.v FROM s [SIZE 4 SLIDE 2], r [SIZE 4 SLIDE 2] WHERE s.k = r.k",
	} {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := plan.Bind(cat, stmt.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		scans := plan.Streams(plan.Optimize(bound))
		const shards = 2
		remote := make([]*RemoteSource, len(scans))
		for i := range remote {
			remote[i] = &RemoteSource{Shards: shards}
		}
		g := NewGroup(GroupConfig{Key: src, SchedGroup: "group", Scans: scans, Remote: remote,
			NotifyMember: func(string) {}})
		frag := func(side int) []*window.Frag {
			c := bat.NewChunk(scans[side].Out)
			_ = c.AppendRow(bat.TimeValue(1), bat.IntValue(1), bat.FloatValue(1))
			return []*window.Frag{{Gen: 0, Data: bat.NewRuns(c.Schema, c)}}
		}
		last := len(scans) - 1
		for _, bad := range [][2]int{{-1, 0}, {len(scans), 0}, {0, -1}, {0, shards}, {last, shards}, {last, -1}} {
			g.OfferRemote(bad[0], bad[1], frag(0), 1)
		}
		if n := g.WindowsOut(); n != 0 {
			t.Fatalf("%d sides: out-of-range offers sealed %d windows", len(scans), n)
		}
		for side := range scans {
			for sh := 0; sh < shards; sh++ {
				g.OfferRemote(side, sh, frag(side), 1)
			}
		}
		if g.WindowsOut() == 0 {
			t.Fatalf("%d sides: in-range offers sealed no window", len(scans))
		}
		g.Close()
	}
}
