package plan_test

// One-time evaluation of bound plans through the kernel's tree walker:
// the operator semantics every continuous mode builds on.

import (
	"testing"

	"datacell/internal/bat"
	"datacell/internal/catalog"
	"datacell/internal/kernel"
	"datacell/internal/plan"
)

// sensorChunk builds rows (ts, room, temp).
func sensorChunk(t *testing.T, cat *catalog.Catalog, rows ...[3]float64) *bat.Chunk {
	t.Helper()
	s, _ := cat.Stream("sensors")
	c := bat.NewChunk(s.Schema())
	for _, r := range rows {
		if err := c.AppendRow(
			bat.TimeValue(int64(r[0])), bat.IntValue(int64(r[1])), bat.FloatValue(r[2]),
		); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// run evaluates a plan over the given leaf inputs.
func run(t *testing.T, n plan.Node, leaves map[plan.Node]*bat.Chunk) *bat.Chunk {
	t.Helper()
	views := map[plan.Node]*kernel.View{}
	for leaf, c := range leaves {
		views[leaf] = kernel.NewView(c)
	}
	out, err := kernel.Run(n, views)
	if err != nil {
		t.Fatalf("run %s: %v", plan.String(n), err)
	}
	return out.Materialize()
}

func runOn(t *testing.T, cat *catalog.Catalog, src string, input *bat.Chunk) *bat.Chunk {
	t.Helper()
	n := plan.Optimize(plan.MustBind(t, cat, src))
	leaves := map[plan.Node]*bat.Chunk{}
	for _, s := range plan.Streams(n) {
		if input != nil {
			leaves[s] = input
		}
	}
	return run(t, n, leaves)
}

func TestExecFilterProject(t *testing.T) {
	cat := plan.TestCatalog(t)
	in := sensorChunk(t, cat,
		[3]float64{1, 1, 18}, [3]float64{2, 2, 25}, [3]float64{3, 1, 30})
	out := runOn(t, cat, "SELECT room, temp * 2.0 AS dbl FROM sensors WHERE temp > 20.0", in)
	if out.Rows() != 2 {
		t.Fatalf("rows = %d:\n%s", out.Rows(), out)
	}
	if out.Row(0)[0].I != 2 || out.Row(0)[1].F != 50 {
		t.Errorf("row 0 = %v", out.Row(0))
	}
	if out.Row(1)[1].F != 60 {
		t.Errorf("row 1 = %v", out.Row(1))
	}
}

func TestExecAggregate(t *testing.T) {
	cat := plan.TestCatalog(t)
	in := sensorChunk(t, cat,
		[3]float64{1, 1, 10}, [3]float64{2, 1, 20}, [3]float64{3, 2, 30})
	out := runOn(t, cat, `
		SELECT room, count(*) AS n, sum(temp) AS s, min(temp) AS lo,
		       max(temp) AS hi, avg(temp) AS m
		FROM sensors GROUP BY room ORDER BY room`, in)
	if out.Rows() != 2 {
		t.Fatalf("rows = %d:\n%s", out.Rows(), out)
	}
	r0 := out.Row(0)
	if r0[0].I != 1 || r0[1].I != 2 || r0[2].F != 30 || r0[3].F != 10 || r0[4].F != 20 || r0[5].F != 15 {
		t.Errorf("group 1 = %v", r0)
	}
	r1 := out.Row(1)
	if r1[0].I != 2 || r1[1].I != 1 || r1[5].F != 30 {
		t.Errorf("group 2 = %v", r1)
	}
}

func TestExecAggregateNoKeysEmptyInput(t *testing.T) {
	cat := plan.TestCatalog(t)
	in := sensorChunk(t, cat)
	out := runOn(t, cat, "SELECT count(*) FROM sensors", in)
	if out.Rows() != 0 {
		t.Errorf("empty-window aggregate rows = %d, want 0", out.Rows())
	}
	in2 := sensorChunk(t, cat, [3]float64{1, 1, 10})
	out2 := runOn(t, cat, "SELECT count(*) AS n FROM sensors", in2)
	if out2.Rows() != 1 || out2.Row(0)[0].I != 1 {
		t.Errorf("single-row count = %v", out2)
	}
}

func TestExecHaving(t *testing.T) {
	cat := plan.TestCatalog(t)
	in := sensorChunk(t, cat,
		[3]float64{1, 1, 10}, [3]float64{2, 1, 20}, [3]float64{3, 2, 30})
	out := runOn(t, cat,
		"SELECT room FROM sensors GROUP BY room HAVING count(*) > 1", in)
	if out.Rows() != 1 || out.Row(0)[0].I != 1 {
		t.Errorf("having = %v", out)
	}
}

func TestExecStreamTableJoin(t *testing.T) {
	cat := plan.TestCatalog(t)
	in := sensorChunk(t, cat,
		[3]float64{1, 1, 10}, [3]float64{2, 2, 20}, [3]float64{3, 9, 30})
	out := runOn(t, cat, `
		SELECT r.name, s.temp FROM sensors s JOIN rooms r ON s.room = r.room
		ORDER BY s.temp`, in)
	if out.Rows() != 2 { // room 9 has no dimension row
		t.Fatalf("rows = %d:\n%s", out.Rows(), out)
	}
	if out.Row(0)[0].S != "lab" || out.Row(1)[0].S != "office" {
		t.Errorf("join result:\n%s", out)
	}
}

func TestExecStreamStreamJoin(t *testing.T) {
	cat := plan.TestCatalog(t)
	sens := sensorChunk(t, cat, [3]float64{1, 1, 10}, [3]float64{2, 2, 20})
	ev, _ := cat.Stream("events")
	evc := bat.NewChunk(ev.Schema())
	_ = evc.AppendRow(bat.TimeValue(5), bat.IntValue(1), bat.IntValue(7))
	_ = evc.AppendRow(bat.TimeValue(6), bat.IntValue(1), bat.IntValue(8))

	n := plan.Optimize(plan.MustBind(t, cat, `
		SELECT s.temp, e.code FROM sensors s, events e
		WHERE s.room = e.room`))
	leaves := map[plan.Node]*bat.Chunk{}
	for _, sc := range plan.Streams(n) {
		if sc.Alias == "s" {
			leaves[sc] = sens
		} else {
			leaves[sc] = evc
		}
	}
	out := run(t, n, leaves)
	if out.Rows() != 2 {
		t.Fatalf("rows = %d:\n%s", out.Rows(), out)
	}
}

func TestExecCrossJoinWithResidual(t *testing.T) {
	cat := plan.TestCatalog(t)
	in := sensorChunk(t, cat, [3]float64{1, 1, 10}, [3]float64{2, 2, 30})
	out := runOn(t, cat, `
		SELECT s.temp, r.name FROM sensors s, rooms r
		WHERE s.temp > CAST(r.floor AS FLOAT) * 20.0`, in)
	// temp=10: only floor 0 (lab) qualifies. temp=30: floor 0 (lab) plus
	// both floor-1 rooms (office, server) — 4 pairs in total.
	if out.Rows() != 4 {
		t.Fatalf("rows = %d:\n%s", out.Rows(), out)
	}
}

func TestExecDistinctSortLimit(t *testing.T) {
	cat := plan.TestCatalog(t)
	in := sensorChunk(t, cat,
		[3]float64{1, 2, 10}, [3]float64{2, 1, 20},
		[3]float64{3, 2, 30}, [3]float64{4, 3, 40})
	out := runOn(t, cat, "SELECT DISTINCT room FROM sensors ORDER BY room LIMIT 2", in)
	if out.Rows() != 2 || out.Row(0)[0].I != 1 || out.Row(1)[0].I != 2 {
		t.Errorf("distinct+sort+limit = %v", out)
	}
}

func TestExecLimitLargerThanInput(t *testing.T) {
	cat := plan.TestCatalog(t)
	in := sensorChunk(t, cat, [3]float64{1, 1, 10})
	out := runOn(t, cat, "SELECT room FROM sensors LIMIT 100", in)
	if out.Rows() != 1 {
		t.Errorf("rows = %d", out.Rows())
	}
}

func TestExecMissingStreamInputYieldsEmpty(t *testing.T) {
	cat := plan.TestCatalog(t)
	n := plan.Optimize(plan.MustBind(t, cat, "SELECT room FROM sensors"))
	out := run(t, n, nil)
	if out.Rows() != 0 {
		t.Errorf("rows = %d", out.Rows())
	}
}

func TestExecScalarFunctions(t *testing.T) {
	cat := plan.TestCatalog(t)
	in := sensorChunk(t, cat, [3]float64{1, 1, -12.5})
	out := runOn(t, cat, "SELECT abs(temp) AS a, floor(temp) AS f FROM sensors", in)
	if out.Row(0)[0].F != 12.5 || out.Row(0)[1].F != -13 {
		t.Errorf("funcs = %v", out.Row(0))
	}
}

func TestMergeAggregate(t *testing.T) {
	cat := plan.TestCatalog(t)
	n := plan.MustBind(t, cat,
		"SELECT room, count(*) AS n, sum(temp) AS s, min(temp) AS lo FROM sensors GROUP BY room")
	agg := n.(*plan.Project).Child.(*plan.Aggregate)

	// Two partials, overlapping groups.
	partials := bat.NewChunk(agg.Out)
	// room, count, sum, min — layout keys-then-aggs. Order of aggs follows
	// registration: count(*), sum(temp), min(temp).
	_ = partials.AppendRow(bat.IntValue(1), bat.IntValue(2), bat.FloatValue(30), bat.FloatValue(10))
	_ = partials.AppendRow(bat.IntValue(2), bat.IntValue(1), bat.FloatValue(5), bat.FloatValue(5))
	_ = partials.AppendRow(bat.IntValue(1), bat.IntValue(3), bat.FloatValue(60), bat.FloatValue(8))

	merged := kernel.Aggregate(plan.MergePlan(agg), kernel.NewView(partials), 0)
	if merged.Rows() != 2 {
		t.Fatalf("merged rows = %d", merged.Rows())
	}
	r0 := merged.Row(0)
	if r0[0].I != 1 || r0[1].I != 5 || r0[2].F != 90 || r0[3].F != 8 {
		t.Errorf("merged group 1 = %v", r0)
	}
	r1 := merged.Row(1)
	if r1[0].I != 2 || r1[1].I != 1 || r1[2].F != 5 {
		t.Errorf("merged group 2 = %v", r1)
	}
}

func TestExecOneTimeTableQuery(t *testing.T) {
	cat := plan.TestCatalog(t)
	out := runOn(t, cat, "SELECT name FROM rooms WHERE floor = 1 ORDER BY name", nil)
	if out.Rows() != 2 || out.Row(0)[0].S != "office" {
		t.Errorf("table query:\n%s", out)
	}
}
