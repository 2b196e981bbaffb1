package factory

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"datacell/internal/algebra"
	"datacell/internal/bat"
	"datacell/internal/expr"
	"datacell/internal/kernel"
	"datacell/internal/plan"
)

// sensorSchema is (k INT, v FLOAT): the layout of the sibling tests.
var sensorSchema = bat.NewSchema([]string{"k", "v"}, []bat.Kind{bat.Int, bat.Float})

// sensorWindow is an n-row window of 64 keys and values in [0, 256).
func sensorWindow(n int) *bat.Chunk {
	rng := rand.New(rand.NewSource(int64(n)))
	ks, vs := make(bat.Ints, n), make(bat.Floats, n)
	for i := range ks {
		ks[i], vs[i] = int64(rng.Intn(64)), rng.Float64()*256
	}
	return &bat.Chunk{Schema: sensorSchema, Cols: []bat.Vector{ks, vs}}
}

// siblingChain is "WHERE v > c GROUP BY k" with count(*) and sum(v): a
// fused filter under an aggregate node.
func siblingChain(c float64) ([]plan.PipelineStep, *plan.Aggregate) {
	return filteredChain(1, algebra.GT, bat.FloatValue(c), fmt.Sprintf("v>%g", c))
}

// filteredChain is "WHERE <column col> op c GROUP BY k" with count(*)
// and sum(v); fp is the filter's fingerprint.
func filteredChain(col int, op algebra.CmpOp, c bat.Value, fp string) ([]plan.PipelineStep, *plan.Aggregate) {
	pred := &expr.Cmp{Op: op, L: &expr.Col{Idx: col, K: sensorSchema.Kinds[col]}, R: &expr.Const{V: c}}
	steps := []plan.PipelineStep{{Op: &plan.Filter{Pred: pred}, Fp: fp}}
	agg := &plan.Aggregate{
		Keys: []expr.Expr{&expr.Col{Idx: 0, K: bat.Int}}, KeyNames: []string{"k"},
		Aggs: []plan.AggSpec{{Op: algebra.AggCount, Name: "n"}, {Op: algebra.AggSum, Arg: &expr.Col{Idx: 1, K: bat.Float}, Name: "sv"}},
		Out:  bat.NewSchema([]string{"k", "n", "sv"}, []bat.Kind{bat.Int, bat.Int, bat.Float}),
	}
	return steps, agg
}

// aggFp is the aggregate stage's fingerprint over steps, as Decompose
// renders it.
func aggFp(steps []plan.PipelineStep, a *plan.Aggregate) string {
	return plan.FingerprintAggregate(a, steps[len(steps)-1].Fp)
}

// TestDagSiblingSets: aggregate nodes whose fused chains start at the
// same node and group by the same columns form one sibling set, decided
// at every register and unregister: a second sibling forms the set, a
// member ending at a sibling's filter unfuses it and moves that sibling
// out, and a leaving sibling dissolves the set. Every partial a set fills
// equals the sibling's own evaluation, each node still counts one miss
// per window, and a request served from the memo counts a hit. Over a
// sharded window the siblings evaluate alone.
func TestDagSiblingSets(t *testing.T) {
	d := newDAG()
	win := kernel.NewView(sensorWindow(512))
	var hits, misses atomic.Int64
	join := func(c float64) (leaf, agg *dagNode) {
		steps, a := siblingChain(c)
		return d.register(steps, a, aggFp(steps, a))
	}
	// sharded is a two-shard window: a multi-run root, over which every
	// sibling evaluates alone.
	sharded := kernel.RunsView(bat.NewRuns(sensorSchema, sensorWindow(200), sensorWindow(312)))
	check := func(what string, aggs ...*dagNode) {
		t.Helper()
		for _, in := range []*kernel.View{win, sharded} {
			w := d.newWin(in)
			misses.Store(0)
			for i, a := range aggs {
				got := eval(w, a, &hits, &misses)
				steps, _ := chain(a.parent)
				if alone := kernel.AggregateSteps(a.agg, steps, in, 0); got.String() != alone.String() {
					t.Fatalf("%s: set partial differs from the sibling's own:\n%s\nwant\n%s", what, got, alone)
				}
				for _, b := range aggs[i+1:] {
					if in == sharded && w.cell(b).out != nil {
						t.Fatalf("%s: a sharded window evaluated a set", what)
					}
				}
			}
			if want := int64(2 * len(aggs)); misses.Load() != want {
				t.Fatalf("%s: %d misses, want one per node (%d)", what, misses.Load(), want)
			}
		}
	}
	set := func(what string, a *dagNode, want ...*dagNode) {
		t.Helper()
		s := a.set.Load()
		if len(want) == 0 {
			if s != nil {
				t.Fatalf("%s: in a set of %d", what, len(s.nodes))
			}
			return
		}
		if s == nil || s.top != nil || fmt.Sprint(s.nodes) != fmt.Sprint(want) {
			t.Fatalf("%s: set %+v, want the root's set of %v", what, s, want)
		}
	}

	l1, a1 := join(0)
	set("a lone aggregate", a1)
	_, a2 := join(128)
	set("two siblings", a1, a1, a2)
	set("two siblings", a2, a1, a2)
	check("two siblings", a1, a2)
	l3, a3 := join(200)
	set("three siblings", a2, a1, a2, a3)
	check("three siblings", a1, a2, a3)

	// A member ending at a2's filter unfuses it: a2's chain now starts at
	// that filter, so it leaves the root's set, and returns when the
	// member leaves.
	steps, _ := siblingChain(128)
	f2, _ := d.register(steps, nil, "")
	set("an unfused sibling", a2)
	set("the fused siblings", a3, a1, a3)
	check("an unfused sibling", a1, a2, a3)
	// A window that evaluated a2 alone keeps that result once a2 rejoins
	// the set. The set then evaluates for its other siblings, and every
	// later request, a2's included, is a memo hit.
	w := d.newWin(win)
	eval(w, a2, &hits, &misses)
	d.unregister(f2, nil)
	set("refused", a1, a1, a2, a3)
	hits.Store(0)
	for _, a := range []*dagNode{a2, a1, a3} {
		eval(w, a, &hits, &misses)
	}
	if hits.Load() != 3 {
		t.Fatalf("rejoined: %d of 3 requests are memo hits", hits.Load())
	}
	// A path that moves no sibling leaves the published set as it is.
	published := a1.set.Load()
	other, _ := siblingChain(50)
	f4, _ := d.register(other, nil, "")
	d.unregister(f4, nil)
	if a1.set.Load() != published || a3.set.Load() != published {
		t.Fatal("a path that moved no sibling republished the set")
	}

	// The leader leaves: the next-born sibling leads.
	d.unregister(l1, a1)
	set("after the leader left", a3, a2, a3)
	check("after the leader left", a2, a3)
	d.unregister(l3, a3)
	set("a lone survivor", a2)
	check("a lone survivor", a2)
}

// BenchmarkSiblingAggregates: q filter variants over one key (count and
// float sum GROUP BY k, 64 keys) on 4096-row windows, each partial
// requested through the DAG as a member tail does. ns/row is the partial
// aggregation's time per window row, all variants together. The variant
// families differ in how much of the window their selections cover
// together, which decides whether a set shares one grouping:
//
//   - spread: "WHERE v > 256·i/q", every group reached; the selections
//     add up to about (q+1)/2 × the rows.
//   - cover_F: "WHERE v > c_i", each keeping about F/q of the rows, so
//     the selections add up to about F × the rows.
//   - key: "WHERE k = i", each reaching one group; together q/64 × the
//     rows.
func BenchmarkSiblingAggregates(b *testing.B) {
	const rows = 4096
	win := sensorWindow(rows)
	type chainer func(i, q int) ([]plan.PipelineStep, *plan.Aggregate)
	selective := []int{2, 8, 32} // one aggregate forms no set
	cover := func(f float64) chainer {
		return func(i, q int) ([]plan.PipelineStep, *plan.Aggregate) {
			return siblingChain(256*(1-f/float64(q)) + float64(i)/1024)
		}
	}
	families := []struct {
		name  string
		qs    []int
		chain chainer
	}{
		{"spread", []int{1, 2, 8, 32}, func(i, q int) ([]plan.PipelineStep, *plan.Aggregate) {
			return siblingChain(256 * float64(i) / float64(q))
		}},
		{"cover_0.5", selective, cover(0.5)},
		{"cover_1", selective, cover(1)},
		{"cover_1.25", selective, cover(1.25)},
		{"cover_2", selective, cover(2)},
		{"key", selective, func(i, q int) ([]plan.PipelineStep, *plan.Aggregate) {
			return filteredChain(0, algebra.EQ, bat.IntValue(int64(i)), fmt.Sprintf("k=%d", i))
		}},
	}
	for _, fam := range families {
		for _, q := range fam.qs {
			b.Run(fmt.Sprintf("%s/q_%d", fam.name, q), func(b *testing.B) {
				d := newDAG()
				var aggs []*dagNode
				for i := 0; i < q; i++ {
					steps, agg := fam.chain(i, q)
					_, a := d.register(steps, agg, aggFp(steps, agg))
					aggs = append(aggs, a)
				}
				var hits, misses atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for n := 0; n < b.N; n++ {
					w := d.newWin(kernel.NewView(win))
					for _, a := range aggs {
						eval(w, a, &hits, &misses)
					}
				}
				b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}

// BenchmarkSiblingRegister: q distinct root-level filters ("WHERE v > c
// GROUP BY k") register one by one into one sibling set and then leave.
// us/op is the time of one register or unregister, which recomputes the
// sets under the root view.
func BenchmarkSiblingRegister(b *testing.B) {
	for _, q := range []int{64, 1024} {
		b.Run(fmt.Sprintf("q_%d", q), func(b *testing.B) {
			type path struct {
				steps []plan.PipelineStep
				agg   *plan.Aggregate
			}
			paths := make([]path, q)
			for i := range paths {
				paths[i].steps, paths[i].agg = siblingChain(float64(i) / 4)
			}
			leaves, aggs := make([]*dagNode, q), make([]*dagNode, q)
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for n := 0; n < b.N; n++ {
				d := newDAG()
				for i, p := range paths {
					leaves[i], aggs[i] = d.register(p.steps, p.agg, aggFp(p.steps, p.agg))
				}
				for i := range paths {
					d.unregister(leaves[i], aggs[i])
				}
			}
			b.ReportMetric(float64(time.Since(start).Microseconds())/float64(2*b.N*q), "us/op")
		})
	}
}
