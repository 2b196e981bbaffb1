package factory

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"datacell/internal/algebra"
	"datacell/internal/bat"
	"datacell/internal/expr"
	"datacell/internal/kernel"
	"datacell/internal/plan"
)

// filterStep is a one-operator chain keeping the rows whose column 0
// compares to c under op, fingerprinted fp.
func filterStep(fp string, op algebra.CmpOp, c int64) []plan.PipelineStep {
	pred := &expr.Cmp{Op: op, L: &expr.Col{Idx: 0, K: bat.Int}, R: &expr.Const{V: bat.IntValue(c)}}
	return []plan.PipelineStep{{Op: &plan.Filter{Pred: pred}, Fp: fp}}
}

// TestDagOrdinalReuseNeverAliases: a node registered after a pruned one
// takes over its ordinal, but a window created while the pruned node was
// live never hands the newcomer the pruned node's cell — the newcomer
// evaluates its own operator there — while windows created after the
// reuse index the newcomer's slab cell directly.
func TestDagOrdinalReuseNeverAliases(t *testing.T) {
	sch := bat.NewSchema([]string{"x"}, []bat.Kind{bat.Int})
	root := kernel.NewView(&bat.Chunk{Schema: sch, Cols: []bat.Vector{bat.Ints{1, 2, 3, 4, 5, 6}}})
	var hits, misses atomic.Int64

	d := newDAG()
	keep, _ := d.register(filterStep("keep", algebra.GT, 0), nil, "")
	gone, _ := d.register(filterStep("gone", algebra.LT, 3), nil, "")
	old := d.newWin(root)
	if got := eval(old, gone, &hits, &misses).Rows(); got != 2 {
		t.Fatalf("x < 3 kept %d rows, want 2", got)
	}

	d.unregister(gone, nil)
	late, _ := d.register(filterStep("late", algebra.GE, 5), nil, "")
	if late.ord != gone.ord {
		t.Fatalf("pruned ordinal %d not reused (new node got %d)", gone.ord, late.ord)
	}
	if old.cell(late) == &old.cells[late.ord] {
		t.Fatal("a window older than the node hands it the slab cell of the ordinal's previous holder")
	}
	if got := eval(old, late, &hits, &misses).Rows(); got != 2 {
		t.Fatalf("x >= 5 on the older window kept %d rows, want 2", got)
	}
	if got := eval(old, keep, &hits, &misses).Rows(); got != 6 {
		t.Fatalf("x > 0 kept %d rows, want 6", got)
	}

	fresh := d.newWin(root)
	if fresh.cell(late) != &fresh.cells[late.ord] {
		t.Fatal("a window created after the reuse does not index the node's slab cell")
	}
	if got := eval(fresh, late, &hits, &misses).Rows(); got != 2 {
		t.Fatalf("x >= 5 on the newer window kept %d rows, want 2", got)
	}
	if len(fresh.cells) != 2 {
		t.Fatalf("slab of %d cells for 2 live nodes", len(fresh.cells))
	}
}

// TestDagFusesSoleAggregateReaders: a non-aggregate node is fused into
// its child exactly while nothing else reads it — no member's chain ends
// there and the child, its only one, is an aggregate or fused itself —
// and the flag follows every register and unregister, along the whole
// chain.
func TestDagFusesSoleAggregateReaders(t *testing.T) {
	agg := func(fn algebra.AggOp) *plan.Aggregate {
		return &plan.Aggregate{Aggs: []plan.AggSpec{{Op: fn, Name: "a"}}, Out: bat.NewSchema([]string{"a"}, []bat.Kind{bat.Int})}
	}
	count, max := agg(algebra.AggCount), agg(algebra.AggMax)
	chain := append(filterStep("f1", algebra.GT, 0), filterStep("f1/f2", algebra.LT, 9)...)
	d := newDAG()
	fused := func(want ...bool) {
		t.Helper()
		for i, fp := range []string{"f1", "f1/f2"} {
			n := d.nodes[fp]
			if got := n != nil && n.fused.Load(); got != want[i] {
				t.Fatalf("%s fused = %v, want %v", fp, got, want[i])
			}
		}
	}

	leaf, a1 := d.register(chain, count, "count")
	fused(true, true)
	mid, _ := d.register(chain[:1], nil, "") // a member reading f1's output
	fused(false, true)
	_, a2 := d.register(chain, max, "max") // a second aggregate under f2
	fused(false, false)
	d.unregister(mid, nil)
	fused(false, false)
	d.unregister(leaf, a2)
	fused(true, true)
	end, _ := d.register(chain, nil, "") // a member reading f2's output
	fused(false, false)
	d.unregister(end, nil)
	fused(true, true)
	d.unregister(leaf, a1)
	if len(d.nodes) != 0 {
		t.Fatalf("%d nodes left after every path left", len(d.nodes))
	}
}

// TestQuickMergePartialsMatchesConcat: merging a window's partial
// aggregates as runs through the merge plan is byte-identical to the
// merge of their concatenation as one dense chunk, for integer and string
// keys, every aggregate op, empty and missing partials, and one to five
// runs.
func TestQuickMergePartialsMatchesConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, keyKind := range []bat.Kind{bat.Int, bat.Str} {
		agg := &plan.Aggregate{
			Keys:     []expr.Expr{&expr.Col{Idx: 0, K: keyKind}},
			KeyNames: []string{"k"},
			Aggs: []plan.AggSpec{
				{Op: algebra.AggCount, Name: "n"},
				{Op: algebra.AggSum, Arg: &expr.Col{Idx: 1, K: bat.Float}, Name: "s"},
				{Op: algebra.AggMin, Arg: &expr.Col{Idx: 1, K: bat.Float}, Name: "lo"},
				{Op: algebra.AggMax, Arg: &expr.Col{Idx: 2, K: bat.Int}, Name: "hi"},
			},
			Out: bat.NewSchema([]string{"k", "n", "s", "lo", "hi"},
				[]bat.Kind{keyKind, bat.Int, bat.Float, bat.Float, bat.Int}),
		}
		merge := plan.MergePlan(agg)
		for round := 0; round < 200; round++ {
			parts := make([]*bat.Chunk, 1+rng.Intn(5))
			var present []*bat.Chunk
			rows := 0
			for i := range parts {
				if rng.Intn(6) == 0 {
					continue // a window that cached no partial
				}
				p := bat.NewChunk(agg.Out)
				for r := rng.Intn(12); r > 0; r-- {
					k := bat.IntValue(int64(rng.Intn(9)))
					if keyKind == bat.Str {
						k = bat.StrValue(string(rune('a' + rng.Intn(9))))
					}
					_ = p.AppendRow(k, bat.IntValue(int64(1+rng.Intn(5))), bat.FloatValue(float64(rng.Intn(400))/4),
						bat.FloatValue(float64(rng.Intn(400))/4), bat.IntValue(int64(rng.Intn(100))))
				}
				parts[i] = p
				present = append(present, p)
				rows += p.Rows()
			}
			got := kernel.Merge(merge, parts, 0)
			want := kernel.Aggregate(merge, kernel.NewView(bat.Concat(agg.Out, present, rows)), 0)
			if got.String() != want.String() {
				t.Fatalf("%v keys, round %d:\nruns:\n%s\nconcat:\n%s", keyKind, round, got, want)
			}
		}
	}
}
