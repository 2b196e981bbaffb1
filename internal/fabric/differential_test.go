package fabric_test

// Differential equivalence harness: randomized workloads cross-checked
// between the single-process engine and the coordinator + workers fabric.
// Each seed draws a query mix (single-stream scans, co-partitioned joins,
// re-evaluation members, isolated queries), window geometry (tumbling and
// sliding), routing (hash and round-robin) and shard counts, then runs the
// identical workload and feed on both paths and requires byte-identical
// results. CI runs differentialSeeds seeds; build with -tags soak for the
// full sweep (see diffseeds_*.go).

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"datacell"
	"datacell/internal/bat"
)

// diffQuery is one drawn member of a differential workload.
type diffQuery struct {
	sql  string
	opts *datacell.RegisterOptions
}

// diffChunks draws n rows in random batch splits: ts monotone, keys and
// values from rng. Batch boundaries are part of the drawn workload — both
// runs feed the same splits, and slicing is batch-agnostic anyway.
func diffChunks(rng *rand.Rand, n, nkeys int) []*bat.Chunk {
	sch := bat.NewSchema([]string{"ts", "k", "v"}, []bat.Kind{bat.Time, bat.Int, bat.Float})
	var out []*bat.Chunk
	for pos := 0; pos < n; {
		take := 1 + rng.Intn(29)
		if pos+take > n {
			take = n - pos
		}
		ts := make(bat.Times, take)
		ks := make(bat.Ints, take)
		vs := make(bat.Floats, take)
		for i := 0; i < take; i++ {
			ts[i] = int64(pos+i) * 1000
			ks[i] = int64(rng.Intn(nkeys))
			vs[i] = float64(rng.Intn(100))
		}
		out = append(out, &bat.Chunk{Schema: sch, Cols: []bat.Vector{ts, ks, vs}})
		pos += take
	}
	return out
}

// diffSingle draws a single-stream member over the given stream.
func diffSingle(rng *rand.Rand, stream string, size, slide int) string {
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("SELECT k, sum(v) AS s, count(*) AS n FROM %s [SIZE %d SLIDE %d] GROUP BY k", stream, size, slide)
	case 1:
		return fmt.Sprintf("SELECT k, v FROM %s [SIZE %d SLIDE %d] WHERE v >= %d.0", stream, size, slide, rng.Intn(5)*20)
	case 2:
		return fmt.Sprintf("SELECT k, min(v) AS lo, max(v) AS hi FROM %s [SIZE %d SLIDE %d] GROUP BY k", stream, size, slide)
	default:
		return fmt.Sprintf("SELECT count(*) AS n FROM %s [SIZE %d SLIDE %d] GROUP BY k HAVING count(*) > %d", stream, size, slide, rng.Intn(3))
	}
}

// diffJoin draws an s⋈r member; both sides share the seed's lockstep
// geometry so the join is decomposable.
func diffJoin(rng *rand.Rand, size, slide int) string {
	if rng.Intn(2) == 0 {
		return fmt.Sprintf(
			"SELECT s.k, count(*) AS n FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k GROUP BY s.k HAVING count(*) > %d",
			size, slide, size, slide, rng.Intn(2))
	}
	return fmt.Sprintf(
		"SELECT s.v, r.v FROM s [SIZE %d SLIDE %d], r [SIZE %d SLIDE %d] WHERE s.k = r.k",
		size, slide, size, slide)
}

// diffWorkload draws the member list. The first two slots force a join and
// an isolated member so every seed exercises the full routing surface; the
// rest is a free draw.
func diffWorkload(rng *rand.Rand, size, slide int) []diffQuery {
	mode := func() datacell.Mode {
		if rng.Intn(2) == 0 {
			return datacell.ModeIncremental
		}
		return datacell.ModeReeval
	}
	stream := func() string {
		if rng.Intn(2) == 0 {
			return "s"
		}
		return "r"
	}
	nq := 6 + rng.Intn(7)
	out := make([]diffQuery, 0, nq)
	out = append(out,
		diffQuery{diffJoin(rng, size, slide), &datacell.RegisterOptions{Mode: mode()}},
		diffQuery{diffSingle(rng, stream(), size, slide), &datacell.RegisterOptions{Mode: mode(), Isolated: true}},
	)
	for len(out) < nq {
		var sql string
		iso := rng.Intn(5) == 0
		if rng.Intn(3) == 0 {
			sql = diffJoin(rng, size, slide)
		} else {
			sql = diffSingle(rng, stream(), size, slide)
		}
		out = append(out, diffQuery{sql, &datacell.RegisterOptions{Mode: mode(), Isolated: iso}})
	}
	return out
}

func runDiffLocal(t *testing.T, ddl string, qs []diffQuery, sChunks, rChunks []*bat.Chunk) [][]string {
	t.Helper()
	eng := datacell.New(&datacell.Options{Workers: 1})
	defer eng.Close()
	if _, err := eng.ExecScript(ddl); err != nil {
		t.Fatal(err)
	}
	regs := make([]*datacell.Query, len(qs))
	for i, dq := range qs {
		q, err := eng.Register(fmt.Sprintf("q%02d", i), dq.sql, dq.opts)
		if err != nil {
			t.Fatalf("member %d %q: %v", i, dq.sql, err)
		}
		regs[i] = q
	}
	feedMixed(t, eng, eng.Drain, sChunks, rChunks)
	out := make([][]string, len(qs))
	for i, q := range regs {
		out[i] = collectRendered(q)
	}
	return out
}

func runDiffFabric(t *testing.T, ddl string, nWorkers int, qs []diffQuery, sChunks, rChunks []*bat.Chunk) [][]string {
	t.Helper()
	fc := startFabric(t, ddl, nWorkers, nil)
	defer fc.close()
	if err := fc.coord.ExportStream("r"); err != nil {
		t.Fatal(err)
	}
	regs := make([]*datacell.Query, len(qs))
	for i, dq := range qs {
		q, err := fc.eng.Register(fmt.Sprintf("q%02d", i), dq.sql, dq.opts)
		if err != nil {
			t.Fatalf("member %d %q: %v", i, dq.sql, err)
		}
		if dq.opts.Isolated != strings.Contains(q.GroupKey(), "!iso#") {
			t.Fatalf("member %d: isolated=%v but key=%q", i, dq.opts.Isolated, q.GroupKey())
		}
		regs[i] = q
	}
	feedMixed(t, fc.eng, fc.coord.Drain, sChunks, rChunks)
	out := make([][]string, len(qs))
	for i, q := range regs {
		out[i] = collectRendered(q)
	}
	return out
}

// TestFabricDifferentialPrivate is the cross-path spot-check: the local
// leg runs every member's tail privately (NoMemo and NoSharedMerge: each
// member's own compiled pipelines, merge and post-merge chain) while the
// fabric leg keeps the shared default. Byte-identical results pin the
// sharing contract across the wire — shared-over-fabric equals
// private-local equals (by TestFabricDifferential) shared-local.
func TestFabricDifferentialPrivate(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			slide := 4 * (1 + rng.Intn(3))
			size := slide * (1 + rng.Intn(3))
			ddl := "CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD 2 KEY k;\n" +
				"CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT) SHARD 3"
			nkeys := 2 + rng.Intn(5)
			sChunks := diffChunks(rng, 150, nkeys)
			rChunks := diffChunks(rng, 150, nkeys)
			qs := diffWorkload(rng, size, slide)
			private := make([]diffQuery, len(qs))
			for i, dq := range qs {
				opts := *dq.opts
				opts.NoMemo, opts.NoSharedMerge = true, true
				private[i] = diffQuery{dq.sql, &opts}
			}

			local := runDiffLocal(t, ddl, private, sChunks, rChunks)
			fab := runDiffFabric(t, ddl, 2, qs, sChunks, rChunks)
			assertSameResults(t, fmt.Sprintf("private seed=%d size=%d slide=%d", seed, size, slide), fab, local)
		})
	}
}

// TestFabricDifferential is the property-based arm of the equivalence
// suite: the fabric must be indistinguishable from the single-process
// engine on any accepted workload, not just the hand-picked matrix.
func TestFabricDifferential(t *testing.T) {
	for seed := int64(1); seed <= differentialSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			slide := 4 * (1 + rng.Intn(3))
			size := slide * (1 + rng.Intn(3)) // mult 1 = tumbling
			key := func() string {
				if rng.Intn(2) == 0 {
					return " KEY k"
				}
				return ""
			}
			ddl := fmt.Sprintf(
				"CREATE STREAM s (ts TIMESTAMP, k INT, v FLOAT) SHARD %d%s;\n"+
					"CREATE STREAM r (ts TIMESTAMP, k INT, v FLOAT) SHARD %d%s",
				1+rng.Intn(4), key(), 1+rng.Intn(4), key())
			nkeys := 2 + rng.Intn(5)
			sChunks := diffChunks(rng, 120+rng.Intn(120), nkeys)
			rChunks := diffChunks(rng, 120+rng.Intn(120), nkeys)
			qs := diffWorkload(rng, size, slide)
			for i, dq := range qs {
				t.Logf("member %d: iso=%v mode=%v %s", i, dq.opts.Isolated, dq.opts.Mode, dq.sql)
			}

			local := runDiffLocal(t, ddl, qs, sChunks, rChunks)
			fab := runDiffFabric(t, ddl, 2, qs, sChunks, rChunks)
			assertSameResults(t, fmt.Sprintf("seed=%d size=%d slide=%d", seed, size, slide), fab, local)
		})
	}
}
