package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestDecompositionsLinearize: Decompose linearizes every plan it
// accepts — each per-basic-window pipeline into pipelineSteps and the
// post-merge fragment into postSteps — because pipelineRoot and
// pipelineSteps, and clonePath and postSteps, admit the same operators;
// no shape of the corpus is refused for not linearizing. Every accepted
// shape (Decompose certifies its scans windowed) carries its identity:
// a merge-class key, the post chain rooted at it, the aggregate
// fingerprint and merge plan exactly when it aggregates, and the join
// fingerprint exactly when it joins two streams. Its pipelines read the
// plan's stream scans (Streams), the same nodes in the same order, which
// is what lets a standing query's tail and its group read one scan list.
func TestDecompositionsLinearize(t *testing.T) {
	cat := testCatalog(t)
	srcs := []string{
		goldenSQL,
		"SELECT room, avg(temp) AS m FROM sensors [SIZE 100 SLIDE 10] WHERE temp > 0.0 GROUP BY room ORDER BY m DESC LIMIT 5",
		"SELECT room, temp FROM sensors [SIZE 10 SLIDE 5] WHERE temp > 20.0",
		"SELECT DISTINCT room FROM sensors [SIZE 10 SLIDE 5] ORDER BY room LIMIT 2",
		"SELECT s.temp, e.code FROM sensors [SIZE 8 SLIDE 4] s, events [SIZE 8 SLIDE 4] e WHERE s.room = e.room",
		"SELECT s.room, count(*) AS n FROM sensors [SIZE 8 SLIDE 4] s, events [SIZE 8 SLIDE 4] e WHERE s.room = e.room GROUP BY s.room HAVING count(*) > 1 ORDER BY n LIMIT 3",
		"SELECT r.name, s.temp FROM sensors [SIZE 8 SLIDE 4] s JOIN rooms r ON s.room = r.room WHERE r.floor = 1",
		"SELECT room, sum(temp) AS s FROM sensors [RANGE 10 SECONDS SLIDE 2 SECONDS] GROUP BY room",
	}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 400; i++ {
		srcs = append(srcs, randomContinuousSQL(rng))
	}
	accepted := 0
	for _, src := range srcs {
		opt := Optimize(mustBind(t, cat, src))
		d, err := Decompose(opt)
		if err != nil {
			if strings.Contains(err.Error(), "linearize") {
				t.Errorf("%s: %v", src, err)
			}
			continue
		}
		accepted++
		// The tail's inputs and its group's sides are the plan's stream
		// scans: each pipeline reads the same node, in the same order.
		streams := Streams(opt)
		if len(streams) != len(d.Pipelines) {
			t.Errorf("%d pipelines over %d stream scans: %s", len(d.Pipelines), len(streams), src)
		}
		for i, p := range d.Pipelines {
			if i < len(streams) && p.Scan != streams[i] {
				t.Errorf("pipeline %d reads %s, not stream scan %d of the plan: %s", i, p.Scan.Alias, i, src)
			}
			if p.Scan.Window == nil {
				t.Errorf("pipeline %d of an accepted shape reads an unwindowed scan: %s", i, src)
			}
			if len(p.Steps) == 0 && p.Root != Node(p.Scan) {
				t.Errorf("pipeline %d has no steps: %s\n%s", i, src, String(p.Root))
			}
		}
		if d.ClassKey == "" {
			t.Errorf("no merge-class key: %s", src)
		}
		if (d.Post != nil) != (len(d.PostSteps) > 0) {
			t.Errorf("post fragment %v but %d post steps: %s", d.Post != nil, len(d.PostSteps), src)
		} else if len(d.PostSteps) > 0 && !strings.HasSuffix(d.PostSteps[0].Fp, "("+d.ClassKey+")") {
			t.Errorf("post chain not rooted at the class key: %s\n%s", src, d.PostSteps[0].Fp)
		}
		if (d.Agg != nil) != (d.AggFp != "") || (d.Agg != nil) != (d.Merge != nil) {
			t.Errorf("aggregate %v but fingerprint %q, merge plan %v: %s", d.Agg != nil, d.AggFp, d.Merge != nil, src)
		}
		if (d.Join != nil) != (d.JoinFp != "") {
			t.Errorf("join %v but fingerprint %q: %s", d.Join != nil, d.JoinFp, src)
		}
	}
	t.Logf("%d of %d shapes decomposed", accepted, len(srcs))
	if accepted < len(srcs)/2 {
		t.Fatalf("only %d of %d shapes decomposed: the sample exercises too little", accepted, len(srcs))
	}
}

// randomContinuousSQL draws a windowed query over the test catalog:
// one stream, optionally joined with the rooms table or a second stream,
// with random filters, grouping, HAVING, DISTINCT, ORDER BY and LIMIT.
func randomContinuousSQL(rng *rand.Rand) string {
	win := fmt.Sprintf("[SIZE %d SLIDE 4]", 4*(1+rng.Intn(3)))
	from := "sensors " + win + " s"
	var where []string
	cols := []string{"s.room", "s.temp"}
	switch rng.Intn(3) {
	case 1:
		from += " JOIN rooms r ON s.room = r.room"
		cols = append(cols, "r.floor")
	case 2:
		from += ", events " + win + " e"
		where = append(where, "s.room = e.room")
		cols = append(cols, "e.code")
	}
	for n := rng.Intn(3); n > 0; n-- {
		c := cols[rng.Intn(len(cols))]
		if c == "s.temp" {
			where = append(where, fmt.Sprintf("s.temp > %d.0", rng.Intn(40)))
		} else {
			where = append(where, fmt.Sprintf("%s <> %d", c, rng.Intn(4)))
		}
	}
	var sel, tail string
	if rng.Intn(2) == 0 {
		key := cols[rng.Intn(len(cols))]
		sel = key + " AS g, count(*) AS n, sum(s.temp) AS t"
		tail = " GROUP BY " + key
		if rng.Intn(2) == 0 {
			tail += fmt.Sprintf(" HAVING count(*) > %d", rng.Intn(3))
		}
		if rng.Intn(2) == 0 {
			tail += " ORDER BY n DESC"
		}
	} else {
		sel = "s.room AS g, s.temp * 2.0 AS t"
		if rng.Intn(3) == 0 {
			sel = "DISTINCT s.room AS g"
		}
		if rng.Intn(2) == 0 {
			tail = " ORDER BY g"
		}
	}
	if rng.Intn(3) == 0 {
		tail += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(5))
	}
	src := "SELECT " + sel + " FROM " + from
	if len(where) > 0 {
		src += " WHERE " + strings.Join(where, " AND ")
	}
	return src + tail
}
