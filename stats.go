package datacell

import (
	"fmt"
	"sort"
	"strings"

	"datacell/internal/basket"
	"datacell/internal/factory"
)

// Stats is an engine-wide snapshot: the observable quantities of the
// demo's monitoring panes (basket occupancy and rates, per-query firings
// and latencies).
type Stats struct {
	Baskets []basket.Stats
	Queries []factory.Stats
}

// GroupInfo is one execution group's observable state.
type GroupInfo struct {
	// Key is the group key (stream | window kind | slide | schema; join
	// groups pair two of these with ⋈).
	Key string
	// Kind is "scan" for single-stream groups, "join" for stream pairs.
	Kind string
	// Members is the number of member queries sharing the slice.
	Members int
	// Shards is the group's shared firing count (both sides for joins).
	Shards int
	// WindowsOut counts basic windows fanned out to members.
	WindowsOut int64
	// LiveBufs counts sealed window buffers still referenced by a member.
	LiveBufs int64
	// DagNodes counts distinct operator nodes in the group's shared
	// operator DAG(s) — common member sub-tails registered once.
	DagNodes int
	// MemoHits / MemoMisses are the DAG memo counters: hits are operator
	// evaluations served from a sibling's memoized output, misses actual
	// evaluations. HitRate = hits / (hits + misses).
	MemoHits   int64
	MemoMisses int64
	// MergeClasses counts the group-owned merge rings: classes of two or
	// more members whose full-window merges are byte-identical
	// (plan.Decomposition.ClassKey) and therefore
	// evaluate once per sealed window.
	// MergeHits / MergeMisses are the merged-view memo counters — for an
	// N-member class, one miss and N-1 hits per full window.
	MergeClasses int
	MergeHits    int64
	MergeMisses  int64
	// PostNodes counts distinct post-merge fragment operators (HAVING
	// filters, final aggregates, sorts, limits) in the group's post-merge
	// trie; PostHits / PostMisses are its memo counters.
	PostNodes  int
	PostHits   int64
	PostMisses int64
	// PairCaches / CachedPairs / PairsComputed describe a join group's
	// shared pair caches (one cache per distinct join fingerprint).
	PairCaches    int
	CachedPairs   int
	PairsComputed int64
}

// MemoHitRate is the group's DAG memo hit rate in [0, 1] (0 when the DAG
// has never evaluated).
func (gi GroupInfo) MemoHitRate() float64 { return hitRate(gi.MemoHits, gi.MemoMisses) }

// MergeHitRate is the shared-merge hit rate in [0, 1]: the fraction of
// full-window merge requests served from a class sibling's evaluation.
func (gi GroupInfo) MergeHitRate() float64 { return hitRate(gi.MergeHits, gi.MergeMisses) }

// PostHitRate is the post-merge trie's memo hit rate in [0, 1].
func (gi GroupInfo) PostHitRate() float64 { return hitRate(gi.PostHits, gi.PostMisses) }

func hitRate(hits, misses int64) float64 {
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// factoryGroups resolves the catalog's opaque group registry entries to
// their groups, sorted by key — the one place the any-typed catalog
// boundary is crossed.
func (e *Engine) factoryGroups() []*factory.Group {
	var out []*factory.Group
	for _, key := range e.cat.GroupKeys() {
		if gv, ok := e.cat.Group(key); ok {
			if g, ok := gv.(*factory.Group); ok {
				out = append(out, g)
			}
		}
	}
	return out
}

// Groups snapshots the execution groups, shared and private (an "!iso#n"
// key), sorted by key. Every registered query is a member of one.
func (e *Engine) Groups() []GroupInfo {
	var out []GroupInfo
	for _, g := range e.factoryGroups() {
		caches, pairs, computed := g.PairStats()
		mClasses, mHits, mMisses := g.MergeStats()
		pNodes, pHits, pMisses := g.PostStats()
		out = append(out, GroupInfo{
			Key:           g.Key(),
			Kind:          g.Kind(),
			Members:       g.Members(),
			Shards:        g.Shards(),
			WindowsOut:    g.WindowsOut(),
			LiveBufs:      g.LiveBufs(),
			DagNodes:      g.DagNodes(),
			MemoHits:      g.MemoHits(),
			MemoMisses:    g.MemoMisses(),
			MergeClasses:  mClasses,
			MergeHits:     mHits,
			MergeMisses:   mMisses,
			PostNodes:     pNodes,
			PostHits:      pHits,
			PostMisses:    pMisses,
			PairCaches:    caches,
			CachedPairs:   pairs,
			PairsComputed: computed,
		})
	}
	return out
}

// Stats snapshots every basket and query counter.
func (e *Engine) Stats() Stats {
	var out Stats
	for _, n := range e.cat.StreamNames() {
		s, _ := e.cat.Stream(n)
		out.Baskets = append(out.Baskets, s.Basket.Stats())
	}
	e.mu.Lock()
	names := make([]string, 0, len(e.queries))
	for n := range e.queries {
		names = append(names, n)
	}
	sort.Strings(names)
	qs := make([]*Query, 0, len(names))
	for _, n := range names {
		qs = append(qs, e.queries[n])
	}
	e.mu.Unlock()
	for _, q := range qs {
		out.Queries = append(out.Queries, q.Stats())
	}
	return out
}

// QueryStats returns one query's counters.
func (e *Engine) QueryStats(name string) (factory.Stats, error) {
	e.mu.Lock()
	q, ok := e.queries[name]
	e.mu.Unlock()
	if !ok {
		return factory.Stats{}, fmt.Errorf("datacell: no query %q", name)
	}
	return q.Stats(), nil
}

// Query looks up a registered continuous query by name.
func (e *Engine) Query(name string) (*Query, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	q, ok := e.queries[name]
	return q, ok
}

// QueryNames lists registered continuous queries, sorted.
func (e *Engine) QueryNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.queries))
	for n := range e.queries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NetworkString renders the continuous query network: which query binds
// which baskets, each side annotated with its live counters. It is the
// terminal equivalent of the demo GUI's network pane (Figure 3).
func (e *Engine) NetworkString() string {
	st := e.Stats()
	var b strings.Builder
	b.WriteString("baskets:\n")
	for _, bs := range st.Baskets {
		state := ""
		if bs.Paused {
			state = " [paused]"
		}
		fmt.Fprintf(&b, "  %-16s len=%-8d in=%-10d dropped=%-10d consumers=%d%s\n",
			bs.Name, bs.Len, bs.TotalIn, bs.TotalDrop, bs.Consumers, state)
	}
	b.WriteString("queries:\n")
	e.mu.Lock()
	qs := make([]*Query, 0, len(e.queries))
	for _, q := range e.queries {
		qs = append(qs, q)
	}
	e.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].name < qs[j].name })
	for _, q := range qs {
		s := q.Stats()
		paused := ""
		if q.Paused() {
			paused = " [paused]"
		}
		avgLat := int64(0)
		if s.Evals > 0 {
			avgLat = s.SumLatency / s.Evals
		}
		fmt.Fprintf(&b, "  %-16s <- %-24s mode=%-12s evals=%-8d in=%-10d out=%-10d avg_lat=%dµs%s\n",
			s.Name, strings.Join(q.fac.Baskets(), ","), s.Mode,
			s.Evals, s.TuplesIn, s.RowsOut, avgLat, paused)
	}
	if groups := e.Groups(); len(groups) > 0 {
		b.WriteString("groups:\n")
		for _, g := range groups {
			fmt.Fprintf(&b, "  %-48s kind=%-4s members=%-4d shards=%-3d windows=%-8d livebufs=%-4d dag=%-3d memo=%.0f%%",
				g.Key, g.Kind, g.Members, g.Shards, g.WindowsOut, g.LiveBufs,
				g.DagNodes, 100*g.MemoHitRate())
			if g.MergeClasses > 0 || g.PostNodes > 0 {
				fmt.Fprintf(&b, " mergeclasses=%d merge=%.0f%% postnodes=%d post=%.0f%%",
					g.MergeClasses, 100*g.MergeHitRate(), g.PostNodes, 100*g.PostHitRate())
			}
			if g.Kind == "join" {
				fmt.Fprintf(&b, " paircaches=%d pairs=%d computed=%d", g.PairCaches, g.CachedPairs, g.PairsComputed)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
