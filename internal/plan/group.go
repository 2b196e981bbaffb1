package plan

import (
	"fmt"
	"strings"
)

// SharedScan reports whether a continuous plan is eligible for shared
// multi-query execution: exactly one windowed stream scan. Such plans can
// join a query group that drains, sequences and slices the stream once and
// fans each sealed basic window out to the member queries' private
// operator tails (selections, projections, aggregations, joins against
// static tables). Plans over two streams group through SharedJoin instead:
// their basic windows pair across inputs, which a join group models with
// two paired front ends.
func SharedScan(root Node) (*ScanStream, bool) {
	streams := Streams(root)
	if len(streams) != 1 || streams[0].Window == nil {
		return nil, false
	}
	return streams[0], true
}

// SharedJoin reports whether an incremental decomposition is eligible for
// a shared stream⋈stream join group: exactly two windowed stream scans
// meeting at a single join (the shape Decompose already certified when it
// produced a non-nil Join). Members of a join group share two stream front
// ends — each stream drained, sequenced and sliced once — and one pair
// cache per distinct join fingerprint.
func SharedJoin(d *Decomposition) (left, right *ScanStream, ok bool) {
	if d == nil || d.Join == nil || len(d.Pipelines) != 2 {
		return nil, nil, false
	}
	return d.Pipelines[0].Scan, d.Pipelines[1].Scan, true
}

// GroupKey is the shared-execution group key of a windowed stream scan:
// queries whose scans agree on it consume identical basic windows and can
// share one slice of the stream. The key is the slicing granularity —
// stream, window kind, and slide (tuple count or time bucket plus ordering
// attribute) — together with the scan schema. The window SIZE is
// deliberately absent: basic windows are cut at slide granularity, so
// members may keep rings of different extents over the same shared
// basic-window sequence.
// Streams exported to a distributed shard fabric append their partition
// tag (worker count and shard-range assignment): the fabric's layout is
// part of the grouping identity, so a group never outlives or straddles a
// re-partitioning of its stream.
func GroupKey(sc *ScanStream) string {
	w := sc.Window
	if w == nil {
		return ""
	}
	var key string
	if w.Tuples {
		key = fmt.Sprintf("%s|tuple|slide=%d|%s", sc.Stream.Name, w.Slide, sc.Out)
	} else {
		key = fmt.Sprintf("%s|time|slide=%dus|ts=%d|%s",
			sc.Stream.Name, w.SlideDur.Microseconds(), w.TimeIdx, sc.Out)
	}
	if tag := sc.Stream.RemoteTag(); tag != "" {
		key += "|" + tag
	}
	return key
}

// MergeKey is the merge-class key of an incremental single-stream
// decomposition: members of one execution group whose decompositions
// agree on it hold byte-identical full-window merged views, so the group
// can own one merge ring per class and evaluate the merge — partial-
// aggregate merging, or concatenation of cached pipeline outputs — once
// per sealed full window for all of them. The key is the window extent
// in basic windows plus the canonical fingerprint of the merged view's
// content: the pipeline chain's fingerprint, wrapped in the partial-
// aggregate fingerprint when the plan aggregates. Post-merge fragments
// (HAVING, final sort/limit) are deliberately absent — they diverge per
// member and share separately through the group's post-merge trie,
// rooted at this key. ok is false for plans the shared merge cannot
// serve: join decompositions (they merge through pair caches) and scans
// without a window. steps must be the decomposition's
// already-linearized pipeline chain (PipelineSteps over Pipelines[0]) —
// the key is derived from the same chain the caller registers in the
// group DAG, so the two can never drift apart.
func MergeKey(d *Decomposition, steps []PipelineStep) (string, bool) {
	if d == nil || d.Join != nil || len(d.Pipelines) != 1 {
		return "", false
	}
	scan := d.Pipelines[0].Scan
	if scan.Window == nil {
		return "", false
	}
	fp := Fingerprint(scan)
	if len(steps) > 0 {
		fp = steps[len(steps)-1].Fp
	}
	if d.Agg != nil {
		fp = FingerprintAggregate(d.Agg, fp)
	}
	return fmt.Sprintf("merge{parts=%d}(%s)", scan.Window.Parts(), fp), true
}

// JoinMergeKey is the merge-class key of a join decomposition: members of
// one join group whose decompositions agree on it hold byte-identical
// merged join views — the concatenation, in (leftGen, rightGen) order, of
// the live basic-window pair results — so the group can own one pair of
// merge rings per class and evaluate the merged view once per fanned-out
// window for all of them. The key is the window extent in basic windows
// plus the join node's canonical fingerprint, which recursively includes
// both side pipelines' fingerprints: two members share a class exactly
// when their per-window pipelines AND their join agree, which is also
// when they share a pair cache. Post-merge fragments (HAVING, final
// aggregates, sort/limit) are deliberately absent — they diverge per
// member and share separately through the join group's post-merge trie,
// rooted at this key. ok is false for non-join decompositions.
func JoinMergeKey(d *Decomposition) (string, bool) {
	if d == nil || d.Join == nil || len(d.Pipelines) != 2 {
		return "", false
	}
	l, r := d.Pipelines[0].Scan, d.Pipelines[1].Scan
	if l.Window == nil || r.Window == nil {
		return "", false
	}
	parts := l.Window.Parts()
	if p := r.Window.Parts(); p > parts {
		parts = p
	}
	return fmt.Sprintf("jmerge{parts=%d}(%s)", parts, Fingerprint(d.Join)), true
}

// GroupKeyOf is the execution-group key of a group with one side per
// scan: each side's GroupKey (for a non-windowed scan, its stream name)
// joined by " ⋈ ". Queries whose scans agree on it consume identical
// basic-window sequences, so one group can drain and slice the streams
// once for all of them; for a stream⋈stream join that is the join group
// key. Like GroupKey it is the slicing granularity of each side — window
// SIZE stays per-member (rings of different extents over the same shared
// sequence). Sides are ordered as they appear in the plan: s⋈r and r⋈s
// slice the same streams but deliver sides in mirrored roles, so they
// form distinct groups rather than sharing one with swapped semantics.
func GroupKeyOf(scans []*ScanStream) string {
	parts := make([]string, len(scans))
	for i, sc := range scans {
		if parts[i] = GroupKey(sc); sc.Window == nil {
			parts[i] = sc.Stream.Name
		}
	}
	return strings.Join(parts, " ⋈ ")
}
