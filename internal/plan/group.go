package plan

import (
	"fmt"
	"strings"
)

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

// mergeKey is the decomposition's merge-class key. Members of one
// execution group whose decompositions agree on it hold byte-identical
// full-window merged views, so the group can own one merge ring per class
// and evaluate the merge once per sealed window for all of them: partial-
// aggregate merging or concatenation of cached pipeline outputs over one
// stream, the (leftGen, rightGen)-ordered concatenation of the live
// basic-window pair results over a join. The key is the window extent in
// basic windows plus the canonical fingerprint of the merged view's
// content: the pipeline chain's fingerprint, wrapped in the partial-
// aggregate fingerprint when the plan aggregates, or the join's
// fingerprint, which recursively covers both side pipelines, so two join
// members share a class exactly when they share a pair cache. Post-merge
// fragments (HAVING, final aggregates, sort/limit) are deliberately
// absent: they diverge per member and share separately through the
// group's post-merge trie, rooted at this key. Decompose certified every
// scan windowed.
func (d *Decomposition) mergeKey() string {
	if d.Join != nil {
		parts := 0
		for _, p := range d.Pipelines {
			parts = max(parts, p.Scan.Window.Parts())
		}
		return fmt.Sprintf("jmerge{parts=%d}(%s)", parts, d.JoinFp)
	}
	p := d.Pipelines[0]
	fp := d.AggFp
	switch {
	case d.Agg != nil:
	case len(p.Steps) > 0:
		fp = p.Steps[len(p.Steps)-1].Fp
	default:
		fp = Fingerprint(p.Scan)
	}
	return fmt.Sprintf("merge{parts=%d}(%s)", p.Scan.Window.Parts(), fp)
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
