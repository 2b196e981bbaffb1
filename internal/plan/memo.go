// Registration-path memoization over a shared Decomposition. The engine's
// plan cache hands the same immutable *Decomposition to every registration
// of a repeated source, but the factory re-derives the plan's canonical
// identity — linearized pipeline steps, merge-class keys, the join and
// partial-aggregate fingerprints — per member, and those renders (schema
// and constant formatting, mostly) dominate the cost of a cache-hit
// registration. Each derivation below is a pure function of the
// decomposition, so it is computed once under a sync.Once and replayed on
// every later registration of the same plan.
//
// Staleness note: stream-scan fingerprints fold in the stream's fabric
// partition tag (plan.GroupKey), which can change without a catalog
// generation bump. A memoized render therefore may carry a tag from an
// earlier partitioning epoch — but a memo can only replay a string the
// same plan already produced, never coin one that collides with a
// different computation, so the worst case is a missed share across a
// re-partitioning (members fall into separate merge classes), not a
// cross-wiring. Group membership itself is keyed on the live GroupKey at
// registration time and is unaffected.

package plan

import "sync"

type stepsMemo struct {
	once  sync.Once
	steps []PipelineStep
	ok    bool
}

type keyMemo struct {
	once sync.Once
	s    string
	ok   bool
}

type aggMemo struct {
	once sync.Once
	agg  *Aggregate
}

type postMemo struct {
	once   sync.Once
	rootFp string
	steps  []PipelineStep
	ok     bool
}

// decompMemo holds the lazily-computed linearizations and canonical keys
// of one Decomposition. Zero value ready; unexported so plan construction
// and the codec never see it.
type decompMemo struct {
	steps    [2]stepsMemo
	merge    keyMemo
	aggFp    keyMemo
	joinFp   keyMemo
	jmerge   keyMemo
	post     postMemo
	mergeAgg aggMemo
}

// StepsMemo is PipelineSteps over Pipelines[side], computed once per
// decomposition. Callers must treat the returned slice as read-only — it
// is shared across every registration of a cached plan.
func (d *Decomposition) StepsMemo(side int) ([]PipelineStep, bool) {
	m := &d.memo.steps[side]
	m.once.Do(func() {
		p := d.Pipelines[side]
		m.steps, m.ok = PipelineSteps(p.Root, p.Scan)
	})
	return m.steps, m.ok
}

// MergeKeyMemo is MergeKey over the memoized Pipelines[0] chain, computed
// once per decomposition.
func (d *Decomposition) MergeKeyMemo() (string, bool) {
	m := &d.memo.merge
	m.once.Do(func() {
		steps, ok := d.StepsMemo(0)
		if !ok {
			return
		}
		m.s, m.ok = MergeKey(d, steps)
	})
	return m.s, m.ok
}

// AggFingerprintMemo renders the partial-aggregate stage's fingerprint
// over the memoized pipeline chain — exactly the identity the group DAG
// derives when it registers the aggregate node ("raw" child for an empty
// chain). Empty when the decomposition has no aggregate stage.
func (d *Decomposition) AggFingerprintMemo() string {
	if d.Agg == nil {
		return ""
	}
	m := &d.memo.aggFp
	m.once.Do(func() {
		childFp := "raw"
		if steps, ok := d.StepsMemo(0); ok && len(steps) > 0 {
			childFp = steps[len(steps)-1].Fp
		}
		m.s = FingerprintAggregate(d.Agg, childFp)
	})
	return m.s
}

// JoinFingerprintMemo is Fingerprint(d.Join), computed once per
// decomposition; empty for single-stream plans.
func (d *Decomposition) JoinFingerprintMemo() string {
	if d.Join == nil {
		return ""
	}
	m := &d.memo.joinFp
	m.once.Do(func() { m.s = Fingerprint(d.Join) })
	return m.s
}

// ClassKeyMemo is the decomposition's merge-class key: JoinMergeKeyMemo
// for a join, MergeKeyMemo otherwise. It is also the root fingerprint of
// the post-merge chain (PostStepsMemo).
func (d *Decomposition) ClassKeyMemo() string {
	if d.Join != nil {
		s, _ := d.JoinMergeKeyMemo()
		return s
	}
	s, _ := d.MergeKeyMemo()
	return s
}

// JoinMergeKeyMemo is JoinMergeKey, computed once per decomposition.
func (d *Decomposition) JoinMergeKeyMemo() (string, bool) {
	m := &d.memo.jmerge
	m.once.Do(func() { m.s, m.ok = JoinMergeKey(d) })
	return m.s, m.ok
}

// PostStepsMemo is PostSteps rooted at rootFp, computed once per
// decomposition. rootFp is itself a memoized key (MergeKeyMemo or
// JoinMergeKeyMemo) and so constant per plan; if a caller ever passes a
// different root, the memo is bypassed rather than replayed wrong.
func (d *Decomposition) PostStepsMemo(rootFp string) ([]PipelineStep, bool) {
	m := &d.memo.post
	m.once.Do(func() {
		m.rootFp = rootFp
		m.steps, m.ok = PostSteps(d.Post, d.MergedLeaf, rootFp)
	})
	if m.rootFp != rootFp {
		return PostSteps(d.Post, d.MergedLeaf, rootFp)
	}
	return m.steps, m.ok
}

// MergePlanMemo is MergePlan(d.Agg), derived once per decomposition; nil
// when the decomposition has no aggregate stage.
func (d *Decomposition) MergePlanMemo() *Aggregate {
	if d.Agg == nil {
		return nil
	}
	m := &d.memo.mergeAgg
	m.once.Do(func() { m.agg = MergePlan(d.Agg) })
	return m.agg
}
