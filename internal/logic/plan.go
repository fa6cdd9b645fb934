package logic

import (
	"sync"
	"sync/atomic"
)

// This file implements the greedy selectivity-ordered join planner
// behind FindHoms/FindHomsFrom (ROADMAP open item: janus-datalog's
// "When Greedy Beats Optimal" result — greedy smallest-relation-first
// ordering with zero statistics beats cost-based planning for pattern
// queries). A plan is a visiting order over the positive body atoms:
//
//   - atoms fully ground under the bindings established so far are
//     pushed ahead of all joins (each is one hash probe, and a miss
//     kills the whole enumeration before any join work);
//   - remaining atoms are picked greedily, preferring atoms with at
//     least one bound variable, then atoms constrained by a ground
//     argument term (a posting-list probe), then unconstrained scans —
//     and within each class the smallest current candidate estimate
//     (the predicate count, improved by the posting list of any ground
//     argument), ties broken by most bound argument variables, then by
//     written position (deterministic).
//
// Plans are either computed per call (the package-level FindHoms and
// FindHomsFrom) or cached per (body, delta seed, binding pattern) in a
// BodyPlans owned by the caller — one per rule body — and invalidated
// when a predicate's fact count grows past the re-plan threshold.
//
// Correctness never depends on the order (the enumeration visits every
// homomorphism under any permutation, and the delta windows of
// FindHomsFrom travel with their atoms through reordering, so each
// delta-seeded homomorphism is still produced exactly once); only the
// emission order and the join cost do. Hom emission order is therefore
// explicitly NOT part of this package's contract — callers that need a
// deterministic, plan-independent selection among homomorphisms must
// impose their own order (the stable-model search orders branching
// triggers by canonical trigger key; see internal/core).

// joinPlanningOff disables the planner when set: body atoms are then
// visited in written order (the delta seed still leads in
// FindHomsFrom). It exists so the differential suites and benchmarks
// can compare planner-on against the written-order baseline; the
// default is planning on.
var joinPlanningOff atomic.Bool

// SetJoinPlanning toggles the join planner globally and returns a
// function restoring the previous setting. Test-only: the toggle is
// process-wide, so concurrent tests flipping it would interfere.
func SetJoinPlanning(on bool) (restore func()) {
	prev := !joinPlanningOff.Load()
	joinPlanningOff.Store(!on)
	return func() { joinPlanningOff.Store(!prev) }
}

// JoinPlanningEnabled reports whether the join planner is active.
func JoinPlanningEnabled() bool { return !joinPlanningOff.Load() }

// Re-plan threshold: a cached plan is invalidated when any body
// predicate's fact count exceeds 2x its count at plan time plus slack.
// Growth-only invalidation keeps sibling search branches of different
// sizes from thrashing a shared cache: a plan computed on a larger
// store stays valid on a smaller sibling.
const (
	replanGrowth = 2
	replanSlack  = 8
)

// BodyPlans caches join plans for one fixed body (pos, neg) across
// binding patterns and delta seeds. Create one per rule body and reuse
// it for every FindHoms/FindHomsFrom over that body; the zero cost of
// a cache hit replaces the per-call greedy ordering (O(atoms²) with
// posting-list probes per pair).
//
// Concurrency: safe for concurrent readers and writers. Lookups are
// lock-free (an atomic pointer to an immutable map); a replan copies
// the map under a mutex and publishes the new pointer, so readers on
// other goroutines — e.g. parallel search workers planning against
// their own store snapshots — never observe a partially built plan.
// Plans cached from one snapshot chain may be reused against another;
// that is sound (plans only order the join) and the growth threshold
// re-plans when the stores have meaningfully diverged.
type BodyPlans struct {
	pos, neg []Atom
	vars     []string // sorted distinct positive-body variables
	varIdx   map[string]int
	plans    atomic.Pointer[map[planKey]*bodyPlan]
	mu       sync.Mutex // serializes replans (lookups are lock-free)

	// hits/misses/replans instrument the cache for tests: a miss fills
	// an empty slot, a replan replaces an invalidated plan.
	hits, misses, replans atomic.Int64
}

// planKey identifies a cached plan: the delta-seed body position (-1
// for a full FindHoms) and the binding pattern — the set of body
// variables ground under the initial substitution, as a bitmask over
// the sorted variable list.
type planKey struct {
	seed int
	mask uint64
}

// bodyPlan is one cached join order: the body-atom visiting order (for
// a delta plan, order[0] is the seed) and the per-atom predicate
// counts at plan time, which the re-plan threshold checks against.
type bodyPlan struct {
	order   []int
	predCnt []int
}

// NewBodyPlans prepares a plan cache for the body (pos, neg). The
// atom slices are retained and must not be mutated afterwards.
func NewBodyPlans(pos, neg []Atom) *BodyPlans {
	bp := &BodyPlans{pos: pos, neg: neg}
	seen := make(map[string]bool, 8)
	var buf []string
	for _, a := range pos {
		buf = a.Vars(buf[:0])
		for _, v := range buf {
			if !seen[v] {
				seen[v] = true
				bp.vars = append(bp.vars, v)
			}
		}
	}
	sortStringsInPlace(bp.vars)
	bp.varIdx = make(map[string]int, len(bp.vars))
	for i, v := range bp.vars {
		bp.varIdx[v] = i
	}
	return bp
}

func sortStringsInPlace(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// maskOf computes the binding-pattern bitmask of init: bit i is set
// when bp.vars[i] is bound to a ground term. ok is false when the body
// has more than 64 variables (then plans are computed per call).
func (bp *BodyPlans) maskOf(init Subst) (mask uint64, ok bool) {
	if len(bp.vars) > 64 {
		return 0, false
	}
	if len(init) == 0 {
		return 0, true
	}
	for v, t := range init {
		if i, here := bp.varIdx[v]; here && t.IsGround() {
			mask |= 1 << uint(i)
		}
	}
	return mask, true
}

// predCounts appends the store's fact count of every positive body
// atom's predicate to buf. A FindHoms or FindHomsFrom call takes the
// counts once and checks every seed's plan against them: the store
// does not change during a call.
func (bp *BodyPlans) predCounts(store *FactStore, buf []int) []int {
	for _, a := range bp.pos {
		buf = append(buf, store.CountPred(a.Pred))
	}
	return buf
}

// valid reports whether a cached plan is still inside its re-plan
// thresholds against the body's current predicate counts.
func (p *bodyPlan) valid(counts []int) bool {
	for i, n := range counts {
		if n > replanGrowth*p.predCnt[i]+replanSlack {
			return false
		}
	}
	return true
}

// applyPlan arranges pats — parallel to idxs, the original body
// positions, with the first `pinned` entries fixed (the delta seed) —
// into the cached plan order for (seed, binding pattern of init),
// computing and caching a fresh plan on miss or threshold crossing.
// counts are the store's body predicate counts (see predCounts).
func (bp *BodyPlans) applyPlan(seed, pinned int, pats []pat, idxs []int, init Subst, store *FactStore, counts []int) {
	mask, cacheable := bp.maskOf(init)
	if !cacheable {
		planOrder(pats, nil, pinned, init, store)
		return
	}
	key := planKey{seed: seed, mask: mask}
	if m := bp.plans.Load(); m != nil {
		if p := (*m)[key]; p != nil && p.valid(counts) {
			bp.hits.Add(1)
			// Permute pats into the cached order in place: idxs names the
			// original body position each slot holds, so every target slot
			// is one search of the unplaced suffix plus one swap, with no
			// temporary copy. Windows travel with their atoms.
			for at, orig := range p.order {
				j := at
				for idxs[j] != orig {
					j++
				}
				pats[at], pats[j] = pats[j], pats[at]
				idxs[at], idxs[j] = idxs[j], idxs[at]
			}
			return
		}
	}
	// Miss or invalidated: compute the greedy order against the current
	// store and publish it.
	planOrder(pats, idxs, pinned, init, store)
	plan := &bodyPlan{
		order:   append([]int(nil), idxs...),
		predCnt: append([]int(nil), counts...),
	}
	bp.mu.Lock()
	old := bp.plans.Load()
	var next map[planKey]*bodyPlan
	if old == nil || len(*old) >= 256 {
		// Cap runaway caches (distinct binding patterns are few in
		// practice); resetting drops only cached orders, never results.
		next = make(map[planKey]*bodyPlan, 4)
	} else {
		next = make(map[planKey]*bodyPlan, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
	}
	if old != nil && (*old)[key] != nil {
		bp.replans.Add(1)
	} else {
		bp.misses.Add(1)
	}
	next[key] = plan
	bp.plans.Store(&next)
	bp.mu.Unlock()
}

// FindHoms is FindHoms over this body with the cached plan for init's
// binding pattern (see the package-level FindHoms for the semantics).
func (bp *BodyPlans) FindHoms(store *FactStore, init Subst, fn HomVisitor) bool {
	h := init.Clone()
	pats := make([]pat, len(bp.pos))
	idxs := make([]int, len(bp.pos))
	n := store.Len()
	for i, a := range bp.pos {
		pats[i] = pat{atom: a, lo: 0, hi: n}
		idxs[i] = i
	}
	if !joinPlanningOff.Load() && len(pats) > 1 {
		var buf [16]int
		bp.applyPlan(-1, 0, pats, idxs, init, store, bp.predCounts(store, buf[:0]))
	}
	hs := &homSearch{store: store, neg: bp.neg, fn: fn, pats: pats}
	return hs.extend(0, h)
}

// FindHomsFrom is FindHomsFrom over this body with one cached plan per
// delta seed (see the package-level FindHomsFrom for the exactly-once
// delta semantics). The seed atom anchors every plan: it stays first,
// so the delta window is always the most selective constraint applied.
func (bp *BodyPlans) FindHomsFrom(store *FactStore, from int, init Subst, fn HomVisitor) bool {
	if from <= 0 {
		return bp.FindHoms(store, init, fn)
	}
	n := store.Len()
	if from >= n || len(bp.pos) == 0 {
		return true
	}
	// Every seed's plan is checked against the same predicate counts.
	var buf [16]int
	var counts []int
	if !joinPlanningOff.Load() && len(bp.pos) > 2 {
		counts = bp.predCounts(store, buf[:0])
	}
	// One buffer pair serves every seed: each seed's search finishes
	// before the next seed rebuilds the arrangement.
	pats := make([]pat, 0, len(bp.pos))
	idxs := make([]int, 0, len(bp.pos))
	for j := range bp.pos {
		pats, idxs = pats[:0], idxs[:0]
		pats = append(pats, pat{atom: bp.pos[j], lo: from, hi: n})
		idxs = append(idxs, j)
		for k := range bp.pos {
			switch {
			case k < j:
				pats = append(pats, pat{atom: bp.pos[k], lo: 0, hi: n})
				idxs = append(idxs, k)
			case k > j:
				pats = append(pats, pat{atom: bp.pos[k], lo: 0, hi: from})
				idxs = append(idxs, k)
			}
		}
		if counts != nil {
			bp.applyPlan(j, 1, pats, idxs, init, store, counts)
		}
		h := init.Clone()
		hs := &homSearch{store: store, neg: bp.neg, fn: fn, pats: pats}
		if !hs.extend(0, h) {
			return false
		}
	}
	return true
}

// CacheStats reports (hits, misses, replans) of the plan cache; used
// by tests and debug tooling.
func (bp *BodyPlans) CacheStats() (hits, misses, replans int64) {
	return bp.hits.Load(), bp.misses.Load(), bp.replans.Load()
}

// planOrder reorders pats[pinned:] (and idxs alongside, when non-nil)
// in place into the greedy selectivity order described at the top of
// this file. Patterns before pinned are fixed — the delta seed of
// FindHomsFrom — but still contribute their variables to the bound
// set.
func planOrder(pats []pat, idxs []int, pinned int, init Subst, store *FactStore) {
	if len(pats)-pinned <= 1 {
		return
	}
	bound := make(map[string]bool, len(init)+4)
	for v, t := range init {
		if t.IsGround() {
			bound[v] = true
		}
	}
	var buf []string
	markBound := func(a Atom) {
		buf = a.Vars(buf[:0])
		for _, v := range buf {
			bound[v] = true
		}
	}
	for i := 0; i < pinned; i++ {
		markBound(pats[i].atom)
	}
	for at := pinned; at < len(pats); at++ {
		best, bestClass, bestEst, bestBound := at, 1<<30, 1<<62, -1
		for i := at; i < len(pats); i++ {
			class, nb := patClass(pats[i].atom, bound, init)
			var est int
			if class > 0 {
				est = candidateEstimate(pats[i], init, store)
			}
			if class < bestClass ||
				(class == bestClass && est < bestEst) ||
				(class == bestClass && est == bestEst && nb > bestBound) {
				best, bestClass, bestEst, bestBound = i, class, est, nb
			}
		}
		pats[at], pats[best] = pats[best], pats[at]
		if idxs != nil {
			idxs[at], idxs[best] = idxs[best], idxs[at]
		}
		markBound(pats[at].atom)
	}
}

// patClass classifies an atom against the current bound variable set:
//
//	0 — fully ground (every variable bound): one hash probe;
//	1 — at least one bound variable: a posting-list join;
//	2 — no bound variable but a ground argument term: an indexed scan;
//	3 — unconstrained: a per-predicate scan.
//
// nb is the number of distinct bound variables, the tie-breaker after
// the candidate estimate.
func patClass(a Atom, bound map[string]bool, init Subst) (class, nb int) {
	vars := a.Vars(nil)
	distinct := vars[:0]
	for _, v := range vars {
		dup := false
		for _, u := range distinct {
			if u == v {
				dup = true
				break
			}
		}
		if !dup {
			distinct = append(distinct, v)
		}
	}
	for _, v := range distinct {
		if bound[v] {
			nb++
		}
	}
	if nb == len(distinct) {
		return 0, nb
	}
	if nb > 0 {
		return 1, nb
	}
	for _, t := range a.Args {
		if t.IsGround() || init.ApplyTerm(t).IsGround() {
			return 2, 0
		}
	}
	return 3, 0
}
