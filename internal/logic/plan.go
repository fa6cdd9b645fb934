package logic

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the greedy selectivity-ordered join planner
// behind every join (ROADMAP open item: janus-datalog's "When Greedy
// Beats Optimal" result — greedy smallest-relation-first ordering with
// zero statistics beats cost-based planning for pattern queries). A
// plan is a visiting order over the positive body atoms:
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
// A plan also fixes, per step, which slots the step binds, which
// arguments are bound before it (its posting-list candidates) and
// whether it is a single probe, so the kernel (join.go) does no
// boundness bookkeeping. Plans are cached per (delta seed, bound-slot
// mask) in the BodyPlans of one body and invalidated when a
// predicate's fact count grows past the re-plan threshold; the
// package-level adapters in hom.go plan per call, in reused storage.
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

// Re-plan threshold: a cached plan is invalidated when any body
// predicate's fact count exceeds 2x its count at plan time plus slack.
// Growth-only invalidation keeps sibling search branches of different
// sizes from thrashing a shared cache: a plan computed on a larger
// store stays valid on a smaller sibling.
const (
	replanGrowth = 2
	replanSlack  = 8
)

// maxPlansPerSeed caps the cached plans of one delta seed; distinct
// bound-slot masks are few in practice, and dropping cached orders
// never changes a result.
const maxPlansPerSeed = 64

// BodyPlans is one fixed body (pos, neg) compiled for the join kernel:
// its variables laid out as dense slots, its compilation against the
// store's Symbols table, and its cached join plans. Create one per rule
// body (or head disjunct) and reuse it for every join over that body.
//
// The compilation is built once per Symbols table and published as soon
// as every symbol the body names is interned; until then each join
// re-checks the missing symbols and recompiles once one appears. Ids
// are never renumbered, so a published compilation stays valid.
//
// Concurrency: safe for concurrent use. The compilation and the plan
// lists are immutable once published and read through atomic pointers;
// a new plan is published copy-on-write under a mutex, so parallel
// search workers planning against their own store snapshots never
// observe a partially built plan. Plans cached from one snapshot chain
// may be reused against another; that is sound (plans only order the
// join) and the growth threshold re-plans when the stores have
// meaningfully diverged. Each goroutine passes its own Scratch.
type BodyPlans struct {
	pos, neg []Atom
	slots    []string // slot layout
	comp     atomic.Pointer[compiledBody]
	plans    []atomic.Pointer[[]*plan] // by delta seed + 1
	mu       sync.Mutex                // serializes plan publication

	// hits/misses/replans instrument the cache for tests: a miss fills
	// an empty slot, a replan replaces an invalidated plan.
	hits, misses, replans atomic.Int64

	// oneShot marks the throwaway body of a package-level adapter call:
	// it plans per call and publishes nothing.
	oneShot bool
	// keyNeg marks a body whose negative atoms only build keys (see
	// CompileRule): its joins do not check them.
	keyNeg bool
}

// NewBodyPlans prepares the body (pos, neg). Its slots are the sorted
// distinct variables of pos, followed by the sorted variables only neg
// mentions. The atom slices are retained and must not be mutated
// afterwards.
func NewBodyPlans(pos, neg []Atom) *BodyPlans { return newBodyPlansOver(nil, pos, neg) }

// newBodyPlansOver is NewBodyPlans with a given slot layout: the
// variables of layout take slots 0..len(layout)-1, and any other
// variable of the body follows as in NewBodyPlans. A caller joining a
// rule's head disjunct passes the rule's body variables, so the ids of
// a body match pre-bind the head's frontier slots.
func newBodyPlansOver(layout []string, pos, neg []Atom) *BodyPlans {
	// The layout is shared, not copied; a variable it lacks is appended
	// to a copy (the full slice expression forbids writing into it).
	bp := &BodyPlans{pos: pos, neg: neg, slots: bodySlots(layout[:len(layout):len(layout)], pos, neg)}
	bp.plans = make([]atomic.Pointer[[]*plan], len(pos)+1)
	return bp
}

// bodySlots appends onto layout the variables of the body it lacks: the
// sorted variables of pos, then the sorted ones only neg mentions.
func bodySlots(layout []string, pos, neg []Atom) []string {
	var buf [16]string
	for _, atoms := range [2][]Atom{pos, neg} {
		vs := buf[:0]
		for _, a := range atoms {
			vs = a.Vars(vs)
		}
		sort.Strings(vs)
		for _, v := range vs {
			if slotIndex(layout, v) < 0 {
				layout = append(layout, v)
			}
		}
	}
	return layout
}

// RulePlans is a rule compiled for the join kernel over the one slot
// layout every engine joins it with: the sorted positive-body variables
// take the first slots, and head disjunct d lays its existential
// variables out after them. A body match's ids thus pre-bind each
// disjunct's frontier, and existential witnesses fill the slots after
// the body's.
type RulePlans struct {
	// Pos and Neg are the rule's split body literals.
	Pos, Neg []Atom
	// Vars are the sorted positive-body variables: the domain of the
	// rule's triggers and the first slots of Body and of every Heads[d].
	Vars []string
	// Exist[d] lists the existential variables of disjunct d in
	// first-occurrence order; they follow Vars in Heads[d]'s slots.
	Exist [][]string
	// Body joins the positive body; its atom len(Pos)+j is negative
	// literal j, for AppendKey.
	Body *BodyPlans
	// Heads[d] joins head disjunct d.
	Heads []*BodyPlans
}

// CompileRule compiles r (see RulePlans). With checkNeg set, Body's
// joins enumerate the rule's triggers, dropping every match under which
// a negative literal's instance is in the store; without it they
// enumerate every homomorphism of the positive body, for callers that
// ground the negative literals themselves through Body.AppendKey.
func CompileRule(r *Rule, checkNeg bool) *RulePlans {
	rp := &RulePlans{Exist: make([][]string, len(r.Heads)), Heads: make([]*BodyPlans, len(r.Heads))}
	rp.Pos, rp.Neg = SplitLiterals(r.Body)
	for _, a := range rp.Pos {
		rp.Vars = a.Vars(rp.Vars)
	}
	sort.Strings(rp.Vars)
	rp.Vars = slices.Compact(rp.Vars)
	rp.Body = newBodyPlansOver(rp.Vars, rp.Pos, rp.Neg)
	rp.Body.keyNeg = !checkNeg
	for d, head := range r.Heads {
		rp.Exist[d] = r.ExistVars(d)
		layout := rp.Vars
		if len(rp.Exist[d]) > 0 {
			layout = append(append([]string(nil), rp.Vars...), rp.Exist[d]...)
		}
		rp.Heads[d] = newBodyPlansOver(layout, head, nil)
	}
	return rp
}

// slotIndex returns the slot of variable v in the layout, or -1.
func slotIndex(slots []string, v string) int32 {
	for i, s := range slots {
		if s == v {
			return int32(i)
		}
	}
	return -1
}

// Slots returns the slot layout: slot i holds the variable Slots()[i].
func (bp *BodyPlans) Slots() []string { return bp.slots }

// compiled returns the body compiled against syms (see BodyPlans).
func (bp *BodyPlans) compiled(syms *Symbols) *compiledBody {
	c := bp.comp.Load()
	if c != nil && c.syms == syms && (c.missing == 0 || !c.resolvable()) {
		return c
	}
	c = compileBody(syms, bp.pos, bp.neg, bp.slots)
	bp.comp.Store(c)
	return c
}

// CacheStats reports (hits, misses, replans) of the plan cache; used
// by tests and debug tooling.
func (bp *BodyPlans) CacheStats() (hits, misses, replans int64) {
	return bp.hits.Load(), bp.misses.Load(), bp.replans.Load()
}

// FindHoms enumerates every match of the body extending init, the ids
// pre-bound to the first len(init) slots (typically another match's
// IDs): h(pos) ⊆ store and no negative atom whose slots are all bound
// is in the store (see the package-level FindHoms). The frame comes
// from sc; a warm call allocates nothing. It reports whether the
// enumeration ran to completion.
func (bp *BodyPlans) FindHoms(sc *Scratch, store *FactStore, init []uint32, fn MatchVisitor) bool {
	return bp.search(sc, store, 0, init, fn)
}

// FindHomsFrom is FindHoms restricted to the matches using at least one
// store atom with index ≥ from for a positive body atom, each produced
// exactly once (see the package-level FindHomsFrom). Each delta seed
// has its own cached plan; the seed atom stays first, so the delta
// window is always the most selective constraint applied.
func (bp *BodyPlans) FindHomsFrom(sc *Scratch, store *FactStore, from int, init []uint32, fn MatchVisitor) bool {
	return bp.search(sc, store, from, init, fn)
}

// Exists reports whether the body has a match extending init.
func (bp *BodyPlans) Exists(sc *Scratch, store *FactStore, init []uint32) bool {
	found := false
	bp.search(sc, store, 0, init, func(*Match) bool {
		found = true
		return false
	})
	return found
}

// AppendKey appends onto dst the packed key of the body's atom k
// (positive atoms first, then negative ones) under the slot values
// vals; ok is false when a slot of the atom is not bound. With intern
// set, symbols
// never seen are interned into the store's table, for callers that
// keep or add the key; otherwise ok is false when some symbol was never
// interned (the instance is in no store sharing the table). Ground
// atoms build their keys from ids alone, without the Symbols lock.
func (bp *BodyPlans) AppendKey(store *FactStore, dst []byte, k int, vals []uint32, intern bool) ([]byte, bool) {
	c := bp.compiled(store.syms)
	return c.appendKey(dst, &c.atoms[k], vals, intern)
}

func (bp *BodyPlans) search(sc *Scratch, store *FactStore, from int, init []uint32, fn MatchVisitor) bool {
	if from > 0 && (from >= store.Len() || len(bp.pos) == 0) {
		// Empty delta, or no positive atom to cover it: nothing new.
		return true
	}
	from = max(from, 0)
	c := bp.compiled(store.syms)
	f := sc.push(c, store, len(bp.slots), len(bp.pos), init)
	defer sc.pop()
	f.from = from
	// A plan is keyed by the bound-slot mask (bodies with more than 64
	// slots plan per call), and every seed's plan is checked against the
	// same predicate counts: the store does not change during a call.
	mask, cacheable := uint64(0), len(bp.slots) <= 64
	if cacheable {
		for i, v := range f.vals {
			if v != unbound {
				mask |= 1 << uint(i)
			}
		}
	}
	planned := !joinPlanningOff.Load() && len(bp.pos) > 1 && (from == 0 || len(bp.pos) > 2)
	var cbuf [16]int
	var counts []int
	if planned {
		counts = f.predCounts(cbuf[:0])
	}
	if from == 0 {
		return bp.run(f, -1, mask, cacheable, counts, fn)
	}
	for j := range bp.pos {
		if !bp.run(f, j, mask, cacheable, counts, fn) {
			return false
		}
	}
	return true
}

// run executes the plan for one delta seed (-1: the full search).
func (bp *BodyPlans) run(f *frame, seed int, mask uint64, cacheable bool, counts []int, fn MatchVisitor) bool {
	p := bp.planFor(f, seed, mask, cacheable, counts)
	f.steps, f.lists, f.negs = p.steps, p.lists, p.negs
	return f.extend(0, fn)
}

// predCounts appends the fact count of every positive atom's predicate.
func (f *frame) predCounts(buf []int) []int {
	atoms := f.c.atoms[:len(f.idx)]
	for i := range atoms {
		n := -1
		for j := 0; j < i; j++ {
			if atoms[j].pred == atoms[i].pred {
				n = buf[j]
				break
			}
		}
		if n < 0 {
			n = 0
			if atoms[i].pred != missingID {
				n = f.countPred(atoms[i].pred, 0, f.n)
			}
		}
		buf = append(buf, n)
	}
	return buf
}

// plan is one join order compiled into kernel steps, with the negative
// atoms to probe once every positive atom matched and the per-atom
// predicate counts at plan time, which the re-plan threshold checks.
// Plans live as long as their BodyPlans — a compiled program keeps its
// rules' — so the steps are compact: their slot and argument lists are
// ranges of one shared array.
type plan struct {
	mask    uint64
	steps   []step
	lists   []int32 // per step: the slots it binds, then its keyed arguments
	negs    []int
	predCnt []int32
}

// step is one positive atom of a plan. lists[lo:mid] are the slots the
// step binds (cleared on backtrack) and lists[mid:hi] the argument
// positions bound before it, which key its candidates.
type step struct {
	atom        int32 // body position (written order)
	lo, mid, hi int32
	win         uint8 // winFull, winDelta or winOld
	probe       bool  // every slot is bound before the step: one key probe
}

// valid reports whether a cached plan is still inside its re-plan
// thresholds against the body's current predicate counts.
func (p *plan) valid(counts []int) bool {
	for i, n := range counts {
		if n > replanGrowth*int(p.predCnt[i])+replanSlack {
			return false
		}
	}
	return true
}

// planFor returns the plan for (seed, mask): the cached one while it is
// valid, else a fresh greedy order against the current store, cached
// when cacheable and planning is on.
func (bp *BodyPlans) planFor(f *frame, seed int, mask uint64, cacheable bool, counts []int) *plan {
	if !cacheable || bp.oneShot || joinPlanningOff.Load() {
		// Not cached: built in the frame's reused storage, valid until
		// the frame's next plan.
		return bp.makePlan(&f.plan, f, seed, mask, counts)
	}
	if list := bp.plans[seed+1].Load(); list != nil {
		for _, p := range *list {
			if p.mask == mask {
				if p.valid(counts) {
					if counts != nil {
						bp.hits.Add(1)
					}
					return p
				}
				break
			}
		}
	}
	p := bp.makePlan(new(plan), f, seed, mask, counts)
	bp.mu.Lock()
	defer bp.mu.Unlock()
	old := bp.plans[seed+1].Load()
	next := make([]*plan, 0, 4)
	replaced := false
	if old != nil && len(*old) < maxPlansPerSeed {
		for _, q := range *old {
			if q.mask == mask {
				replaced = true
				continue
			}
			next = append(next, q)
		}
	}
	if counts != nil {
		if replaced {
			bp.replans.Add(1)
		} else {
			bp.misses.Add(1)
		}
	}
	next = append(next, p)
	bp.plans[seed+1].Store(&next)
	return p
}

// makePlan arranges the positive atoms for seed — the seed atom first
// over the delta, earlier atoms over the whole store, later ones over
// the old part — orders them greedily when counts is set, and compiles
// the steps into p, reusing p's storage (a fresh plan is sized
// exactly). f holds the pre-bound slots and the store.
func (bp *BodyPlans) makePlan(p *plan, f *frame, seed int, mask uint64, counts []int) *plan {
	p.mask, p.steps, p.negs, p.predCnt = mask, slices.Grow(p.steps[:0], len(bp.pos)), p.negs[:0], p.predCnt[:0]
	if counts != nil {
		p.predCnt = slices.Grow(p.predCnt, len(counts))
		for _, n := range counts {
			p.predCnt = append(p.predCnt, int32(n))
		}
	}
	pinned := 0
	if seed >= 0 {
		p.steps = append(p.steps, step{atom: int32(seed), win: winDelta})
		pinned = 1
	}
	for k := range bp.pos {
		switch {
		case seed < 0:
			p.steps = append(p.steps, step{atom: int32(k), win: winFull})
		case k < seed:
			p.steps = append(p.steps, step{atom: int32(k), win: winFull})
		case k > seed:
			p.steps = append(p.steps, step{atom: int32(k), win: winOld})
		}
	}
	n := len(bp.slots)
	f.flags = slices.Grow(f.flags[:0], 2*n)[:2*n] // the pre-bound slots, then the bound ones
	init, bound := f.flags[:n:n], f.flags[n:]
	for i, v := range f.vals {
		init[i] = v != unbound
	}
	if counts != nil {
		planOrder(f, p.steps, pinned, init, bound)
	}
	copy(bound, init)
	n = 0
	for _, st := range p.steps {
		n += len(f.c.atoms[st.atom].slots) + len(f.c.atoms[st.atom].args)
	}
	p.lists = slices.Grow(p.lists[:0], n)
	for j := range p.steps {
		s := &p.steps[j]
		a := &f.c.atoms[s.atom]
		s.lo = int32(len(p.lists))
		for _, sl := range a.slots {
			if !bound[sl] {
				p.lists = append(p.lists, sl)
			}
		}
		s.mid = int32(len(p.lists))
		for i := range a.args {
			if groundUnder(&a.args[i], bound) {
				p.lists = append(p.lists, int32(i))
			}
		}
		s.hi = int32(len(p.lists))
		s.probe = s.lo == s.mid
		for _, sl := range p.lists[s.lo:s.mid] {
			bound[sl] = true
		}
	}
	for k := len(bp.pos); k < len(f.c.atoms) && !bp.keyNeg; k++ {
		ground := true
		for _, sl := range f.c.atoms[k].slots {
			ground = ground && bound[sl]
		}
		// A negative atom left with a free slot is only evaluated for
		// its bound instances (safe fragment): it blocks nothing.
		if ground {
			p.negs = append(p.negs, k)
		}
	}
	return p
}

// groundUnder reports whether the compiled term is ground once the
// bound slots are substituted.
func groundUnder(t *cterm, bound []bool) bool {
	switch t.slot {
	case slotGround:
		return true
	case slotFunc:
		for i := range t.args {
			if !groundUnder(&t.args[i], bound) {
				return false
			}
		}
		return true
	default:
		return bound[t.slot]
	}
}

// planOrder reorders steps[pinned:] in place into the greedy
// selectivity order described at the top of this file. Steps before
// pinned are fixed — the delta seed of FindHomsFrom — but still
// contribute their variables to the bound set. init marks the
// pre-bound slots, whose ids (in f) sharpen the candidate estimates;
// bound is scratch of the same length.
func planOrder(f *frame, steps []step, pinned int, init, bound []bool) {
	if len(steps)-pinned <= 1 {
		return
	}
	copy(bound, init)
	markBound := func(s step) {
		for _, sl := range f.c.atoms[s.atom].slots {
			bound[sl] = true
		}
	}
	for i := 0; i < pinned; i++ {
		markBound(steps[i])
	}
	for at := pinned; at < len(steps); at++ {
		best, bestClass, bestEst, bestBound := at, 1<<30, 1<<62, -1
		for i := at; i < len(steps); i++ {
			class, nb := patClass(&f.c.atoms[steps[i].atom], bound)
			var est int
			if class > 0 {
				est = f.estimate(steps[i], init)
			}
			if class < bestClass ||
				(class == bestClass && est < bestEst) ||
				(class == bestClass && est == bestEst && nb > bestBound) {
				best, bestClass, bestEst, bestBound = i, class, est, nb
			}
		}
		steps[at], steps[best] = steps[best], steps[at]
		markBound(steps[at])
	}
}

// estimate upper-bounds the number of candidate facts for the step:
// the predicate count within its window, improved by the posting list
// of any argument ground under the pre-bound slots.
func (f *frame) estimate(s step, init []bool) int {
	a := &f.c.atoms[s.atom]
	if a.pred == missingID {
		return 0
	}
	lo, hi := f.window(s.win)
	est := f.countPred(a.pred, lo, hi)
	for i := range a.args {
		if !groundUnder(&a.args[i], init) {
			continue
		}
		id, ok := f.c.termID(&a.args[i], f.vals, false)
		if !ok {
			return 0 // the term was never interned: no fact can match
		}
		if n := f.countPostings(a.pred, i, id, lo, hi); n < est {
			est = n
		}
	}
	return est
}

// patClass classifies an atom against the current bound slot set:
//
//	0 — fully ground (every slot bound): one hash probe;
//	1 — at least one bound slot: a posting-list join;
//	2 — no bound slot but a ground argument term: an indexed scan;
//	3 — unconstrained: a per-predicate scan.
//
// nb is the number of distinct bound slots, the tie-breaker after the
// candidate estimate.
func patClass(a *catom, bound []bool) (class, nb int) {
	for _, sl := range a.slots {
		if bound[sl] {
			nb++
		}
	}
	if nb == len(a.slots) {
		return 0, nb
	}
	if nb > 0 {
		return 1, nb
	}
	for i := range a.args {
		if a.args[i].slot == slotGround {
			return 2, 0
		}
	}
	return 3, 0
}
