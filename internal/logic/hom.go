package logic

import (
	"math"
	"sort"
)

// This file implements homomorphism search: finding substitutions h such
// that h(pos) ⊆ store and, for the closed-world reading used throughout
// the paper, h(neg) ∩ store = ∅. It is the workhorse behind trigger
// detection in the chase and the stable model search, model checking,
// and (normal) conjunctive query evaluation.

// HomVisitor receives one homomorphism; returning false stops the
// search.
type HomVisitor func(Subst) bool

// FindHoms enumerates every substitution h extending init such that
// h(pos[i]) ∈ store for all i and h(neg[j]) ∉ store for all j, invoking
// fn for each. Every variable of neg must occur in pos or be bound by
// init (safety); otherwise negative literals with unbound variables are
// evaluated only for their bound instances, which matches the safe
// fragment used in the paper. The substitutions passed to fn are
// reused between invocations: clone them if they escape. FindHoms
// reports whether the enumeration ran to completion (i.e. fn never
// returned false).
//
// Candidates for each body atom are drawn from the store's
// (predicate, position, term) posting lists whenever a position is
// ground under the substitution built so far; unconstrained atoms fall
// back to the per-predicate scan. Body atoms are visited in the greedy
// selectivity order computed by the join planner (see plan.go; when
// planning is toggled off they are visited in written order), so hom
// emission order is not part of the contract. naiveFindHoms preserves
// the plain scan path as the differential-test oracle; callers joining
// the same body repeatedly should hold a BodyPlans to amortize the
// per-call planning.
func FindHoms(pos, neg []Atom, store *FactStore, init Subst, fn HomVisitor) bool {
	h := init.Clone()
	pats := make([]pat, len(pos))
	for i, a := range pos {
		pats[i] = pat{atom: a, lo: 0, hi: store.Len()}
	}
	if !joinPlanningOff.Load() {
		planOrder(pats, nil, 0, init, store)
	}
	hs := &homSearch{store: store, neg: neg, fn: fn, pats: pats}
	return hs.extend(0, h)
}

// ExistsHom reports whether at least one homomorphism exists (see
// FindHoms for the semantics of pos/neg/init).
func ExistsHom(pos, neg []Atom, store *FactStore, init Subst) bool {
	found := false
	FindHoms(pos, neg, store, init, func(Subst) bool {
		found = true
		return false
	})
	return found
}

// FindHomsFrom is the semi-naive variant of FindHoms: it enumerates
// exactly those homomorphisms that use at least one store atom with
// index ≥ from for a positive body atom (the "delta" of a growing
// store). Each such homomorphism is produced exactly once: it is keyed
// by the last body position (in pos order) matched inside the delta —
// that atom ranges over [from, Len), later atoms over [0, from), and
// earlier atoms over the full store. With from <= 0 it degenerates to
// FindHoms. Fixpoint loops call FindHoms once on the initial store and
// FindHomsFrom with the previous round's high-water mark afterwards,
// turning O(rounds × store) re-scans into O(new facts) work.
func FindHomsFrom(pos, neg []Atom, store *FactStore, from int, init Subst, fn HomVisitor) bool {
	if from <= 0 {
		return FindHoms(pos, neg, store, init, fn)
	}
	n := store.Len()
	if from >= n || len(pos) == 0 {
		// Empty delta, or no positive atom to cover it: nothing new.
		return true
	}
	for j := range pos {
		pats := make([]pat, 0, len(pos))
		// The seed atom goes first: the delta window is the most
		// selective constraint available, and it anchors the plan.
		pats = append(pats, pat{atom: pos[j], lo: from, hi: n})
		for k := range pos {
			switch {
			case k < j:
				pats = append(pats, pat{atom: pos[k], lo: 0, hi: n})
			case k > j:
				pats = append(pats, pat{atom: pos[k], lo: 0, hi: from})
			}
		}
		if !joinPlanningOff.Load() {
			planOrder(pats, nil, 1, init, store)
		}
		h := init.Clone()
		hs := &homSearch{store: store, neg: neg, fn: fn, pats: pats}
		if !hs.extend(0, h) {
			return false
		}
	}
	return true
}

// pat is one positive body atom together with its admissible window of
// store indices [lo, hi): a candidate fact is only considered when its
// insertion rank falls inside the window. Full searches use [0, Len);
// the semi-naive seeding of FindHomsFrom narrows windows to address
// the delta of a growing store.
type pat struct {
	atom   Atom
	lo, hi int
}

// candidateEstimate upper-bounds the number of candidate facts for the
// pattern: the predicate count within the window, improved by the
// posting list of any argument already ground under init.
func candidateEstimate(p pat, init Subst, store *FactStore) int {
	pid, ok := store.syms.LookupPred(p.atom.Pred)
	if !ok {
		return 0
	}
	est := store.countPredWindow(pid, p.lo, p.hi)
	for i, t := range p.atom.Args {
		if !termBoundUnder(init, t) {
			continue
		}
		tid, ok := store.syms.lookupBound(init, t)
		if !ok {
			return 0 // the term was never interned: no fact can match
		}
		if n := store.postingsCount(pid, i, tid, p.lo, p.hi); n < est {
			est = n
		}
	}
	return est
}

// homSearch carries the state of one FindHoms enumeration; scratch
// buffers are reused across backtracking steps to keep the hot path
// allocation-free.
type homSearch struct {
	store *FactStore
	neg   []Atom
	fn    HomVisitor
	pats  []pat
	// per-depth scratch: candidate intersection buffer and undo trail.
	scratch [][]uint32
	trails  [][]string
	keyBuf  []byte // packed-key probe scratch, reused across probes
}

// probeBound resolves the index of h(a) (which the caller established
// is ground under h) via a packed-key probe; a symbol miss means h(a)
// cannot be in the store.
func (hs *homSearch) probeBound(h Subst, a Atom) (int, bool) {
	key, ok := hs.store.syms.appendBoundAtomKey(h, a, hs.keyBuf[:0])
	hs.keyBuf = key[:0]
	if !ok {
		return 0, false
	}
	return hs.store.lookupPacked(key, math.MaxInt)
}

func (hs *homSearch) extend(i int, h Subst) bool {
	if i == len(hs.pats) {
		for _, n := range hs.neg {
			if atomBoundUnder(h, n) {
				if _, ok := hs.probeBound(h, n); ok {
					return true // blocked: this h is not a solution, keep searching
				}
			}
			// Unbound variables left in a negative literal: only bound
			// instances are evaluated (safe fragment), nothing blocks.
		}
		return hs.fn(h)
	}
	for len(hs.scratch) <= i {
		hs.scratch = append(hs.scratch, nil)
		hs.trails = append(hs.trails, nil)
	}
	p := hs.pats[i]
	// Fast path: a pattern fully ground under h needs one hash probe,
	// not a posting-list walk. This is the common case for restricted
	// chase head checks and negative-body-style filters.
	if atomBoundUnder(h, p.atom) {
		if idx, ok := hs.probeBound(h, p.atom); ok && idx >= p.lo && idx < p.hi {
			return hs.extend(i+1, h) // no new bindings to undo
		}
		return true
	}
	cands := hs.candidates(i, p, h)
	trail := hs.trails[i][:0]
	for _, idx := range cands {
		trail = trail[:0]
		if matchAtomTrail(h, p.atom, hs.store.atomAt(int(idx)), &trail) {
			if !hs.extend(i+1, h) {
				undo(h, trail)
				hs.trails[i] = trail
				return false
			}
		}
		undo(h, trail)
	}
	hs.trails[i] = trail
	return true
}

// candidates returns the store indices to try for pattern i under h:
// the posting lists of all argument positions ground under h,
// intersected in place into the depth's scratch buffer (smallest list
// first), clipped to the pattern's window; with no ground position it
// falls back to the per-predicate index. Snapshot layers take a merged
// path instead (see candidatesLayered).
func (hs *homSearch) candidates(depth int, p pat, h Subst) []uint32 {
	if hs.store.parent != nil {
		return hs.candidatesLayered(depth, p, h)
	}
	pid, ok := hs.store.syms.LookupPred(p.atom.Pred)
	if !ok {
		return nil
	}
	var listsBuf [4][]uint32
	lists := listsBuf[:0]
	for i, t := range p.atom.Args {
		if !termBoundUnder(h, t) {
			continue
		}
		tid, ok := hs.store.syms.lookupBound(h, t)
		if !ok {
			return nil // the term was never interned: no fact matches
		}
		l := hs.store.postings(pid, i, tid)
		if len(l) == 0 {
			return nil
		}
		lists = append(lists, l)
	}
	if len(lists) == 0 {
		return clipWindowU32(hs.store.predIndices(pid), p.lo, p.hi)
	}
	// Smallest posting list first: the intersection never grows.
	sort.Slice(lists, func(a, b int) bool { return len(lists[a]) < len(lists[b]) })
	out := clipWindowU32(lists[0], p.lo, p.hi)
	if len(lists) == 1 {
		return out
	}
	buf := append(hs.scratch[depth][:0], out...)
	for _, l := range lists[1:] {
		buf = intersectSorted(buf, clipWindowU32(l, p.lo, p.hi))
		if len(buf) == 0 {
			break
		}
	}
	hs.scratch[depth] = buf
	return buf
}

// candidatesLayered is the snapshot-chain variant of candidates:
// posting lists are split across layers, so instead of intersecting
// shared slices it materializes only the most selective list (the
// per-predicate index or one ground position's postings) into the
// depth's scratch buffer; matchAtomTrail filters the remaining
// positions.
func (hs *homSearch) candidatesLayered(depth int, p pat, h Subst) []uint32 {
	st := hs.store
	pid, ok := st.syms.LookupPred(p.atom.Pred)
	if !ok {
		return nil
	}
	bestPos, bestID := -1, uint32(0)
	bestCount := st.countPredWindow(pid, p.lo, p.hi)
	if bestCount == 0 {
		return nil
	}
	for i, t := range p.atom.Args {
		if !termBoundUnder(h, t) {
			continue
		}
		tid, ok := st.syms.lookupBound(h, t)
		if !ok {
			return nil // the term was never interned: no fact matches
		}
		n := st.postingsCount(pid, i, tid, p.lo, p.hi)
		if n == 0 {
			return nil
		}
		if n < bestCount {
			bestCount, bestPos, bestID = n, i, tid
		}
	}
	buf := hs.scratch[depth][:0]
	if bestPos < 0 {
		buf = st.appendPredIndices(pid, p.lo, p.hi, buf)
	} else {
		buf = st.appendPostings(pid, bestPos, bestID, p.lo, p.hi, buf)
	}
	hs.scratch[depth] = buf
	return buf
}

// atomBoundUnder reports whether every variable of a is bound to a
// ground term under h, i.e. whether h(a) is ground. It allocates
// nothing and exits on the first unbound variable.
func atomBoundUnder(h Subst, a Atom) bool {
	for _, t := range a.Args {
		if !termBoundUnder(h, t) {
			return false
		}
	}
	return true
}

func termBoundUnder(h Subst, t Term) bool {
	switch t.Kind {
	case Var:
		u, ok := h[t.Name]
		return ok && u.IsGround()
	case Func:
		for _, a := range t.Args {
			if !termBoundUnder(h, a) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// HasUnder reports whether h(a) is in the store, where a is expected to
// be ground under h; an atom left non-ground reports false, matching
// the bound-instances-only reading of negative literals in FindHoms. It
// allocates nothing beyond the probe key.
func (s *FactStore) HasUnder(h Subst, a Atom) bool {
	_, ok := s.IndexUnder(h, a)
	return ok
}

// BoundUnder reports whether h(a) is ground: every variable of a is
// bound by h to a ground term. It is the boundness test behind
// HasUnder/IndexUnder, exported for encoders that must distinguish
// "instance absent" from "instance not yet determined".
func BoundUnder(h Subst, a Atom) bool { return atomBoundUnder(h, a) }

// IndexUnder returns the global store index of h(a), where a is
// expected to be ground under h; ok is false when h(a) is non-ground or
// absent. It is the index-based companion of HasUnder for encoders that
// address atoms by store index instead of allocated key strings — the
// index is stable across the snapshot chain and across the store's
// later growth, so it can key long-lived per-atom state (e.g. SAT
// variables) without retaining the rendered key.
func (s *FactStore) IndexUnder(h Subst, a Atom) (int, bool) {
	if !atomBoundUnder(h, a) {
		return 0, false
	}
	var kb [64]byte
	key, ok := s.syms.appendBoundAtomKey(h, a, kb[:0])
	if !ok {
		return 0, false
	}
	return s.lookupPacked(key, math.MaxInt)
}

// clipWindowU32 narrows an ascending index list to [lo, hi) by binary
// search; the result aliases the input.
func clipWindowU32(idxs []uint32, lo, hi int) []uint32 {
	if len(idxs) == 0 {
		return idxs
	}
	a := sort.Search(len(idxs), func(i int) bool { return int(idxs[i]) >= lo })
	b := sort.Search(len(idxs), func(i int) bool { return int(idxs[i]) >= hi })
	return idxs[a:b]
}

// intersectSorted intersects two ascending lists, writing the result
// over the prefix of a (in place).
func intersectSorted(a, b []uint32) []uint32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// naiveFindHoms is the pre-index search kept verbatim as the
// differential-test oracle: candidates always come from the full
// per-predicate scan, in the original greedy sharing order.
func naiveFindHoms(pos, neg []Atom, store *FactStore, init Subst, fn HomVisitor) bool {
	h := init.Clone()
	order := naiveOrderAtoms(pos, h)
	return naiveExtendHom(order, 0, neg, store, h, fn)
}

func naiveOrderAtoms(pos []Atom, init Subst) []Atom {
	if len(pos) <= 1 {
		return pos
	}
	remaining := append([]Atom(nil), pos...)
	bound := make(map[string]bool, len(init))
	for v := range init {
		bound[v] = true
	}
	ordered := make([]Atom, 0, len(pos))
	var buf []string
	for len(remaining) > 0 {
		best, bestScore := 0, -1<<30
		for i, a := range remaining {
			buf = a.Vars(buf[:0])
			sharing := 0
			for _, v := range buf {
				if bound[v] {
					sharing++
				}
			}
			// Prefer high sharing; among equal sharing prefer earlier
			// (stable, deterministic).
			score := sharing * 1000
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		a := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		ordered = append(ordered, a)
		buf = a.Vars(buf[:0])
		for _, v := range buf {
			bound[v] = true
		}
	}
	return ordered
}

func naiveExtendHom(pos []Atom, i int, neg []Atom, store *FactStore, h Subst, fn HomVisitor) bool {
	if i == len(pos) {
		for _, n := range neg {
			g := h.ApplyAtom(n)
			if store.Has(g) {
				return true // blocked: this h is not a solution, keep searching
			}
		}
		return fn(h)
	}
	pattern := pos[i]
	for _, cand := range store.ByPred(pattern.Pred) {
		trail := make([]string, 0, len(pattern.Args))
		if matchAtomTrail(h, pattern, cand, &trail) {
			if !naiveExtendHom(pos, i+1, neg, store, h, fn) {
				undo(h, trail)
				return false
			}
		}
		undo(h, trail)
	}
	return true
}

// matchAtomTrail is MatchAtom with an undo trail: variables newly bound
// are appended to *trail so the caller can roll back.
func matchAtomTrail(h Subst, pattern, ground Atom, trail *[]string) bool {
	if pattern.Pred != ground.Pred || len(pattern.Args) != len(ground.Args) {
		return false
	}
	for i := range pattern.Args {
		if !matchTermTrail(h, pattern.Args[i], ground.Args[i], trail) {
			return false
		}
	}
	return true
}

func matchTermTrail(h Subst, pattern, ground Term, trail *[]string) bool {
	switch pattern.Kind {
	case Var:
		if bound, ok := h[pattern.Name]; ok {
			return bound.Equal(ground)
		}
		h[pattern.Name] = ground
		*trail = append(*trail, pattern.Name)
		return true
	case Func:
		if ground.Kind != Func || ground.Name != pattern.Name || len(ground.Args) != len(pattern.Args) {
			return false
		}
		for i := range pattern.Args {
			if !matchTermTrail(h, pattern.Args[i], ground.Args[i], trail) {
				return false
			}
		}
		return true
	default:
		return pattern.Equal(ground)
	}
}

func undo(h Subst, trail []string) {
	for _, v := range trail {
		delete(h, v)
	}
}

// MapsTo reports whether there is a homomorphism from the atom set src
// to the atom set dst (both possibly containing nulls; nulls in src are
// treated as variables, per the standard "homomorphism between
// instances" notion used for the restricted chase and BCQ evaluation
// over instances with nulls). Constants are fixed.
func MapsTo(src []Atom, dst *FactStore) bool {
	vars := make(map[string]string) // null label -> fresh var name
	pats := make([]Atom, len(src))
	for i, a := range src {
		pats[i] = nullsToVars(a, vars)
	}
	return ExistsHom(pats, nil, dst, Subst{})
}

func nullsToVars(a Atom, ren map[string]string) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = nullsToVarsTerm(t, ren)
	}
	return Atom{Pred: a.Pred, Args: args}
}

func nullsToVarsTerm(t Term, ren map[string]string) Term {
	switch t.Kind {
	case Null:
		v, ok := ren[t.Name]
		if !ok {
			v = "$null_" + t.Name
			ren[t.Name] = v
		}
		return Term{Kind: Var, Name: v}
	case Func:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = nullsToVarsTerm(a, ren)
		}
		return Term{Kind: Func, Name: t.Name, Args: args}
	default:
		return t
	}
}
