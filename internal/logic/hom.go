package logic

import (
	"sort"
	"sync"
)

// This file holds the Subst-level entry points of homomorphism search:
// finding substitutions h such that h(pos) ⊆ store and, for the
// closed-world reading used throughout the paper, h(neg) ∩ store = ∅.
// They are thin adapters over the id kernel (join.go) for callers that
// want substitutions — model checking, query evaluation, minimality —
// while the hot paths (the trigger agenda, the stability encoder, the
// chase and the grounding) hold a BodyPlans per body and take Match
// visitors directly.

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
// It compiles the body, plans it for init's binding pattern and runs
// the id kernel, all per call and in a pooled Scratch's reused storage;
// body atoms are visited in the greedy selectivity order of the join
// planner (see plan.go; when planning is toggled off they are visited
// in written order), so hom emission order is not part of the contract.
// naiveFindHoms keeps the plain scan as the differential-test oracle;
// callers joining the same body repeatedly should hold a BodyPlans
// instead.
func FindHoms(pos, neg []Atom, store *FactStore, init Subst, fn HomVisitor) bool {
	return findHomsSubst(pos, neg, store, 0, init, fn)
}

// ExistsHom reports whether at least one homomorphism exists (see
// FindHoms for the semantics of pos/neg/init).
func ExistsHom(pos, neg []Atom, store *FactStore, init Subst) bool {
	sc := adapterScratch.Get().(*Scratch)
	defer adapterScratch.Put(sc)
	bp := sc.oneShot(store.syms, pos, neg)
	vals, ok := substSlots(bp, store, init)
	if !ok {
		return false
	}
	return bp.Exists(sc, store, vals)
}

// adapterScratch recycles the frames of the Subst adapters, which have
// no worker to own a Scratch. (Hot callers keep their own Scratch: a
// sync.Pool may drop items at any time, and does so often under -race.)
var adapterScratch = sync.Pool{New: func() any { return new(Scratch) }}

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
	return findHomsSubst(pos, neg, store, from, init, fn)
}

func findHomsSubst(pos, neg []Atom, store *FactStore, from int, init Subst, fn HomVisitor) bool {
	sc := adapterScratch.Get().(*Scratch)
	defer adapterScratch.Put(sc)
	return sc.oneShot(store.syms, pos, neg).searchSubst(sc, store, from, init, fn)
}

// searchSubst runs the body's join from the substitution init, with
// sc's frames, and hands fn substitutions extending it: the adapter
// behind FindHoms and FindHomsFrom.
func (bp *BodyPlans) searchSubst(sc *Scratch, store *FactStore, from int, init Subst, fn HomVisitor) bool {
	vals, ok := substSlots(bp, store, init)
	if !ok {
		return true
	}
	h := init.Clone()
	// A binding is rewritten only when its id changed since the previous
	// match, and a match's terms are read under one lock.
	prev := vals[len(vals) : 2*len(vals)]
	copy(prev, vals)
	syms := store.syms
	return bp.search(sc, store, from, vals, func(m *Match) bool {
		syms.mu.RLock()
		for i, id := range m.f.vals {
			if vals[i] == unbound && id != prev[i] {
				h[bp.slots[i]] = syms.terms[id]
				prev[i] = id
			}
		}
		syms.mu.RUnlock()
		return fn(h)
	})
}

// substSlots converts init into the body's pre-bound slots: a ground
// binding becomes its id (or missingID when it was never interned, which
// matches no fact). ok is false when init binds a positive-body
// variable to a non-ground term, which no fact matches; a non-ground
// binding of a negative-only variable leaves its literal unevaluated.
func substSlots(bp *BodyPlans, store *FactStore, init Subst) ([]uint32, bool) {
	// Room for a second vector: searchSubst's previous match.
	vals := make([]uint32, len(bp.slots), 2*len(bp.slots))
	for i := range vals {
		vals[i] = unbound
	}
	for v, t := range init {
		sl := slotIndex(bp.slots, v)
		if sl < 0 {
			continue
		}
		if !t.IsGround() {
			for _, a := range bp.pos {
				if containsVar(a, v) {
					return nil, false
				}
			}
			continue
		}
		if id, ok := store.syms.Lookup(t); ok {
			vals[sl] = id
		} else {
			vals[sl] = missingID
		}
	}
	return vals, true
}

// containsVar reports whether variable v occurs in a.
func containsVar(a Atom, v string) bool {
	var buf [8]string
	for _, u := range a.Vars(buf[:0]) {
		if u == v {
			return true
		}
	}
	return false
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

// naiveFindHoms is the pre-index search kept as the differential-test
// oracle, with its own matcher: candidates always come from the full
// per-predicate scan of decoded atoms, in the original greedy sharing
// order, and every candidate is matched on a cloned substitution.
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
		ext := h.Clone()
		if ext.MatchAtom(pattern, cand) && !naiveExtendHom(pos, i+1, neg, store, ext, fn) {
			return false
		}
	}
	return true
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
