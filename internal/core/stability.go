package core

// This file implements the stability condition of Proposition 11 — M is
// stable iff no J with D ⊆ J ⊊ M⁺ satisfies the τ_{p▷s}-translation,
// where positive literals are evaluated in J and negative literals are
// fixed to their value in M (Section 3.3) — twice over. Every such J
// also contains lfp(Det, D): the deterministic rules are Horn, so their
// τ-translation is the rule itself, evaluated in J. The session
// therefore fixes the whole run root (see run.rootLen) true in J, and a
// candidate equal to the root is stable without a check.
//
//   - stableAgainstSubsetsNaive re-encodes the condition from scratch
//     for one candidate model, exactly as the pre-session engine did. It
//     is kept verbatim as the differential-test oracle.
//   - The stability session (stabSession) builds the same encoding
//     incrementally along the search tree. A session layer exists only
//     where the search branches: it owns the clauses and variables
//     derived from the store window between its branch point and the
//     previous one on the path, and every state below the branch point
//     shares it until it branches itself. A candidate's own window, the
//     atoms its path added after the last branch point, is encoded in
//     the worker's scratch layer, which the candidate's check alone
//     reads. A check decides its candidate on the clauses of its own
//     root-to-leaf chain, loaded into the worker's reusable SAT solver;
//     the per-model conditions (which body homomorphisms are unblocked
//     in M, and the latest witness set of each homomorphism) are
//     assumptions, and the proper-subset requirement is one more
//     clause, so no layer clause is ever rebuilt.
//
// Encoding invariants of the session (see also the package docs):
//
//   - Root atoms are exactly the store indices < rootLen (the root state
//     snapshots the database store or the frozen root), so "fixed true
//     in J" is an index comparison, not a key-map lookup. Every atom of
//     the prefix above the root has one subset variable, allocated in
//     index order by the layer that encoded its window, so a layer's
//     subset variables are one consecutive range.
//   - An encoded layer owns three things, all immutable: a flat list of
//     its clauses, a variable range that continues its parent's, and
//     the homomorphisms it registered. Sibling layers reuse the same
//     variable numbers; a check's formula is one chain's clauses, so
//     only the numbering along a chain must be consistent.
//   - Each body homomorphism h of a rule into the prefix (negative
//     instances absent at discovery time — permanent, since stores only
//     grow) becomes one clause ¬act ∨ ¬pos ∨ w₁ ∨ … ∨ wₖ ∨ e₀: act is
//     the activation literal assumed only while h's negative instances
//     are still absent from the candidate M (omitted when h has no
//     negative body), the wᵢ are the head-witness extensions found in
//     the prefix so far, and e₀ is the extension tail. When a deeper
//     layer's window completes h with new witnesses w', it adds
//     ¬e ∨ w' ∨ e' and records e' as the path-latest tail; assuming
//     ¬e_latest at solve time enforces the full accumulated clause,
//     while the interior tails stay free. Constraints (no heads) carry
//     no tail: their clauses are valid for every candidate sharing the
//     prefix.
//   - A check assumes act and ¬e_latest of every unblocked homomorphism
//     of its chain and ¬act of every blocked one, adds the clause
//     ⋁ ¬xᵢ over the chain's atoms above the root (J is a proper subset),
//     and solves: UNSAT means M is stable. Learnt clauses last for that
//     one check.
//
// Sessions respect the search's freeze discipline, with encoding
// deferred to first need: a branch point's layer records the frozen
// store whose window it owes, is encoded on first need — a fixpoint
// candidate's check below it, or a fork of a subtree below it —
// top-down along the chain, and is frozen once encoded. Windows that no
// candidate solves and no fork hands off are never encoded. A subtree
// handed to another goroutine has its chain encoded before the spawn
// (see searcher.explore), so every layer reachable from two goroutines
// is encoded and frozen, and only read: forks copy nothing.

import (
	"sort"

	"ntgd/internal/failpoint"
	"ntgd/internal/logic"
	"ntgd/internal/sat"
)

// maxStabSessionDepth bounds a session chain: a layer that would extend
// it further starts a fresh root layer instead (one full re-encode of
// the current prefix, if it is ever needed), so per-lookup chain walks
// stay O(1) amortized — the same discipline as logic.FactStore
// snapshots.
const maxStabSessionDepth = 32

// stabHom is one registered body homomorphism of a rule into the store
// prefix. Entries are immutable once registered and are held by
// pointer; all per-path mutable state lives in the session layers.
type stabHom struct {
	// ruleIdx and ids are the rule and its body homomorphism as an id
	// tuple over the rule's variables (see trigger).
	ruleIdx int
	ids     []uint32
	// negKeys are the ground negative-body instances' packed keys,
	// re-evaluated against the candidate M at every solve: the
	// homomorphism's clause is enforced only while none of them is in M.
	negKeys []logic.FactKey
	// act is the activation variable assumed while the homomorphism is
	// unblocked; 0 when negKeys is empty (the clause carries no guard).
	act int
	// ext is the initial extension tail e₀; 0 for constraints, whose
	// clauses never grow.
	ext int
}

// blockedIn reports whether one of the homomorphism's negative-body
// instances is in m, which switches its clause off.
func (hm *stabHom) blockedIn(m *logic.FactStore) bool {
	for _, k := range hm.negKeys {
		if m.HasFactKey(k) {
			return true
		}
	}
	return false
}

// headOcc locates one head disjunct of a registered homomorphism for
// the completion joins: when a window introduces atoms of pred, every
// (hom, disjunct) occurrence under pred is re-joined against the delta.
type headOcc struct {
	hom      *stabHom
	disjunct int
	// groundKey, when non-empty, marks a single-atom disjunct fully
	// ground under the homomorphism: its only possible witness is the
	// concrete atom with this packed key, so the completion join is one
	// allocation-free index probe instead of a homomorphism search.
	groundKey logic.FactKey
}

// stabSession is one layer of a session chain: the layer of a branch
// point, or the worker's scratch layer of a candidate. It records the
// clauses, subset variables, homomorphisms and head occurrences its
// window introduced, plus the path-latest extension tails it overrode.
// A layer is encoded on first need and frozen once encoded; every read
// merges the chain.
type stabSession struct {
	parent *stabSession
	depth  int
	// store is the frozen store of the layer's branch point (the
	// candidate's store, for a scratch layer): the layer owes the window
	// [parent.store.Len(), store.Len()), from 0 for a chain root.
	store *logic.FactStore
	// encoded records that the window is encoded.
	encoded bool
	// nv is the number of variables of the chain up to and including
	// this layer: the layer's own variables are (parent.nv, nv].
	nv int
	// clauses lists this layer's clauses flat, each ended by a 0.
	clauses []int
	// The window's atoms above the root, store indices [varIdx,
	// varIdx+nvars), have the subset variables varFirst, varFirst+1, …
	// in index order.
	varIdx, varFirst, nvars int
	// ext maps homomorphism -> latest extension tail var for chains
	// this layer extended (0 marks a homomorphism permanently satisfied
	// along this path).
	ext map[*stabHom]int
	// homs lists the homomorphisms this layer registered.
	homs []*stabHom
	// occ indexes this layer's registered head occurrences by head
	// predicate, for the completion joins of deeper windows.
	occ map[string][]headOcc
}

// above sets the empty layer ss up to owe store's window above parent,
// and returns it. Without a parent, or once the chain would exceed
// maxStabSessionDepth, ss is a fresh chain root owing the whole prefix.
func (ss *stabSession) above(parent *stabSession, store *logic.FactStore) *stabSession {
	if parent != nil && parent.depth+1 < maxStabSessionDepth {
		ss.parent, ss.depth = parent, parent.depth+1
	}
	ss.store = store
	return ss
}

// newVar allocates the layer's next variable.
func (ss *stabSession) newVar() int {
	ss.nv++
	return ss.nv
}

// addClause appends one clause to the layer's list.
func (ss *stabSession) addClause(lits ...int) {
	ss.clauses = append(append(ss.clauses, lits...), 0)
}

// varOf resolves a store index above the root to its subset variable
// through the chain.
func (ss *stabSession) varOf(idx int) int {
	for s := ss; s != nil; s = s.parent {
		if i := idx - s.varIdx; i >= 0 && i < s.nvars {
			return s.varFirst + i
		}
	}
	return 0
}

// latestExt resolves a homomorphism's path-latest extension tail
// through the chain, defaulting to its registration tail.
func (ss *stabSession) latestExt(hm *stabHom) (int, bool) {
	for s := ss; s != nil; s = s.parent {
		if e, ok := s.ext[hm]; ok {
			return e, true
		}
	}
	return hm.ext, false
}

// stabScratch holds the reusable buffers of session encoding and
// solving; each searcher owns one. solver is the worker's one SAT
// solver: every check resets it and loads its own chain. leaf is the
// scratch layer of the candidate being checked.
type stabScratch struct {
	solver   *sat.Solver
	leaf     stabSession
	chain    []*stabSession
	assumps  []int
	clause   []int
	conj     []int
	extSeen  map[*stabHom]int
	predSeen map[string]bool
	preds    []string
	occSeen  map[headOcc]bool
}

// encodeLeaf encodes the session chain of the fixpoint candidate st for
// its check and returns the chain's leaf: the unencoded layers of st's
// branch points first, top-down, then st's own window in the worker's
// scratch layer. The candidate is terminal, so no other state reads
// that window and the next check reuses the layer.
func (s *searcher) encodeLeaf(st *state) *stabSession {
	leaf := &s.stab.leaf
	clear(leaf.ext)
	clear(leaf.occ)
	*leaf = stabSession{clauses: leaf.clauses[:0], homs: leaf.homs[:0], ext: leaf.ext, occ: leaf.occ}
	s.encodeChain(leaf.above(st.sess, st.A))
	return leaf
}

// encodeChain encodes the unencoded layers of the chain ending at ss,
// top-down. An encoded layer's ancestors are all encoded, so the walk
// stops at the first encoded layer.
func (s *searcher) encodeChain(ss *stabSession) {
	if ss == nil || ss.encoded {
		return
	}
	s.encodeChain(ss.parent)
	s.encodeWindow(ss)
}

// encodeWindow encodes ss's window and counts it. The layer's clause
// list counts against the run's memory watermark alongside the facts
// themselves (see run.chargeMem), at litBytes per entry; a check's
// solver is scratch and is not charged.
func (s *searcher) encodeWindow(ss *stabSession) {
	s.stabWindows++
	s.extendSession(ss)
	s.chargeMem(int64(len(ss.clauses)) * litBytes)
}

// litBytes is the watermark charge per entry of a layer's clause list
// (a literal or a clause end): the watermark is denominated in
// retained bytes (see Options.MaxMemory), and an entry is one int.
const litBytes = 8

// extendSession encodes ss's window into the layer: new subset
// variables, completion joins of ancestor homomorphisms against the
// window, and the window's new body homomorphisms. A chain root always
// runs its sweep even over an empty store, because rules with empty
// positive bodies have homomorphisms no delta would ever cover.
func (s *searcher) extendSession(ss *stabSession) {
	store, from, to := ss.store, 0, ss.store.Len()
	if ss.parent != nil {
		// The window and the variables continue the parent's, which is
		// encoded and frozen by now.
		from, ss.nv = ss.parent.store.Len(), ss.parent.nv
	}
	ss.encoded = true
	if from >= to && ss.parent != nil {
		return
	}
	// New subset variables, and the window's predicate set for the
	// completion joins.
	ss.varIdx, ss.varFirst = max(from, s.rootLen), ss.nv+1
	ss.nvars = max(to-ss.varIdx, 0)
	ss.nv += ss.nvars
	sc := &s.stab
	sc.preds = sc.preds[:0]
	if sc.predSeen == nil {
		sc.predSeen = make(map[string]bool)
	}
	store.EachAtomIn(from, to, func(_ int, a logic.Atom) bool {
		if !sc.predSeen[a.Pred] {
			sc.predSeen[a.Pred] = true
			sc.preds = append(sc.preds, a.Pred)
		}
		return true
	})
	for _, p := range sc.preds {
		delete(sc.predSeen, p)
	}
	sort.Strings(sc.preds)

	// Completion joins: ancestor homomorphisms whose head predicates
	// occur in the window may have gained witness extensions using at
	// least one window atom; chain them onto the path-latest tail.
	// (Homomorphisms registered in this very call search the full
	// prefix below and need no completion. A rebuilt or true root layer
	// has no ancestors; note the gate must be on ancestry, not on
	// from > 0 — an empty database leaves ancestor windows empty.)
	if ss.parent != nil {
		if sc.occSeen == nil {
			sc.occSeen = make(map[headOcc]bool)
		}
		for layer := ss.parent; layer != nil; layer = layer.parent {
			for _, p := range sc.preds {
				for _, oc := range layer.occ[p] {
					if sc.occSeen[oc] {
						continue
					}
					sc.occSeen[oc] = true
					s.completeHom(ss, store, from, oc)
				}
			}
		}
		for oc := range sc.occSeen {
			delete(sc.occSeen, oc)
		}
	}

	// New body homomorphisms: exactly those using at least one window
	// atom (all of them, for a root sweep). Negative instances present
	// in the store block a homomorphism permanently — the store only
	// grows — so FindHomsFrom's filter is final; instances derived
	// later are handled per solve through the activation literal.
	for i := range s.rules {
		if ss.parent != nil && !predsIntersect(s.rulePosPreds[i], sc.preds) {
			// No positive body predicate in the window: no homomorphism
			// can seed here. (Root and rebuilt layers sweep every rule —
			// only they may register empty-positive-body homomorphisms.)
			continue
		}
		ri := i
		s.plans[i].Body.FindHomsFrom(&s.join, store, from, nil, func(m *logic.Match) bool {
			s.registerHom(ss, store, ri, m)
			return true
		})
	}
}

// witLit compiles one witness extension — a match of a head disjunct
// of natoms atoms — into a single literal: the subset variable for a
// single atom above the root, a fresh defined auxiliary variable for a
// conjunction, or 0 when the extension lands entirely in the root (the
// rule instance is then satisfied in every J the condition ranges
// over). The atoms' store indices come from the match.
func (s *searcher) witLit(ss *stabSession, mu *logic.Match, natoms int) int {
	conj := s.stab.conj[:0]
	for k := 0; k < natoms; k++ {
		idx := mu.Index(k)
		if idx < s.rootLen {
			continue // root atoms are in every candidate J
		}
		lit := ss.varOf(idx)
		dup := false
		for _, c := range conj {
			if c == lit {
				dup = true
				break
			}
		}
		if !dup {
			conj = append(conj, lit)
		}
	}
	s.stab.conj = conj
	switch len(conj) {
	case 0:
		return 0
	case 1:
		return conj[0]
	default:
		aux := ss.newVar()
		for _, lit := range conj {
			ss.addClause(-aux, lit)
		}
		return aux
	}
}

// registerHom encodes one new body homomorphism of rules[ri], the match
// m: clause construction from the body atoms' store indices, witness
// search over the full prefix, activation and extension variables, and
// the occurrence index entries for future completions.
func (s *searcher) registerHom(ss *stabSession, store *logic.FactStore, ri int, m *logic.Match) {
	sc := &s.stab
	rule, body, npos := s.rules[ri], s.plans[ri].Body, len(s.plans[ri].Pos)
	ids := m.IDs()[:len(s.plans[ri].Vars)]
	clause := sc.clause[:0]
	for b := 0; b < npos; b++ {
		if idx := m.Index(b); idx >= s.rootLen {
			clause = append(clause, -ss.varOf(idx))
		}
	}
	trivial := false
	for d, head := range rule.Heads {
		hp := s.plans[ri].Heads[d]
		if len(head) == 1 && len(s.plans[ri].Exist[d]) == 0 {
			// The disjunct's only possible witness is h(head[0]):
			// one index probe replaces the homomorphism search.
			key, ok := hp.AppendKey(store, s.probeBuf[:0], 0, ids, false)
			s.probeBuf = key[:0]
			if idx, in := store.IndexOfKey(key); ok && in {
				if idx < s.rootLen {
					trivial = true
					break
				}
				clause = append(clause, ss.varOf(idx))
			}
			continue
		}
		natoms := len(head)
		hp.FindHoms(&s.join, store, ids, func(mu *logic.Match) bool {
			lit := s.witLit(ss, mu, natoms)
			if lit == 0 {
				trivial = true
				return false
			}
			clause = append(clause, lit)
			return true
		})
		if trivial {
			break
		}
	}
	if trivial {
		sc.clause = clause[:0]
		return // satisfied in every J ⊇ root, for every descendant
	}
	hm := &stabHom{ruleIdx: ri, ids: append([]uint32(nil), ids...)}
	if neg := s.plans[ri].Neg; len(neg) > 0 {
		hm.negKeys = make([]logic.FactKey, 0, len(neg))
		for j := range neg {
			key, _ := body.AppendKey(store, nil, npos+j, ids, true)
			hm.negKeys = append(hm.negKeys, logic.FactKey(key))
		}
		hm.act = ss.newVar()
		clause = append(clause, -hm.act)
	}
	if !rule.IsConstraint() {
		hm.ext = ss.newVar()
		clause = append(clause, hm.ext)
		if ss.occ == nil {
			ss.occ = make(map[string][]headOcc)
		}
		for d, head := range rule.Heads {
			var groundKey logic.FactKey
			if len(head) == 1 && len(s.plans[ri].Exist[d]) == 0 {
				key, _ := s.plans[ri].Heads[d].AppendKey(store, nil, 0, ids, true)
				groundKey = logic.FactKey(key)
			}
			seen := sc.predSeen
			for _, a := range head {
				if !seen[a.Pred] {
					seen[a.Pred] = true
					ss.occ[a.Pred] = append(ss.occ[a.Pred], headOcc{hom: hm, disjunct: d, groundKey: groundKey})
				}
			}
			for _, a := range head {
				delete(seen, a.Pred)
			}
		}
	}
	ss.homs = append(ss.homs, hm)
	ss.addClause(clause...)
	sc.clause = clause[:0]
}

// completeHom joins one registered (hom, disjunct) occurrence against
// the window: witness extensions using at least one atom with index ≥
// from are chained onto the homomorphism's path-latest extension tail
// as ¬e ∨ w₁ ∨ … ∨ wₖ ∨ e'.
func (s *searcher) completeHom(ss *stabSession, store *logic.FactStore, from int, oc headOcc) {
	hm := oc.hom
	eOld, overridden := ss.latestExt(hm)
	if overridden && eOld == 0 {
		return // permanently satisfied along this path
	}
	sc := &s.stab
	clause := sc.clause[:0]
	if oc.groundKey != "" {
		// Single possible witness: a window probe replaces the join.
		idx, ok := store.IndexOfFactKey(oc.groundKey)
		if !ok || idx < from {
			return // absent, or already encoded by an earlier window
		}
		eNew := ss.newVar()
		ss.addClause(-eOld, ss.varOf(idx), eNew)
		if ss.ext == nil {
			ss.ext = make(map[*stabHom]int)
		}
		ss.ext[hm] = eNew
		return
	}
	satisfied := false
	natoms := len(s.rules[hm.ruleIdx].Heads[oc.disjunct])
	s.plans[hm.ruleIdx].Heads[oc.disjunct].FindHomsFrom(&s.join, store, from, hm.ids, func(mu *logic.Match) bool {
		lit := s.witLit(ss, mu, natoms)
		if lit == 0 {
			// Unreachable for window extensions (every window atom is
			// above the root), but a satisfied instance would simply end
			// the chain for every state below this one.
			satisfied = true
			return false
		}
		clause = append(clause, lit)
		return true
	})
	if satisfied {
		if ss.ext == nil {
			ss.ext = make(map[*stabHom]int)
		}
		ss.ext[hm] = 0
		sc.clause = clause[:0]
		return
	}
	if len(clause) == 0 {
		sc.clause = clause
		return // no new witnesses in the window
	}
	eNew := ss.newVar()
	clause = append(clause, -eOld, eNew)
	ss.addClause(clause...)
	sc.clause = clause[:0]
	if ss.ext == nil {
		ss.ext = make(map[*stabHom]int)
	}
	ss.ext[hm] = eNew
}

// stableSession decides the stability of the fixpoint candidate m on
// the clauses of its session chain, which ends at ss, alone. The
// worker's solver is reset and loaded with the chain's clause lists,
// root first. Enforced
// homomorphisms of the chain — those with every negative instance
// absent from M — get their activation literal assumed and their
// path-latest extension tail assumed false, which switches the full
// accumulated clause on; blocked ones get their activation assumed
// false. One proper-subset clause over the chain's atoms above the root
// completes the query; UNSAT means no J with D ⊆ J ⊊ M⁺ satisfies the
// τ-translation — M is stable.
func (s *searcher) stableSession(ss *stabSession, m *logic.FactStore) bool {
	failpoint.Inject(failpoint.CoreStability)
	sc := &s.stab
	if sc.solver == nil {
		sc.solver = sat.New()
		sc.extSeen = make(map[*stabHom]int)
	}
	sv := sc.solver
	sv.Reset()
	for sv.NVars() < ss.nv {
		sv.NewVar()
	}
	chain := sc.chain[:0]
	for layer := ss; layer != nil; layer = layer.parent {
		chain = append(chain, layer)
	}
	ext := sc.extSeen // hom -> path-latest extension tail
	subset := sc.clause[:0]
	for i := len(chain) - 1; i >= 0; i-- {
		layer := chain[i]
		for cls := layer.clauses; len(cls) > 0; {
			end := 0
			for cls[end] != 0 {
				end++
			}
			sv.AddClause(cls[:end]...)
			cls = cls[end+1:]
		}
		for v := layer.varFirst; v < layer.varFirst+layer.nvars; v++ {
			subset = append(subset, -v)
		}
		// Deeper layers override shallower ones.
		for hm, e := range layer.ext {
			ext[hm] = e
		}
	}
	assumps := sc.assumps[:0]
	for _, layer := range chain {
		for _, hm := range layer.homs {
			e, overridden := ext[hm]
			if !overridden {
				e = hm.ext
			} else if e == 0 {
				continue // permanently satisfied along this path
			}
			if hm.blockedIn(m) {
				// Negatives are fixed to M: the clause is off.
				if hm.act != 0 {
					assumps = append(assumps, -hm.act)
				}
				continue
			}
			if hm.act != 0 {
				assumps = append(assumps, hm.act)
			}
			if e != 0 {
				assumps = append(assumps, -e)
			}
		}
	}
	clear(ext)
	// Proper subset: at least one atom of M above the root is dropped.
	sv.AddClause(subset...)
	if n := int64(sv.NVars()); n > s.stabMaxVars {
		s.stabMaxVars = n
	}
	stable := !sv.Solve(assumps...)
	clear(chain)
	sc.chain, sc.assumps, sc.clause = chain[:0], assumps[:0], subset[:0]
	return stable
}

// stableAgainstSubsets decides the stability condition for one
// standalone candidate via a throwaway session: the candidate is
// re-rooted over a copy of the database so that the database is exactly
// the store prefix the session encoder keys on. The search itself never
// calls this — it encodes its session chains instead.
func stableAgainstSubsets(db *logic.FactStore, rules []*logic.Rule, m *logic.FactStore) bool {
	store := db.Clone()
	for _, a := range m.Atoms() {
		store.Add(a)
	}
	s := &searcher{run: &run{ruleSet: newRuleSet(rules), db: db, rootLen: db.Len(), syms: db.Symbols()}}
	sess := new(stabSession).above(nil, store)
	s.extendSession(sess)
	return s.stableSession(sess, store)
}

// stableAgainstSubsetsNaive is the pre-session check kept verbatim as
// the differential-test oracle: it re-encodes the whole condition from
// scratch for every candidate model — one variable per atom of M⁺ \ D
// keyed by rendered atom strings, one clause per body homomorphism of a
// τ-rule into M⁺ (the head alternatives are the witness extensions of
// Definition 4, materialized over M⁺), plus a clause requiring J to be
// a proper subset — and hands the formula to a fresh solver; UNSAT
// means M is stable.
func stableAgainstSubsetsNaive(db *logic.FactStore, rules []*logic.Rule, m *logic.FactStore) bool {
	if m.Len() == db.Len() {
		// J must satisfy D ⊆ J ⊊ M⁺; no such J exists.
		return true
	}
	s := sat.New()
	varOf := make(map[string]int, m.Len())
	inDB := make(map[string]bool, db.Len())
	for _, a := range db.Atoms() {
		inDB[a.Key()] = true
	}
	var subsetVars []int
	for _, a := range m.Atoms() {
		k := a.Key()
		if inDB[k] {
			continue
		}
		v := s.NewVar()
		varOf[k] = v
		subsetVars = append(subsetVars, v)
	}
	// litOf returns (satLiteral, alwaysTrue): database atoms are fixed
	// true in J.
	litOf := func(a logic.Atom) (int, bool) {
		k := a.Key()
		if inDB[k] {
			return 0, true
		}
		return varOf[k], false
	}

	for _, r := range rules {
		rule := r
		pos, neg := logic.SplitLiterals(rule.Body)
		// Enumerate body homomorphisms into M⁺ whose negative
		// instances are absent from M (negatives are fixed to M).
		logic.FindHoms(pos, neg, m, logic.Subst{}, func(h logic.Subst) bool {
			clause := make([]int, 0, 8)
			for _, b := range pos {
				lit, fixed := litOf(h.ApplyAtom(b))
				if !fixed {
					clause = append(clause, -lit)
				}
			}
			trivially := false
			for i := range rule.Heads {
				logic.FindHoms(rule.Heads[i], nil, m, h, func(mu logic.Subst) bool {
					conj := make([]int, 0, len(rule.Heads[i]))
					for _, a := range rule.Heads[i] {
						lit, fixed := litOf(mu.ApplyAtom(a))
						if fixed {
							continue
						}
						dup := false
						for _, c := range conj {
							if c == lit {
								dup = true
								break
							}
						}
						if !dup {
							conj = append(conj, lit)
						}
					}
					switch len(conj) {
					case 0:
						// The extension lands entirely in D: the rule
						// instance is satisfied in every J ⊇ D.
						trivially = true
						return false
					case 1:
						clause = append(clause, conj[0])
					default:
						aux := s.NewVar()
						clause = append(clause, aux)
						for _, lit := range conj {
							s.AddClause(-aux, lit)
						}
					}
					return true
				})
				if trivially {
					break
				}
			}
			if !trivially {
				s.AddClause(clause...)
			}
			return true
		})
	}
	// Proper subset: at least one non-database atom of M is dropped.
	drop := make([]int, len(subsetVars))
	for i, v := range subsetVars {
		drop[i] = -v
	}
	s.AddClause(drop...)
	return !s.Solve()
}
