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
//     incrementally along the search tree, mirroring the copy-on-write
//     store snapshots (logic.FactStore.Snapshot): a session layer owns
//     the clauses and variables derived from its state's store window,
//     and a child layer extends the chain by encoding only the new index
//     window. A check decides its candidate on the clauses of its own
//     root-to-leaf chain alone, loaded into the worker's reusable SAT
//     solver; the per-model conditions (which body homomorphisms are
//     unblocked in M, and the latest witness set of each homomorphism)
//     are assumptions, and the proper-subset requirement is one more
//     clause, so no layer clause is ever rebuilt.
//
// Encoding invariants of the session (see also the package docs):
//
//   - Root atoms are exactly the store indices < rootLen (the root state
//     snapshots the database store or the frozen root), so "fixed true
//     in J" is an index comparison, not a key-map lookup. Every atom of
//     the prefix above the root has one subset variable, registered in
//     the layer that encoded its window.
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
// deferred to first need: a state's layer is pending at its branch
// point (it records the frozen store whose window it owes), is encoded
// on first need — a fixpoint candidate's check below it, or a fork of
// a subtree below it — top-down along the chain, and is frozen once
// encoded. Windows that no candidate solves and no fork hands off are
// never encoded. A subtree handed to another goroutine has its pending
// chain encoded before the spawn (see searcher.explore), so every layer
// reachable from two goroutines is encoded and frozen, and only read:
// forks copy nothing.

import (
	"sort"

	"ntgd/internal/failpoint"
	"ntgd/internal/logic"
	"ntgd/internal/sat"
)

// maxStabSessionDepth bounds a session chain: sessionFor starts a fresh
// root layer (one full re-encode of the current prefix, if it is ever
// needed) once the chain would exceed it, so per-lookup chain walks
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

// stabSession is one layer of a session chain, mirroring a search
// state's store layer: it records the clauses, subset variables,
// homomorphisms and head occurrences its window introduced, plus the
// path-latest extension tails it overrode. A layer is live while its
// state grows, pending from its state's branch point, encoded on first
// need, and frozen once encoded; every read merges the chain.
type stabSession struct {
	parent *stabSession
	depth  int
	// hi is the store prefix [0, hi) encoded by the chain up to and
	// including this layer; for a live or pending layer, the start of
	// the window it still owes.
	hi int
	// pending, when non-nil, is the frozen store of the layer's branch
	// point: the layer owes the window [hi, pending.Len()), which
	// encodePending fills on first need.
	pending *logic.FactStore
	// nv is the number of variables of the chain up to and including
	// this layer: the layer's own variables are (parent.nv, nv].
	nv int
	// clauses lists this layer's clauses flat, each ended by a 0.
	clauses []int
	// vars maps global store index -> subset variable for the
	// atoms of this layer's window above the root.
	vars map[int]int
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

// child returns a fresh empty layer extending ss, created when a search
// state is cloned; ss must be pending or encoded, and the child's
// window starts where ss's ends.
func (ss *stabSession) child() *stabSession {
	hi := ss.hi
	if ss.pending != nil {
		hi = ss.pending.Len()
	}
	return &stabSession{parent: ss, depth: ss.depth + 1, hi: hi}
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
		if v, ok := s.vars[idx]; ok {
			return v
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
// solver: every check resets it and loads its own chain.
type stabScratch struct {
	solver   *sat.Solver
	chain    []*stabSession
	assumps  []int
	clause   []int
	conj     []int
	extSeen  map[*stabHom]int
	predSeen map[string]bool
	preds    []string
	occSeen  map[headOcc]bool
}

// sessionFor returns st's session layer, first replacing a missing
// chain or one past maxStabSessionDepth with a fresh root layer that
// owes the whole prefix. It is called at a branch point, which marks
// the layer pending, and at a fixpoint candidate, which encodes it.
func (s *searcher) sessionFor(st *state) *stabSession {
	if ss := st.sess; ss != nil && ss.depth < maxStabSessionDepth {
		return ss
	}
	st.sess = &stabSession{}
	return st.sess
}

// extendStability encodes st's session chain up to the state's current
// store length for a fixpoint candidate's check: the pending ancestor
// layers first, top-down, then the leaf's own window.
func (s *searcher) extendStability(st *state) {
	ss := s.sessionFor(st)
	s.encodePending(ss.parent)
	s.encodeWindow(ss, st.A)
}

// encodePending encodes the pending layers of the chain ending at ss,
// top-down, each over the frozen store of its branch point. An encoded
// layer's ancestors are all encoded, so the walk stops at the first
// layer that is not pending.
func (s *searcher) encodePending(ss *stabSession) {
	if ss == nil || ss.pending == nil {
		return
	}
	s.encodePending(ss.parent)
	s.encodeWindow(ss, ss.pending)
	ss.pending = nil
}

// encodeWindow encodes ss's window up to store's length and counts it.
// The layer's clause list counts against the run's memory watermark
// alongside the facts themselves (see run.chargeMem), at litBytes per
// entry; a check's solver is scratch and is not charged.
func (s *searcher) encodeWindow(ss *stabSession, store *logic.FactStore) {
	before := len(ss.clauses)
	s.stabWindows++
	s.extendSession(ss, store)
	s.chargeMem(int64(len(ss.clauses)-before) * litBytes)
}

// litBytes is the watermark charge per entry of a layer's clause list
// (a literal or a clause end): the watermark is denominated in
// retained bytes (see Options.MaxMemory), and an entry is one int.
const litBytes = 8

// extendSession encodes the window [ss.hi, store.Len()) into the
// session: new subset variables, completion joins of ancestor
// homomorphisms against the window, and the window's new body
// homomorphisms. A root layer (parent == nil, hi == 0) always runs its
// sweep even over an empty store, because rules with empty positive
// bodies have homomorphisms no delta would ever cover.
func (s *searcher) extendSession(ss *stabSession, store *logic.FactStore) {
	// The layer's variables continue its parent's, which is encoded and
	// frozen by now.
	if ss.parent != nil && ss.nv < ss.parent.nv {
		ss.nv = ss.parent.nv
	}
	from, to := ss.hi, store.Len()
	if from >= to && !(ss.parent == nil && from == 0 && ss.vars == nil) {
		ss.hi = to
		return
	}
	if ss.vars == nil {
		ss.vars = make(map[int]int)
	}
	// New subset variables, and the window's predicate set for the
	// completion joins.
	sc := &s.stab
	sc.preds = sc.preds[:0]
	if sc.predSeen == nil {
		sc.predSeen = make(map[string]bool)
	}
	store.EachAtomIn(from, to, func(idx int, a logic.Atom) bool {
		if idx >= s.rootLen {
			ss.vars[idx] = ss.newVar()
		}
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
	// from > 0 — an empty database leaves ancestor layers at hi == 0.)
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
	ss.hi = to
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

// stableSession decides the stability of the fixpoint candidate st.A on
// the clauses of its session chain alone. The worker's solver is reset
// and loaded with the chain's clause lists, root first. Enforced
// homomorphisms of the chain — those with every negative instance
// absent from M — get their activation literal assumed and their
// path-latest extension tail assumed false, which switches the full
// accumulated clause on; blocked ones get their activation assumed
// false. One proper-subset clause over the chain's atoms above the root
// completes the query; UNSAT means no J with D ⊆ J ⊊ M⁺ satisfies the
// τ-translation — M is stable.
func (s *searcher) stableSession(st *state) bool {
	failpoint.Inject(failpoint.CoreStability)
	ss := st.sess
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
		for _, v := range layer.vars {
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
			if hm.blockedIn(st.A) {
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
// calls this — it extends per-state sessions instead.
func stableAgainstSubsets(db *logic.FactStore, rules []*logic.Rule, m *logic.FactStore) bool {
	store := db.Clone()
	for _, a := range m.Atoms() {
		store.Add(a)
	}
	s := &searcher{run: &run{ruleSet: newRuleSet(rules), db: db, rootLen: db.Len(), syms: db.Symbols()}}
	sess := &stabSession{}
	s.extendSession(sess, store)
	return s.stableSession(&state{A: store, sess: sess})
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
