// Package sat implements a CDCL (conflict-driven clause learning) CNF
// satisfiability solver: two-watched-literal unit propagation,
// first-UIP conflict analysis with non-chronological backjumping,
// activity-based branching with phase saving, and solving under
// assumptions. It is the reasoning substrate for the W-Stability check
// of Proposition 11 (deciding whether a candidate stable model admits
// a smaller τ-model) and for the direct 2-QBF evaluator used as an
// experimental baseline.
//
// Solve accepts assumption literals and leaves the clause database
// intact, so one formula can answer several queries that differ only
// in their assumptions. Assumptions are posted as decisions, so learnt
// clauses mention them negatively where relevant and are implied by
// the clause database alone: they stay valid for every later query on
// the same formula. Reset empties the solver for the next formula but
// keeps its storage: clauses live in one flat literal array and watch
// lists are truncated rather than dropped, so a caller that builds one
// formula per query — the stability checker loads each check's clauses
// afresh — allocates only when a formula outgrows every earlier one.
//
// The encoding of literals in the public API follows the DIMACS
// convention: variables are positive integers 1..n, a positive literal
// is +v and a negative literal is -v.
package sat

import (
	"sort"

	"ntgd/internal/failpoint"
)

const unassigned int8 = -1

// noReason marks a decision, assumption or top-level fact on the trail.
const noReason = -1

// Solver is a reusable CNF solver. Add variables with NewVar, clauses
// with AddClause, then call Solve — with or without assumptions — any
// number of times, interleaving further NewVar and AddClause calls
// freely; Reset starts the next formula on the same storage. After a
// satisfiable call, Value reports the model. The zero value is ready
// to use.
type Solver struct {
	nVars int
	// lits is the flat clause store, original and learnt clauses alike:
	// each clause is its length followed by its internal literals, the
	// first two watched. A clause reference is the offset of the length.
	lits     []int
	nClauses int
	watches  [][]int // internal literal -> references of clauses watching it
	units    []int   // internal literals from unit clauses (original + learnt)
	unsat    bool    // an empty clause was added

	assign   []int8 // per-variable: unassigned, 0 (false), 1 (true)
	level    []int  // per-variable decision level of the assignment
	reason   []int  // per-variable antecedent clause reference, or noReason
	phase    []int8 // per-variable saved phase (1 = try true first)
	trail    []int
	trailLim []int // trail length at each decision level
	qhead    int

	activity []float64 // per-variable branching activity (bumped on conflicts)
	actInc   float64
	seen     []bool // conflict-analysis scratch
	learnt   []int  // conflict-analysis scratch: the clause being learnt

	// Stats, cumulative across Reset.
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Learnt       int64
}

// New returns an empty solver.
func New() *Solver { return &Solver{} }

// Reset empties the solver — variables, clauses (learnt ones
// included), assignment and activities — while keeping its storage for
// the next formula. Statistics keep accumulating.
func (s *Solver) Reset() {
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	s.watches = s.watches[:0]
	s.nVars, s.nClauses = 0, 0
	s.lits = s.lits[:0]
	s.units = s.units[:0]
	s.unsat = false
	s.assign = s.assign[:0]
	s.level = s.level[:0]
	s.reason = s.reason[:0]
	s.phase = s.phase[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.activity = s.activity[:0]
	s.actInc = 0
	s.seen = s.seen[:0]
}

// NewVar allocates a fresh variable and returns its (1-based) index.
func (s *Solver) NewVar() int {
	s.nVars++
	if n := 2 * s.nVars; n <= cap(s.watches) {
		// Reuse watch lists kept by Reset; they are already empty.
		s.watches = s.watches[:n]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.assign = append(s.assign, unassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.phase = append(s.phase, 1)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	return s.nVars
}

// NVars returns the number of allocated variables.
func (s *Solver) NVars() int { return s.nVars }

// NClauses returns the number of stored (non-unit, non-empty) clauses,
// including learnt clauses.
func (s *Solver) NClauses() int { return s.nClauses }

// intern converts a DIMACS literal to the internal encoding
// (2*var for positive, 2*var+1 for negative, 0-based var).
func intern(lit int) int {
	if lit > 0 {
		return 2 * (lit - 1)
	}
	return 2*(-lit-1) + 1
}

func neg(l int) int     { return l ^ 1 }
func litVar(l int) int  { return l >> 1 }
func litSign(l int) int { return l & 1 } // 1 = negated

// clause returns the literals of the clause stored at reference cr.
func (s *Solver) clause(cr int) []int {
	return s.lits[cr+1 : cr+1+s.lits[cr]]
}

// AddClause adds a clause given as DIMACS literals. Duplicate literals
// are removed and tautological clauses dropped. Adding an empty clause
// makes the instance trivially unsatisfiable. Variables are allocated
// implicitly if needed. The literals are copied; the caller keeps lits.
func (s *Solver) AddClause(lits ...int) {
	for _, l := range lits {
		v := l
		if v < 0 {
			v = -v
		}
		for s.nVars < v {
			s.NewVar()
		}
	}
	// Normalize in place at the end of the store: a clause that is
	// dropped or kept as a unit is truncated away again.
	cr := len(s.lits)
	s.lits = append(s.lits, 0)
	for _, l := range lits {
		s.lits = append(s.lits, intern(l))
	}
	cl := s.lits[cr+1:]
	sort.Ints(cl)
	out := cl[:0]
	for i, l := range cl {
		if i > 0 && l == cl[i-1] {
			continue
		}
		if i > 0 && l == neg(cl[i-1]) {
			s.lits = s.lits[:cr]
			return // tautology
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.lits = s.lits[:cr]
		s.unsat = true
	case 1:
		s.lits = s.lits[:cr]
		s.units = append(s.units, out[0])
		s.activity[litVar(out[0])] += 4
	default:
		s.lits = s.lits[:cr+1+len(out)]
		s.lits[cr] = len(out)
		s.watchClause(cr)
		for _, l := range out {
			s.activity[litVar(l)]++
		}
	}
}

// watchClause watches the first two literals of the stored clause cr.
func (s *Solver) watchClause(cr int) {
	cl := s.clause(cr)
	s.watches[cl[0]] = append(s.watches[cl[0]], cr)
	s.watches[cl[1]] = append(s.watches[cl[1]], cr)
	s.nClauses++
}

// value returns the truth value of an internal literal under the
// current assignment: 1 true, 0 false, unassigned otherwise.
func (s *Solver) value(l int) int8 {
	a := s.assign[litVar(l)]
	if a == unassigned {
		return unassigned
	}
	return a ^ int8(litSign(l))
}

// decisionLevel returns the current number of decision levels.
func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// enqueue asserts an internal literal with the given antecedent;
// reports false on conflict.
func (s *Solver) enqueue(l, from int) bool {
	switch s.value(l) {
	case 1:
		return true
	case 0:
		return false
	}
	v := litVar(l)
	s.assign[v] = int8(1 - litSign(l))
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation, returning the reference of a
// conflicting clause or noReason when the queue drains cleanly.
func (s *Solver) propagate() int {
	failpoint.Inject(failpoint.SatPropagate)
	lits := s.lits // propagation moves literals within clauses, never adds any
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		falsified := neg(l)
		ws := s.watches[falsified]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			cr := ws[wi]
			cl := lits[cr+1 : cr+1+lits[cr]]
			// Ensure the falsified literal is at position 1.
			if cl[0] == falsified {
				cl[0], cl[1] = cl[1], cl[0]
			}
			// If the other watch is true, the clause is satisfied.
			if s.value(cl[0]) == 1 {
				kept = append(kept, cr)
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for k := 2; k < len(cl); k++ {
				if s.value(cl[k]) != 0 {
					cl[1], cl[k] = cl[k], cl[1]
					s.watches[cl[1]] = append(s.watches[cl[1]], cr)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, cr)
			if !s.enqueue(cl[0], cr) {
				// Conflict: keep remaining watches intact.
				kept = append(kept, ws[wi+1:]...)
				s.watches[falsified] = kept
				s.Conflicts++
				return cr
			}
		}
		s.watches[falsified] = kept
	}
	return noReason
}

// newDecisionLevel opens a decision level.
func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

// cancelUntil undoes every assignment above the given decision level,
// saving phases.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	start := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= start; i-- {
		v := litVar(s.trail[i])
		s.phase[v] = s.assign[v]
		s.assign[v] = unassigned
		s.reason[v] = noReason
	}
	s.trail = s.trail[:start]
	s.qhead = len(s.trail)
	s.trailLim = s.trailLim[:lvl]
}

// unassignAll clears the assignment, saving phases (clauses, learnt
// clauses and activities are kept).
func (s *Solver) unassignAll() {
	for i := len(s.trail) - 1; i >= 0; i-- {
		v := litVar(s.trail[i])
		s.phase[v] = s.assign[v]
		s.assign[v] = unassigned
		s.reason[v] = noReason
	}
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
}

// bumpVar increases a variable's branching activity, rescaling the
// whole table when it overflows.
func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.actInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.actInc *= 1e-100
	}
}

// pickBranch returns an unassigned internal literal to branch on —
// the most active unassigned variable in its saved phase — or -1 when
// the assignment is total.
func (s *Solver) pickBranch() int {
	best := -1
	bestAct := -1.0
	for v := 0; v < s.nVars; v++ {
		if s.assign[v] == unassigned && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	if best < 0 {
		return -1
	}
	if s.phase[best] == 0 {
		return 2*best + 1
	}
	return 2 * best
}

// analyze performs first-UIP conflict analysis from the conflicting
// clause, returning the learnt clause (internal literals, asserting
// literal first) and the level to backjump to. The learnt clause is a
// resolvent of stored clauses only — assumptions enter as negated
// literals, never as expanded antecedents — so it is implied by the
// clause database and stays valid across later Solve calls.
func (s *Solver) analyze(confl int, learnt []int) ([]int, int) {
	learnt = append(learnt[:0], 0) // slot for the asserting literal
	counter := 0
	p := -1
	index := len(s.trail) - 1
	backLevel := 0
	for {
		for _, q := range s.clause(confl) {
			if q == p {
				continue
			}
			v := litVar(q)
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
				if s.level[v] > backLevel {
					backLevel = s.level[v]
				}
			}
		}
		// Walk the trail back to the next marked literal.
		for !s.seen[litVar(s.trail[index])] {
			index--
		}
		p = s.trail[index]
		v := litVar(p)
		index--
		counter--
		s.seen[v] = false
		if counter == 0 {
			learnt[0] = neg(p)
			break
		}
		confl = s.reason[v]
	}
	for _, q := range learnt[1:] {
		s.seen[litVar(q)] = false
	}
	return learnt, backLevel
}

// Solve reports whether the clause set is satisfiable under the given
// assumption literals (DIMACS encoding). The clause database — learnt
// clauses included — is left intact: callers may interleave
// AddClause/NewVar with Solve calls, expressing per-query conditions
// as assumptions rather than rebuilt formulas. With no assumptions it
// decides plain satisfiability.
func (s *Solver) Solve(assumptions ...int) bool {
	if s.unsat {
		return false
	}
	if s.actInc == 0 {
		s.actInc = 1
	}
	s.unassignAll()
	// Top-level facts (original and learnt units).
	for _, u := range s.units {
		if !s.enqueue(u, noReason) {
			return false
		}
	}
	if s.propagate() != noReason {
		return false
	}
	// Assumptions are posted as decisions: conflict analysis never
	// expands them, so learnt clauses stay implied by the clause
	// database alone.
	for _, a := range assumptions {
		l := intern(a)
		switch s.value(l) {
		case 0:
			return false
		case 1:
			continue
		}
		s.newDecisionLevel()
		s.enqueue(l, noReason)
		if s.propagate() != noReason {
			return false
		}
	}
	rootLevel := s.decisionLevel()
	for {
		confl := s.propagate()
		if confl != noReason {
			if s.decisionLevel() <= rootLevel {
				return false
			}
			learnt, backLevel := s.analyze(confl, s.learnt)
			s.learnt = learnt
			if backLevel < rootLevel {
				backLevel = rootLevel
			}
			s.cancelUntil(backLevel)
			s.Learnt++
			s.actInc *= 1.05
			if len(learnt) == 1 {
				// A learnt unit is a resolvent of stored clauses, hence
				// implied by the clause database alone (assumptions are
				// never expanded): record it as a top-level fact for
				// later solves too.
				s.units = append(s.units, learnt[0])
				if !s.enqueue(learnt[0], noReason) {
					return false
				}
				continue
			}
			// Watch the asserting literal and a literal of the backjump
			// level so the watch invariants hold after the jump.
			for k := 2; k < len(learnt); k++ {
				if s.level[litVar(learnt[k])] > s.level[litVar(learnt[1])] {
					learnt[1], learnt[k] = learnt[k], learnt[1]
				}
			}
			cr := len(s.lits)
			s.lits = append(s.lits, len(learnt))
			s.lits = append(s.lits, learnt...)
			s.watchClause(cr)
			if !s.enqueue(learnt[0], cr) {
				return false
			}
			continue
		}
		l := s.pickBranch()
		if l < 0 {
			return true
		}
		s.Decisions++
		s.newDecisionLevel()
		s.enqueue(l, noReason)
	}
}

// Value reports the truth value of variable v (1-based) in the model
// found by the last successful Solve call.
func (s *Solver) Value(v int) bool { return s.assign[v-1] == 1 }
