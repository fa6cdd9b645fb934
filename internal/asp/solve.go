package asp

import (
	"context"
	"errors"
)

// ErrBudget is returned when the enumeration exceeds its node budget.
var ErrBudget = errors.New("asp: search node budget exhausted")

// SolveOptions configures stable model enumeration.
type SolveOptions struct {
	// MaxNodes aborts after this many search nodes (0 = 4M).
	MaxNodes int64
	// WFS, when non-nil, is the program's well-founded model (see
	// WellFounded), which exists only for normal programs without
	// constraints. It must be the model of the program being solved.
	// When it is total (no undefined atoms), its true set is the
	// program's only stable model (Van Gelder, Ross & Schlipf, JACM
	// 1991): the solver emits it without searching, reporting one node
	// and no stability check. Otherwise the search starts with its true
	// and false atoms fixed, which prunes it dramatically.
	WFS *WFSResult
}

// Stats reports search effort.
type Stats struct {
	Nodes     int64
	Conflicts int64
	Checks    int64 // full-assignment stability checks
}

// SolveCtx enumerates the stable models of the program, invoking visit
// for each (the model is shared and must not be modified; callers must
// copy if they keep it). Returning false from visit stops the search.
// The program must have passed Program.Validate: SolveCtx does not
// check atom ids.
//
// The search checks ctx periodically (every 16 nodes, starting at the
// first) and aborts with ctx.Err() and the partial stats when the
// context is cancelled or its deadline expires. Otherwise SolveCtx
// returns an error only on budget exhaustion (models already delivered
// remain valid).
func SolveCtx(ctx context.Context, p *Program, opt SolveOptions, visit func(Model) bool) (Stats, error) {
	if wfs := opt.WFS; wfs != nil && len(wfs.Undefined) == 0 {
		// The search's first node would check the context, find every
		// atom decided and emit the true set after a stability check
		// that cannot fail.
		if err := ctx.Err(); err != nil {
			return Stats{Nodes: 1}, err
		}
		visit(Model(wfs.True[:len(wfs.True):len(wfs.True)]))
		return Stats{Nodes: 1}, nil
	}
	s := &solver{p: p, opt: opt, visit: visit, ctx: ctx}
	if opt.MaxNodes <= 0 {
		s.opt.MaxNodes = 4 << 20
	}
	s.assign = make([]truthValue, p.NAtoms)
	if wfs := opt.WFS; wfs != nil {
		for _, a := range wfs.True {
			s.assign[a] = tvTrue
		}
		for _, a := range wfs.False {
			s.assign[a] = tvFalse
		}
	}
	s.dfs()
	if s.ctxErr != nil {
		return s.stats, s.ctxErr
	}
	if s.budgetHit {
		return s.stats, ErrBudget
	}
	return s.stats, nil
}

type solver struct {
	p         *Program
	opt       SolveOptions
	assign    []truthValue
	stats     Stats
	visit     func(Model) bool
	budgetHit bool
	ctx       context.Context
	ctxErr    error
}

// dfs explores the assignment tree; it returns false when the visitor
// asked to stop or the budget was exhausted.
func (s *solver) dfs() bool {
	s.stats.Nodes++
	if s.stats.Nodes > s.opt.MaxNodes {
		s.budgetHit = true
		return false
	}
	// Assignment nodes are cheap relative to the SO search's, so the
	// cancellation check is amortized over 16 of them — but it fires at
	// the first node, so an already-cancelled context yields nothing.
	if s.stats.Nodes&15 == 1 {
		if err := s.ctx.Err(); err != nil {
			s.ctxErr = err
			return false
		}
	}
	saved := append([]truthValue(nil), s.assign...)
	ok, conflict := s.propagate()
	if conflict {
		s.stats.Conflicts++
		copy(s.assign, saved)
		return true // dead branch, keep searching elsewhere
	}
	_ = ok
	branch := s.pickUnknown()
	if branch < 0 {
		// Total assignment: final stability check.
		s.stats.Checks++
		if s.isStable() {
			if !s.visit(s.currentModel()) {
				copy(s.assign, saved)
				return false
			}
		}
		copy(s.assign, saved)
		return true
	}
	// Branch true then false.
	s.assign[branch] = tvTrue
	if !s.dfs() {
		copy(s.assign, saved)
		return false
	}
	s.assign[branch] = tvFalse
	if !s.dfs() {
		copy(s.assign, saved)
		return false
	}
	copy(s.assign, saved)
	return true
}

// propagate applies sound three-valued inference until fixpoint:
//
//  1. rule with satisfied body and all disjuncts but one falsified →
//     the remaining disjunct's atoms are true (for constraints, a
//     satisfied body is a conflict);
//  2. an atom with no rule that can still support it is false.
//
// It reports (changed, conflict).
func (s *solver) propagate() (bool, bool) {
	changedAny := false
	for {
		changed := false
		// (1) Forward / head forcing.
		for _, r := range s.p.Rules {
			bodySat := true
			bodyFalsified := false
			for _, b := range r.Pos {
				switch s.assign[b] {
				case tvFalse:
					bodyFalsified = true
				case tvUnknown:
					bodySat = false
				}
			}
			for _, n := range r.Neg {
				switch s.assign[n] {
				case tvTrue:
					bodyFalsified = true
				case tvUnknown:
					bodySat = false
				}
			}
			if bodyFalsified || !bodySat {
				continue
			}
			// Body is definitely satisfied.
			if r.IsConstraint() {
				return changedAny, true
			}
			viable := 0
			lastViable := -1
			satisfied := false
			for di, d := range r.Disjuncts {
				allTrue, anyFalse := true, false
				for _, a := range d {
					switch s.assign[a] {
					case tvFalse:
						anyFalse = true
						allTrue = false
					case tvUnknown:
						allTrue = false
					}
				}
				if allTrue {
					satisfied = true
					break
				}
				if !anyFalse {
					viable++
					lastViable = di
				}
			}
			if satisfied {
				continue
			}
			if viable == 0 {
				return changedAny, true // body true, no disjunct satisfiable
			}
			if viable == 1 {
				for _, a := range r.Disjuncts[lastViable] {
					if s.assign[a] == tvUnknown {
						s.assign[a] = tvTrue
						changed = true
					}
				}
			}
		}
		// (2) Unsupported atoms become false.
		supported := make([]bool, s.p.NAtoms)
		for _, r := range s.p.Rules {
			bodyFalsified := false
			for _, b := range r.Pos {
				if s.assign[b] == tvFalse {
					bodyFalsified = true
					break
				}
			}
			if !bodyFalsified {
				for _, n := range r.Neg {
					if s.assign[n] == tvTrue {
						bodyFalsified = true
						break
					}
				}
			}
			if bodyFalsified {
				continue
			}
			for _, d := range r.Disjuncts {
				anyFalse := false
				for _, a := range d {
					if s.assign[a] == tvFalse {
						anyFalse = true
						break
					}
				}
				if anyFalse {
					continue
				}
				for _, a := range d {
					supported[a] = true
				}
			}
		}
		for a := 0; a < s.p.NAtoms; a++ {
			if !supported[a] {
				switch s.assign[a] {
				case tvTrue:
					return changedAny, true
				case tvUnknown:
					s.assign[a] = tvFalse
					changed = true
				}
			}
		}
		if !changed {
			return changedAny, false
		}
		changedAny = true
	}
}

func (s *solver) pickUnknown() int {
	for a := 0; a < s.p.NAtoms; a++ {
		if s.assign[a] == tvUnknown {
			return a
		}
	}
	return -1
}

func (s *solver) currentModel() Model {
	var m Model
	for a := 0; a < s.p.NAtoms; a++ {
		if s.assign[a] == tvTrue {
			m = append(m, a)
		}
	}
	return m
}

// isStable checks the Gelfond–Lifschitz condition on the current total
// assignment: the candidate must satisfy every rule classically, and
// must be a minimal model of the reduct. For normal programs minimality
// is equivalent to "least model of the reduct equals the candidate";
// for disjunctive programs a SAT-based proper-subset search is used
// (see minimal.go).
func (s *solver) isStable() bool {
	m := s.currentModel()
	if !satisfiesAll(s.p, m) {
		return false
	}
	if s.p.IsNormal() {
		lm := reductLeastModel(s.p, m)
		return NewModel(lm).Equal(m)
	}
	return IsMinimalReductModel(s.p, m)
}

// satisfiesAll reports whether m is a classical model of the program
// (negation read as complement).
func satisfiesAll(p *Program, m Model) bool {
	in := make([]bool, p.NAtoms)
	for _, a := range m {
		in[a] = true
	}
	for _, r := range p.Rules {
		bodyTrue := true
		for _, b := range r.Pos {
			if !in[b] {
				bodyTrue = false
				break
			}
		}
		if bodyTrue {
			for _, n := range r.Neg {
				if in[n] {
					bodyTrue = false
					break
				}
			}
		}
		if !bodyTrue {
			continue
		}
		if r.IsConstraint() {
			return false
		}
		sat := false
		for _, d := range r.Disjuncts {
			all := true
			for _, a := range d {
				if !in[a] {
					all = false
					break
				}
			}
			if all {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// reductLeastModel forward-chains the reduct P^m of a normal program.
func reductLeastModel(p *Program, m Model) []int {
	in := make([]bool, p.NAtoms)
	for _, a := range m {
		in[a] = true
	}
	out := make([]bool, p.NAtoms)
	for changed := true; changed; {
		changed = false
		for _, r := range p.Rules {
			if r.IsConstraint() {
				continue
			}
			blocked := false
			for _, n := range r.Neg {
				if in[n] {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			fire := true
			for _, b := range r.Pos {
				if !out[b] {
					fire = false
					break
				}
			}
			if !fire {
				continue
			}
			for _, h := range r.Disjuncts[0] {
				if !out[h] {
					out[h] = true
					changed = true
				}
			}
		}
	}
	var lm []int
	for a := 0; a < p.NAtoms; a++ {
		if out[a] {
			lm = append(lm, a)
		}
	}
	return lm
}
