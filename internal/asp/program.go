// Package asp implements stable model semantics for ground
// (propositional) logic programs: well-founded semantics via the
// alternating fixpoint, stable model enumeration for normal programs
// (three-valued propagation, branching, and a reduct-based final
// check), and disjunctive programs via a SAT-encoded minimality check.
// It is the back half of the paper's "LP approach" (Section 3.1):
// Skolemization and grounding are done by internal/ground, after which
// "the standard stable model semantics for normal logic programs ...
// is applied" — by this package.
//
// Rules generalize the usual ASP format slightly: a head is a
// disjunction of conjunctions of atoms (the ground image of an NDTGD
// head); normal rules have a single disjunct, facts an empty body, and
// constraints no disjuncts at all.
package asp

import (
	"fmt"
	"sort"
	"strings"
)

// Rule is a ground rule
//
//	d1 | ... | dn :- p1, ..., pk, not m1, ..., not mj.
//
// where each disjunct di is a non-empty conjunction of atom IDs.
// len(Disjuncts) == 0 encodes a constraint.
type Rule struct {
	Disjuncts [][]int
	Pos       []int
	Neg       []int
}

// IsConstraint reports whether the rule has no head.
func (r Rule) IsConstraint() bool { return len(r.Disjuncts) == 0 }

// Program is a ground program over atoms 0..NAtoms-1. Names is
// optional (used for rendering); when nil atoms print as a<id>.
type Program struct {
	NAtoms int
	Rules  []Rule
	Names  []string
}

// Validate checks atom ids are in range and disjuncts non-empty.
func (p *Program) Validate() error {
	check := func(id int) error {
		if id < 0 || id >= p.NAtoms {
			return fmt.Errorf("asp: atom id %d out of range [0,%d)", id, p.NAtoms)
		}
		return nil
	}
	for i, r := range p.Rules {
		for _, d := range r.Disjuncts {
			if len(d) == 0 {
				return fmt.Errorf("asp: rule %d has an empty disjunct", i)
			}
			for _, a := range d {
				if err := check(a); err != nil {
					return err
				}
			}
		}
		for _, a := range r.Pos {
			if err := check(a); err != nil {
				return err
			}
		}
		for _, a := range r.Neg {
			if err := check(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// IsNormal reports whether every rule has at most one disjunct.
func (p *Program) IsNormal() bool {
	for _, r := range p.Rules {
		if len(r.Disjuncts) > 1 {
			return false
		}
	}
	return true
}

// AtomName renders atom id using Names when available.
func (p *Program) AtomName(id int) string {
	if p.Names != nil && id < len(p.Names) && p.Names[id] != "" {
		return p.Names[id]
	}
	return fmt.Sprintf("a%d", id)
}

// String renders the program in an ASP-like syntax.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		if len(r.Disjuncts) > 0 {
			for i, d := range r.Disjuncts {
				if i > 0 {
					b.WriteString(" | ")
				}
				for j, a := range d {
					if j > 0 {
						b.WriteString(", ")
					}
					b.WriteString(p.AtomName(a))
				}
			}
		}
		if len(r.Pos)+len(r.Neg) > 0 || r.IsConstraint() {
			b.WriteString(" :- ")
			first := true
			for _, a := range r.Pos {
				if !first {
					b.WriteString(", ")
				}
				first = false
				b.WriteString(p.AtomName(a))
			}
			for _, a := range r.Neg {
				if !first {
					b.WriteString(", ")
				}
				first = false
				b.WriteString("not ")
				b.WriteString(p.AtomName(a))
			}
		}
		b.WriteString(".\n")
	}
	return b.String()
}

// Model is a set of atom ids (a candidate or actual stable model),
// kept sorted.
type Model []int

// NewModel returns a sorted copy of ids.
func NewModel(ids []int) Model {
	m := append(Model(nil), ids...)
	sort.Ints(m)
	return m
}

// Equal reports set equality.
func (m Model) Equal(o Model) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// truthValue is a three-valued assignment entry.
type truthValue int8

const (
	tvUnknown truthValue = iota
	tvTrue
	tvFalse
)
