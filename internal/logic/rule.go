package logic

import (
	"fmt"
	"strings"
)

// Rule is a normal disjunctive tuple-generating dependency (NDTGD,
// Section 6 of the paper):
//
//	∀X∀Y( ϕ(X,Y) → ∨ᵢ ∃Zᵢ ψᵢ(X,Zᵢ) )
//
// where ϕ (the Body) is a conjunction of literals and each ψᵢ (a head
// disjunct) is a conjunction of atoms. Quantifiers are implicit: a head
// variable not occurring in the positive body is existentially
// quantified in its disjunct. Special cases:
//
//   - len(Heads) == 1 and no negative body literal: a plain TGD;
//   - len(Heads) == 1: a normal TGD (NTGD);
//   - len(Heads) == 0: an integrity constraint ϕ → ⊥ (not used by the
//     paper's formalism, which encodes falsity with the false/aux trick,
//     but convenient for workloads; the engines support both).
type Rule struct {
	// Label is an optional identifier used in diagnostics and in Skolem
	// function names.
	Label string
	// Body is the conjunction ϕ of positive and negative literals.
	Body []Literal
	// Heads holds one conjunction of atoms per disjunct.
	Heads [][]Atom
}

// NewRule builds a single-disjunct rule.
func NewRule(label string, body []Literal, head []Atom) *Rule {
	return &Rule{Label: label, Body: body, Heads: [][]Atom{head}}
}

// PosBody returns the atoms of the positive body literals.
func (r *Rule) PosBody() []Atom {
	pos, _ := SplitLiterals(r.Body)
	return pos
}

// NegBody returns the atoms of the negative body literals.
func (r *Rule) NegBody() []Atom {
	_, neg := SplitLiterals(r.Body)
	return neg
}

// IsTGD reports whether the rule is a plain (negation-free,
// disjunction-free) TGD.
func (r *Rule) IsTGD() bool {
	if len(r.Heads) != 1 {
		return false
	}
	for _, l := range r.Body {
		if l.Neg {
			return false
		}
	}
	return true
}

// IsConstraint reports whether the rule is an integrity constraint
// (empty head).
func (r *Rule) IsConstraint() bool { return len(r.Heads) == 0 }

// IsDisjunctive reports whether the rule has two or more head
// disjuncts.
func (r *Rule) IsDisjunctive() bool { return len(r.Heads) > 1 }

// HasNegation reports whether the body contains a negative literal.
func (r *Rule) HasNegation() bool {
	for _, l := range r.Body {
		if l.Neg {
			return true
		}
	}
	return false
}

// BodyVars returns the set of variables occurring in the body.
func (r *Rule) BodyVars() map[string]bool {
	set := make(map[string]bool)
	var buf []string
	for _, l := range r.Body {
		buf = l.Atom.Vars(buf[:0])
		for _, v := range buf {
			set[v] = true
		}
	}
	return set
}

// PosBodyVars returns the set of variables occurring in positive body
// literals.
func (r *Rule) PosBodyVars() map[string]bool {
	set := make(map[string]bool)
	var buf []string
	for _, l := range r.Body {
		if l.Neg {
			continue
		}
		buf = l.Atom.Vars(buf[:0])
		for _, v := range buf {
			set[v] = true
		}
	}
	return set
}

// Frontier returns the variables shared between the positive body and
// disjunct i, in first-occurrence order.
func (r *Rule) Frontier(i int) []string {
	pb := r.PosBodyVars()
	var out []string
	seen := make(map[string]bool)
	var buf []string
	for _, a := range r.Heads[i] {
		buf = a.Vars(buf[:0])
		for _, v := range buf {
			if pb[v] && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// ExistVars returns the existentially quantified variables of disjunct
// i (head variables not occurring in the positive body), in
// first-occurrence order.
func (r *Rule) ExistVars(i int) []string {
	pb := r.PosBodyVars()
	var out []string
	seen := make(map[string]bool)
	var buf []string
	for _, a := range r.Heads[i] {
		buf = a.Vars(buf[:0])
		for _, v := range buf {
			if !pb[v] && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// HasExistentials reports whether any disjunct has an existentially
// quantified variable.
func (r *Rule) HasExistentials() bool {
	for i := range r.Heads {
		if len(r.ExistVars(i)) > 0 {
			return true
		}
	}
	return false
}

// Validate checks safety: every variable occurring in a negative body
// literal must occur in a positive body literal (safe NTGDs, Section 2),
// and every head variable must either occur in the positive body or be
// existential (trivially true) — but a variable occurring only in a
// negative literal and in the head is rejected.
func (r *Rule) Validate() error {
	pb := r.PosBodyVars()
	var buf []string
	for _, l := range r.Body {
		if !l.Neg {
			continue
		}
		buf = l.Atom.Vars(buf[:0])
		for _, v := range buf {
			if !pb[v] {
				return fmt.Errorf("rule %s: unsafe variable %s occurs in a negative literal but in no positive body literal", r.name(), v)
			}
		}
	}
	nb := make(map[string]bool)
	for _, a := range r.NegBody() {
		buf = a.Vars(buf[:0])
		for _, v := range buf {
			nb[v] = true
		}
	}
	for i := range r.Heads {
		for _, a := range r.Heads[i] {
			buf = a.Vars(buf[:0])
			for _, v := range buf {
				if nb[v] && !pb[v] {
					return fmt.Errorf("rule %s: head variable %s occurs only in a negative body literal", r.name(), v)
				}
			}
		}
	}
	return nil
}

func (r *Rule) name() string {
	if r.Label != "" {
		return r.Label
	}
	return "<unnamed>"
}

// String renders the rule in the surface syntax, e.g.
// "p(X), not q(X) -> r(X,Y) | s(X)", and a constraint as
// ":- p(X), q(X)".
func (r *Rule) String() string {
	var b strings.Builder
	if r.IsConstraint() {
		b.WriteString(":- ")
	}
	for i, l := range r.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(l.String())
	}
	if r.IsConstraint() {
		return b.String()
	}
	b.WriteString(" -> ")
	for i, disj := range r.Heads {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(AtomsString(disj))
	}
	return b.String()
}

// Preds returns the set of predicate names occurring in the rule.
func (r *Rule) Preds() map[string]int {
	out := make(map[string]int)
	for _, l := range r.Body {
		out[l.Atom.Pred] = l.Atom.Arity()
	}
	for _, disj := range r.Heads {
		for _, a := range disj {
			out[a.Pred] = a.Arity()
		}
	}
	return out
}

// Rename returns a copy of the rule with every variable prefixed, used
// to keep rule variables disjoint across instantiation contexts.
func (r *Rule) Rename(prefix string) *Rule {
	s := make(Subst)
	var collect func(a Atom)
	var buf []string
	collect = func(a Atom) {
		buf = a.Vars(buf[:0])
		for _, v := range buf {
			if _, ok := s[v]; !ok {
				s[v] = V(prefix + v)
			}
		}
	}
	for _, l := range r.Body {
		collect(l.Atom)
	}
	for _, d := range r.Heads {
		for _, a := range d {
			collect(a)
		}
	}
	out := &Rule{Label: r.Label}
	for _, l := range r.Body {
		out.Body = append(out.Body, s.ApplyLiteral(l))
	}
	for _, d := range r.Heads {
		out.Heads = append(out.Heads, s.ApplyAtoms(d))
	}
	return out
}
