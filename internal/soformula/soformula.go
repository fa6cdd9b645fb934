// Package soformula materializes the second-order formulas at the
// heart of the paper's Section 3: MM[D,Σ] (circumscription — the
// minimal model characterization of Section 3.2) and SM[D,Σ] (the
// stable model characterization of Section 3.3, obtained from MM[D,Σ]
// by fixing the negated predicates to their original, non-starred
// versions via the τ_{p▷s} transformation, plus UNA[D]).
//
// The formulas are produced as structured, human-readable text. They
// are used by documentation, the CLI (`ntgdctl formula`), and golden
// tests; the semantic content of SM[D,Σ] is implemented operationally
// by internal/core.
package soformula

import (
	"fmt"
	"sort"
	"strings"

	"ntgd/internal/logic"
)

// starSuffix marks the second-order predicate variables s (rendered
// p*, t*, … as in the paper).
const starSuffix = "*"

// Tau applies the paper's τ_{p▷s} transformation to a literal: a
// positive literal p(t̄) becomes s(t̄) (starred); a negative literal
// ¬p(t̄) stays on the original predicate.
func Tau(l logic.Literal) logic.Literal {
	if l.Neg {
		return l
	}
	return logic.Pos(logic.Atom{Pred: l.Atom.Pred + starSuffix, Args: l.Atom.Args})
}

// TauRule applies τ_{p▷s} to every literal of a rule (head atoms are
// positive, hence starred).
func TauRule(r *logic.Rule) *logic.Rule {
	out := &logic.Rule{Label: r.Label + starSuffix}
	for _, l := range r.Body {
		out.Body = append(out.Body, Tau(l))
	}
	for _, d := range r.Heads {
		var nd []logic.Atom
		for _, a := range d {
			nd = append(nd, logic.Atom{Pred: a.Pred + starSuffix, Args: a.Args})
		}
		out.Heads = append(out.Heads, nd)
	}
	return out
}

// starAll stars every literal, including negative ones — the
// circumscription transform used by MM[D,Σ].
func starAll(r *logic.Rule) *logic.Rule {
	out := &logic.Rule{Label: r.Label + starSuffix}
	for _, l := range r.Body {
		out.Body = append(out.Body, logic.Literal{Neg: l.Neg, Atom: logic.Atom{Pred: l.Atom.Pred + starSuffix, Args: l.Atom.Args}})
	}
	for _, d := range r.Heads {
		var nd []logic.Atom
		for _, a := range d {
			nd = append(nd, logic.Atom{Pred: a.Pred + starSuffix, Args: a.Args})
		}
		out.Heads = append(out.Heads, nd)
	}
	return out
}

// UNA renders UNA[D] = ∧_{c≠d ∈ dom(D)} ¬(c = d).
func UNA(db *logic.FactStore) string {
	dom := db.Domain()
	var consts []string
	for _, t := range dom {
		if t.Kind == logic.Const {
			consts = append(consts, t.Name)
		}
	}
	sort.Strings(consts)
	if len(consts) < 2 {
		return "⊤"
	}
	var parts []string
	for i := 0; i < len(consts); i++ {
		for j := i + 1; j < len(consts); j++ {
			parts = append(parts, fmt.Sprintf("¬(%s = %s)", consts[i], consts[j]))
		}
	}
	return strings.Join(parts, " ∧ ")
}

func predList(db *logic.FactStore, rules []*logic.Rule) []string {
	set := map[string]bool{}
	for _, p := range db.Preds() {
		set[p] = true
	}
	for _, r := range rules {
		for p := range r.Preds() {
			set[p] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func renderDB(db *logic.FactStore, starred bool) string {
	atoms := db.Sorted()
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		if starred {
			a = logic.Atom{Pred: a.Pred + starSuffix, Args: a.Args}
		}
		parts[i] = renderAtom(a)
	}
	if len(parts) == 0 {
		return "⊤"
	}
	return strings.Join(parts, " ∧ ")
}

// renderAtom renders an atom whose predicate may carry the star
// suffix, which stays outside the quotes a predicate name may need.
func renderAtom(a logic.Atom) string {
	p, starred := strings.CutSuffix(a.Pred, starSuffix)
	if !starred {
		return a.String()
	}
	pred := logic.A(p).String()
	return pred + starSuffix + logic.Atom{Pred: p, Args: a.Args}.String()[len(pred):]
}

func renderRules(rules []*logic.Rule) string {
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = renderRule(r)
	}
	return strings.Join(parts, " ∧\n  ")
}

// renderRule prints a rule with explicit quantifiers, paper style.
func renderRule(r *logic.Rule) string {
	pb := r.PosBodyVars()
	bodyVars := sortedKeys(r.BodyVars())
	var b strings.Builder
	if len(bodyVars) > 0 {
		b.WriteString("∀")
		b.WriteString(strings.Join(bodyVars, "∀"))
	}
	b.WriteString("(")
	for i, l := range r.Body {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		if l.Neg {
			b.WriteString("¬")
		}
		b.WriteString(renderAtom(l.Atom))
	}
	if len(r.Body) == 0 {
		b.WriteString("⊤")
	}
	b.WriteString(" → ")
	if len(r.Heads) == 0 {
		b.WriteString("⊥")
	}
	for i, d := range r.Heads {
		if i > 0 {
			b.WriteString(" ∨ ")
		}
		var exist []string
		seen := map[string]bool{}
		var buf []string
		for _, a := range d {
			buf = a.Vars(buf[:0])
			for _, v := range buf {
				if !pb[v] && !seen[v] {
					seen[v] = true
					exist = append(exist, v)
				}
			}
		}
		if len(exist) > 0 {
			b.WriteString("∃")
			b.WriteString(strings.Join(exist, "∃"))
			b.WriteString(" ")
		}
		if len(d) > 1 {
			b.WriteString("(")
		}
		for j, a := range d {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(renderAtom(a))
		}
		if len(d) > 1 {
			b.WriteString(")")
		}
	}
	b.WriteString(")")
	return b.String()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// quantifierBlock renders ∃p*∃t*… for the predicate variables.
func quantifierBlock(preds []string) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = "∃" + p + starSuffix
	}
	return strings.Join(parts, "")
}

// lessThan renders (s < p): pointwise inclusion plus strictness.
func lessThan(preds []string) string {
	var incl []string
	for _, p := range preds {
		incl = append(incl, fmt.Sprintf("(%s%s ≤ %s)", p, starSuffix, p))
	}
	var back []string
	for _, p := range preds {
		back = append(back, fmt.Sprintf("(%s ≤ %s%s)", p, p, starSuffix))
	}
	return strings.Join(incl, " ∧ ") + " ∧ ¬(" + strings.Join(back, " ∧ ") + ")"
}

// MM renders the circumscription formula MM[D,Σ] of Section 3.2: the
// models of MM[D,Σ] are exactly the minimal models of D ∧ Σ.
func MM(db *logic.FactStore, rules []*logic.Rule) string {
	preds := predList(db, rules)
	starred := make([]*logic.Rule, len(rules))
	for i, r := range rules {
		starred[i] = starAll(r)
	}
	return fmt.Sprintf(`%s ∧
  %s ∧
¬%s(
  %s ∧
  %s ∧
  %s
)`,
		renderDB(db, false), renderRules(rules),
		quantifierBlock(preds),
		lessThan(preds),
		renderDB(db, true),
		renderRules(starred))
}

// SM renders the stable model formula SM[D,Σ] of Section 3.3:
// UNA[D] ∧ D ∧ Σ ∧ ¬∃s((s < p) ∧ τ_{p▷s}(D) ∧ τ_{p▷s}(Σ)). Its models
// are precisely the stable models of Definition 1, implemented
// operationally by internal/core.
func SM(db *logic.FactStore, rules []*logic.Rule) string {
	preds := predList(db, rules)
	tau := make([]*logic.Rule, len(rules))
	for i, r := range rules {
		tau[i] = TauRule(r)
	}
	return fmt.Sprintf(`%s ∧
%s ∧
  %s ∧
¬%s(
  %s ∧
  %s ∧
  %s
)`,
		UNA(db),
		renderDB(db, false), renderRules(rules),
		quantifierBlock(preds),
		lessThan(preds),
		renderDB(db, true),
		renderRules(tau))
}
