package ground

import (
	"errors"
	"fmt"

	"ntgd/internal/asp"
	"ntgd/internal/logic"
)

// ErrBudget is returned when grounding exceeds its budget, e.g. for a
// non-weakly-acyclic Skolemized program whose Herbrand expansion is
// infinite.
var ErrBudget = errors.New("ground: atom/instance budget exhausted")

// Options bounds the grounding.
type Options struct {
	// MaxAtoms bounds the derivable Herbrand base (0 = 1<<18).
	MaxAtoms int
	// MaxInstances bounds the number of ground rules (0 = 1<<20).
	MaxInstances int
}

// Grounding is a ground program together with its atom table.
type Grounding struct {
	// Atoms maps atom id -> ground atom.
	Atoms []logic.Atom
	// Prog is the propositional program (facts included as rules with
	// empty bodies). Its Names are left empty: nothing reads them after
	// compile, so a caller that prints the program fills them from
	// Atoms.
	Prog *asp.Program
}

// ModelStore converts a propositional model back to a fact store over
// the original vocabulary.
func (g *Grounding) ModelStore(m asp.Model) *logic.FactStore {
	atoms := make([]logic.Atom, len(m))
	for i, id := range m {
		atoms[i] = g.Atoms[id]
	}
	return logic.StoreOf(atoms...)
}

// Ground instantiates a Skolemized (existential-free) program over its
// derivable Herbrand base: the base is the least fixpoint obtained by
// treating every rule as positive (negative literals ignored, all head
// disjuncts derived), which over-approximates every stable model;
// ground rules are then emitted for every homomorphism of the positive
// body into the base. Negative literals whose instance is outside the
// base are vacuously true and dropped. This "relevant grounding" has
// the same stable models as the full Herbrand instantiation.
func Ground(db *logic.FactStore, rules []*logic.Rule, opt Options) (*Grounding, error) {
	if !IsSkolemized(rules) {
		return nil, fmt.Errorf("ground: rules must be Skolemized first (existential head variables present)")
	}
	if opt.MaxAtoms <= 0 {
		opt.MaxAtoms = 1 << 18
	}
	if opt.MaxInstances <= 0 {
		opt.MaxInstances = 1 << 20
	}

	// Phase 1: derivable base, computed semi-naively: after the first
	// round each rule's body homomorphisms are seeded from the atoms
	// added in the previous round (logic.FindHomsFrom), so a round
	// costs O(new facts) instead of re-scanning the whole base.
	base := db.Clone()
	for from := 0; ; {
		mark := base.Len()
		var additions []logic.Atom
		pending := make(map[string]bool)
		var overflow error
		for _, r := range rules {
			rule := r
			logic.FindHomsFrom(rule.PosBody(), nil, base, from, logic.Subst{}, func(h logic.Subst) bool {
				for _, d := range rule.Heads {
					for _, a := range d {
						g := h.ApplyAtom(a)
						if k := g.Key(); !base.Has(g) && !pending[k] {
							pending[k] = true
							additions = append(additions, g)
						}
					}
				}
				if base.Len()+len(additions) > opt.MaxAtoms {
					overflow = ErrBudget
					return false
				}
				return true
			})
			if overflow != nil {
				return nil, overflow
			}
		}
		from = mark
		if base.AddAll(additions) == 0 {
			break
		}
		if base.Len() > opt.MaxAtoms {
			return nil, ErrBudget
		}
	}

	// Atom ids are base store indices: base is a clone of the database
	// (which keeps its store indices), so the facts are ids 0..|D|-1,
	// and phase 2 resolves every instance by one index probe into base.
	g := &Grounding{Atoms: base.Atoms()}
	prog := &asp.Program{NAtoms: len(g.Atoms)}

	// Facts.
	for id := 0; id < db.Len(); id++ {
		prog.Rules = append(prog.Rules, asp.Rule{Disjuncts: [][]int{{id}}})
	}

	// Phase 2: rule instances.
	seen := make(map[string]bool)
	for _, r := range rules {
		rule := r
		var overflow error
		logic.FindHoms(rule.PosBody(), nil, base, logic.Subst{}, func(h logic.Subst) bool {
			gr := asp.Rule{}
			for _, b := range rule.PosBody() {
				id, _ := base.IndexUnder(h, b)
				gr.Pos = append(gr.Pos, id)
			}
			for _, n := range rule.NegBody() {
				if id, ok := base.IndexUnder(h, n); ok {
					gr.Neg = append(gr.Neg, id)
				}
				// else: the negative literal is vacuously true.
			}
			for _, d := range rule.Heads {
				var disj []int
				for _, a := range d {
					id, _ := base.IndexUnder(h, a)
					disj = append(disj, id)
				}
				gr.Disjuncts = append(gr.Disjuncts, disj)
			}
			key := ruleKey(gr)
			if !seen[key] {
				seen[key] = true
				prog.Rules = append(prog.Rules, gr)
				if len(prog.Rules) > opt.MaxInstances {
					overflow = ErrBudget
					return false
				}
			}
			return true
		})
		if overflow != nil {
			return nil, overflow
		}
	}
	g.Prog = prog
	return g, nil
}

func ruleKey(r asp.Rule) string {
	var b []byte
	for _, d := range r.Disjuncts {
		b = append(b, 'd')
		for _, a := range d {
			b = appendInt(b, a)
		}
	}
	b = append(b, 'p')
	for _, a := range r.Pos {
		b = appendInt(b, a)
	}
	b = append(b, 'n')
	for _, a := range r.Neg {
		b = appendInt(b, a)
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ',')
}
