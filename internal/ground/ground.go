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

	// Each rule is compiled once, its body joins enumerating every
	// homomorphism of the positive body (negative literals are grounded
	// from the match's ids, not checked), and its head disjuncts laid
	// out over the body's slots, so a match's ids build their packed
	// keys directly (see logic.RulePlans).
	comp := make([]*logic.RulePlans, len(rules))
	for i, r := range rules {
		comp[i] = logic.CompileRule(r, false)
	}
	var sc logic.Scratch
	var kb []byte

	// Phase 1: derivable base, computed semi-naively: after the first
	// round each rule's body homomorphisms are seeded from the atoms
	// added in the previous round (FindHomsFrom), so a round costs
	// O(new facts) instead of re-scanning the whole base. Head instances
	// are built and deduplicated as packed keys and added as one batch
	// once the round's joins are done (FactStore.AddKeys).
	base := db.Clone()
	for from := 0; ; {
		mark := base.Len()
		var additions []byte
		ends := []int32{0}
		pending := make(map[string]bool)
		var overflow error
		for i, c := range comp {
			c.Body.FindHomsFrom(&sc, base, from, nil, func(m *logic.Match) bool {
				for d, hp := range c.Heads {
					for k := range rules[i].Heads[d] {
						key, _ := hp.AppendKey(base, kb[:0], k, m.IDs(), true)
						kb = key[:0]
						if _, in := base.IndexOfKey(key); !in && !pending[string(key)] {
							pending[string(key)] = true
							additions = append(additions, key...)
							ends = append(ends, int32(len(additions)))
						}
					}
				}
				if base.Len()+len(ends)-1 > opt.MaxAtoms {
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
		if base.AddKeys(additions, ends) == 0 {
			break
		}
		if base.Len() > opt.MaxAtoms {
			return nil, ErrBudget
		}
	}

	// Atom ids are base store indices: base is a clone of the database
	// (which keeps its store indices), so the facts are ids 0..|D|-1,
	// and phase 2 reads the body's ids from the match and resolves the
	// negative and head instances by one key probe each into base.
	g := &Grounding{Atoms: base.Atoms()}
	prog := &asp.Program{NAtoms: len(g.Atoms)}

	// Facts.
	for id := 0; id < db.Len(); id++ {
		prog.Rules = append(prog.Rules, asp.Rule{Disjuncts: [][]int{{id}}})
	}

	// Phase 2: rule instances.
	seen := make(map[string]bool)
	for i, c := range comp {
		var overflow error
		c.Body.FindHoms(&sc, base, nil, func(m *logic.Match) bool {
			gr := asp.Rule{}
			for b := range c.Pos {
				gr.Pos = append(gr.Pos, m.Index(b))
			}
			for j := range c.Neg {
				key, ok := c.Body.AppendKey(base, kb[:0], len(c.Pos)+j, m.IDs(), false)
				kb = key[:0]
				if id, in := base.IndexOfKey(key); ok && in {
					gr.Neg = append(gr.Neg, id)
				}
				// else: the negative literal is vacuously true.
			}
			for d, hp := range c.Heads {
				var disj []int
				for k := range rules[i].Heads[d] {
					key, _ := hp.AppendKey(base, kb[:0], k, m.IDs(), false)
					kb = key[:0]
					id, _ := base.IndexOfKey(key)
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
