package ground

import (
	"fmt"

	"ntgd/internal/asp"
	"ntgd/internal/engine"
	"ntgd/internal/logic"
)

// ErrBudget is returned when grounding exceeds its budget, e.g. for a
// non-weakly-acyclic Skolemized program whose Herbrand expansion is
// infinite. It matches engine.ErrBudget under errors.Is.
var ErrBudget = fmt.Errorf("ground: atom/instance budget exhausted (%w)", engine.ErrBudget)

// keyBytesPerAtom sizes the bound on the bytes of term keys one
// grounding interns: MaxAtoms atoms of this much key each.
const keyBytesPerAtom = 256

// Options bounds the grounding.
type Options struct {
	// MaxAtoms bounds the derivable Herbrand base (0 = 1<<18). It also
	// bounds, at 256 bytes per atom, the total length of the keys of the
	// terms the grounding interns: nested Skolem terms can grow those
	// keys quadratically or exponentially in the number of atoms.
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
// disjuncts derived), which over-approximates every stable model, and
// a ground rule is emitted for every homomorphism of a rule's positive
// body into the base. Negative literals whose instance is outside the
// base are vacuously true and dropped. This "relevant grounding" has
// the same stable models as the full Herbrand instantiation.
//
// It grounds in one join pass. The base's semi-naive fixpoint finds
// every body homomorphism exactly once, and the match records the
// instance: its body atom ids, and its head atom ids from the probe
// that decides whether a head is new (an existing atom's store index,
// or the index the round's batch gives a new one, since the batch is
// appended in order). Negative literals are resolved after the
// fixpoint, by one key probe into the final base each, because their
// instance may be derived in a later round than the match. The program
// lists the facts first (atom ids 0..|D|-1), then each rule's instances
// in program order. Rules identical up to variable names ground to
// duplicate instances, which do not change the stable models.
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
	insts := make([]instances, len(rules))
	total := db.Len()
	var sc logic.Scratch
	var kb []byte
	// The Symbols table is shared with db's other stores, so the key
	// bound counts from what it holds now.
	syms := db.Symbols()
	keyLimit := keyBytesPerAtom * int64(opt.MaxAtoms)
	maxKeyBytes := syms.KeyBytes() + keyLimit

	// The derivable base, computed semi-naively: after the first round
	// each rule's body homomorphisms are seeded from the atoms added in
	// the previous round (FindHomsFrom), so a round costs O(new facts)
	// instead of re-scanning the whole base, and each homomorphism is
	// found in exactly one round. Head instances are built and
	// deduplicated as packed keys and added as one batch once the
	// round's joins are done (FactStore.AddKeys): the batch's k-th key
	// becomes store index mark+k. Atom ids are base store indices, and
	// base is a clone of the database (which keeps its store indices),
	// so the facts are ids 0..|D|-1.
	base := db.Clone()
	for from := 0; ; {
		mark := base.Len()
		var additions []byte
		ends := []int32{0}
		pending := make(map[string]int)
		var overflow error
		for i, c := range comp {
			in := &insts[i]
			c.Body.FindHomsFrom(&sc, base, from, nil, func(m *logic.Match) bool {
				for b := range c.Pos {
					in.pos = append(in.pos, m.Index(b))
				}
				if len(c.Neg) > 0 {
					in.ids = append(in.ids, m.IDs()...)
				}
				for d, hp := range c.Heads {
					for k := range rules[i].Heads[d] {
						key, _ := hp.AppendKey(base, kb[:0], k, m.IDs(), true)
						kb = key[:0]
						id, ok := base.IndexOfKey(key)
						if !ok {
							id, ok = pending[string(key)]
							if !ok {
								id = mark + len(ends) - 1
								pending[string(key)] = id
								additions = append(additions, key...)
								ends = append(ends, int32(len(additions)))
								// Only a new atom can hold a new term.
								if syms.KeyBytes() > maxKeyBytes {
									overflow = fmt.Errorf("%w: the grounding's term keys exceed %d bytes (%d per Options.MaxAtoms)",
										ErrBudget, keyLimit, keyBytesPerAtom)
									return false
								}
							}
						}
						in.heads = append(in.heads, id)
					}
				}
				in.n++
				total++
				if base.Len()+len(ends)-1 > opt.MaxAtoms || total > opt.MaxInstances {
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
		added := len(ends) - 1
		if base.AddKeys(additions, ends) != added {
			return nil, fmt.Errorf("ground: a round's new atoms were not all appended")
		}
		if added == 0 {
			break
		}
		if base.Len() > opt.MaxAtoms {
			return nil, ErrBudget
		}
	}

	g := &Grounding{Atoms: base.Atoms()}
	prog := &asp.Program{NAtoms: len(g.Atoms), Rules: make([]asp.Rule, 0, total)}
	// Facts: one shared backing array for their heads.
	facts, factHeads := make([]int, db.Len()), make([][]int, db.Len())
	for id := range facts {
		facts[id] = id
		factHeads[id] = facts[id : id+1 : id+1]
		prog.Rules = append(prog.Rules, asp.Rule{Disjuncts: factHeads[id : id+1 : id+1]})
	}
	for i, c := range comp {
		prog.Rules = insts[i].appendRules(prog.Rules, c, rules[i].Heads, base)
	}
	g.Prog = prog
	return g, nil
}

// instances are the ground instances of one rule in discovery order,
// each recorded at its match: len(Pos) body atom ids, the head atom ids
// of every disjunct in turn, and, when the rule has negative literals,
// the match's slot ids.
type instances struct {
	n          int
	pos, heads []int
	ids        []uint32
}

// appendRules appends the rule's instances to rules, their negative
// literals resolved in the final base. The instances' atom id lists are
// sliced from shared arrays, not allocated one by one.
func (in *instances) appendRules(rules []asp.Rule, c *logic.RulePlans, heads [][]logic.Atom, base *logic.FactStore) []asp.Rule {
	npos, nslots, nd := len(c.Pos), len(c.Body.Slots()), len(heads)
	disj := make([][]int, in.n*nd)
	// Sized up front, so appends never move the Neg lists already cut.
	negs := make([]int, 0, in.n*len(c.Neg))
	var kb []byte
	h := in.heads
	for k := 0; k < in.n; k++ {
		gr := asp.Rule{
			Pos:       in.pos[k*npos : (k+1)*npos : (k+1)*npos],
			Disjuncts: disj[k*nd : (k+1)*nd : (k+1)*nd],
		}
		for d := range heads {
			w := len(heads[d])
			gr.Disjuncts[d], h = h[:w:w], h[w:]
		}
		lo := len(negs)
		for j := range c.Neg {
			key, ok := c.Body.AppendKey(base, kb[:0], npos+j, in.ids[k*nslots:(k+1)*nslots], false)
			kb = key[:0]
			if id, found := base.IndexOfKey(key); ok && found {
				negs = append(negs, id)
			}
			// else: the negative literal is vacuously true.
		}
		if len(negs) > lo {
			gr.Neg = negs[lo:len(negs):len(negs)]
		}
		rules = append(rules, gr)
	}
	return rules
}
