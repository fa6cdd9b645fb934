package ground

import (
	"fmt"
	"hash/maphash"
	"sort"

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
	// Prog is the propositional program (facts included as rules with
	// empty bodies). Its Names are left empty: nothing reads them after
	// compile, so a caller that prints the program fills them from
	// Base.
	Prog *asp.Program
	// Base is the derivable Herbrand base, and atom id i is its atom
	// with store index i: a snapshot of the database, whose store
	// indices 0..|D|-1 are the facts, with the derived atoms on its own
	// top layer. It must not be written.
	Base *logic.FactStore
	// db is the grounding's view of the database, frozen at |D| atoms.
	db *logic.FactStore
}

// ModelStore converts a propositional model back to a fact store over
// the original vocabulary: a snapshot of the database with the model's
// derived atoms added by packed key on its own layer, so neither the
// database nor a derived atom is copied or interned again. Every model
// of the program contains its facts, so m's ids below |D| are not
// read.
func (g *Grounding) ModelStore(m asp.Model) *logic.FactStore {
	s := g.db.Snapshot()
	s.AddFrom(g.Base, m[sort.SearchInts(m, g.db.Len()):])
	return s
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
//
// The base is a copy-on-write snapshot of db: the facts keep their
// store indices as atom ids, and the derived atoms are bulk-indexed on
// the snapshot's own layer, so db is neither copied nor written. db
// must not be written while the grounding is in use.
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
	// deduplicated as packed keys (roundKeys) and added as one batch
	// once the round's joins are done (FactStore.AddKeys): the batch's
	// k-th key becomes store index mark+k. d fixes the grounding's view
	// of db at |D| atoms for ModelStore; base layers the derived atoms
	// over the same view.
	d := db.Snapshot()
	base := d.Snapshot()
	var pending roundKeys
	for from := 0; ; {
		mark := base.Len()
		pending.reset()
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
							var isNew bool
							id, isNew = pending.add(key)
							id += mark
							// Only a new atom can hold a new term.
							if isNew && syms.KeyBytes() > maxKeyBytes {
								overflow = fmt.Errorf("%w: the grounding's term keys exceed %d bytes (%d per Options.MaxAtoms)",
									ErrBudget, keyLimit, keyBytesPerAtom)
								return false
							}
						}
						in.heads = append(in.heads, id)
					}
				}
				in.n++
				total++
				if mark+pending.len() > opt.MaxAtoms || total > opt.MaxInstances {
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
		added := pending.len()
		if base.AddKeys(pending.blob, pending.ends) != added {
			return nil, fmt.Errorf("ground: a round's new atoms were not all appended")
		}
		if added == 0 {
			break
		}
		if base.Len() > opt.MaxAtoms {
			return nil, ErrBudget
		}
	}

	g := &Grounding{Base: base, db: d}
	prog := &asp.Program{NAtoms: base.Len(), Rules: make([]asp.Rule, 0, total)}
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

// roundKeys is one round's batch of new head atoms as packed keys: key
// k is blob[ends[k]:ends[k+1]], deduplicated by an open-addressed table
// of key numbers over the blob (linear probing, no deletions), so a
// head found again costs a hash and a compare and no key is copied
// into a string.
type roundKeys struct {
	blob  []byte
	ends  []int32
	slots []int32 // key number + 1; 0 = empty
}

var roundSeed = maphash.MakeSeed()

// reset empties the batch for the next round, keeping its storage.
func (r *roundKeys) reset() {
	if r.slots == nil {
		r.slots = make([]int32, 64)
	}
	r.blob = r.blob[:0]
	r.ends = append(r.ends[:0], 0)
	clear(r.slots)
}

// len returns the number of keys in the batch.
func (r *roundKeys) len() int { return len(r.ends) - 1 }

// add returns the key's number in the batch, appending it if it is new.
func (r *roundKeys) add(key []byte) (int, bool) {
	mask := uint64(len(r.slots) - 1)
	for s := maphash.Bytes(roundSeed, key) & mask; ; s = (s + 1) & mask {
		v := r.slots[s]
		if v == 0 {
			r.blob = append(r.blob, key...)
			r.ends = append(r.ends, int32(len(r.blob)))
			r.slots[s] = int32(r.len())
			if 4*r.len() >= 3*len(r.slots) {
				r.grow()
			}
			return r.len() - 1, true
		}
		if string(r.blob[r.ends[v-1]:r.ends[v]]) == string(key) {
			return int(v - 1), false
		}
	}
}

// grow doubles the table and reinserts every key.
func (r *roundKeys) grow() {
	r.slots = make([]int32, 2*len(r.slots))
	mask := uint64(len(r.slots) - 1)
	for k := 0; k < r.len(); k++ {
		s := maphash.Bytes(roundSeed, r.blob[r.ends[k]:r.ends[k+1]]) & mask
		for r.slots[s] != 0 {
			s = (s + 1) & mask
		}
		r.slots[s] = int32(k + 1)
	}
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
