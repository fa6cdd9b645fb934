package core

import (
	"ntgd/internal/logic"
)

// groundInstance is one materialized rule instance over a universe
// store U, compiled to bitmasks over the non-database atoms of U (the
// database atoms are present in every candidate J with D ⊆ J ⊆ U, so
// they are folded away). For J given by jmask, the instance fires when
// pos ⊆ J and neg ∩ J = ∅, and is then satisfied iff some head
// extension set is contained in J.
type groundInstance struct {
	posMask  uint32
	negMask  uint32
	extMasks []uint32
}

// compiledModelCheck holds every rule instance over the universe,
// ready to decide logic.IsModel(rules, J) for any D ⊆ J ⊆ U with a few
// bitmask operations per instance. Because J ⊆ U, every body
// homomorphism into J is one into U and every head extension into J is
// one into U, so materializing against U once is exhaustive; this
// replaces the per-subset homomorphism searches of the naive
// enumeration (kept as isMinimalModelNaive / minimalModelsNaive, the
// differential-test oracles).
type compiledModelCheck struct {
	instances []groundInstance
}

// universeIndex addresses the universe by global store index instead of
// rendered atom keys: dbAt[i] reports database membership of the atom
// at universe index i, and bitAt[i] is its bitmask position (-1 for
// database atoms). One pass over the universe replaces the per-instance
// inDB/bit string-map lookups of the old compiler — body and head atoms
// carry their store indices in the join's matches, and negative
// instances resolve by one packed-key probe of the store's index.
type universeIndex struct {
	dbAt  []bool
	bitAt []int
}

// indexUniverse partitions the universe against the database by store
// index, returning the index tables and the non-database atoms in
// insertion order.
func indexUniverse(db, universe *logic.FactStore) (universeIndex, []logic.Atom) {
	n := universe.Len()
	u := universeIndex{dbAt: make([]bool, n), bitAt: make([]int, n)}
	var extra []logic.Atom
	universe.EachAtomIn(0, n, func(i int, a logic.Atom) bool {
		if db.Has(a) {
			u.dbAt[i] = true
			u.bitAt[i] = -1
		} else {
			u.bitAt[i] = len(extra)
			extra = append(extra, a)
		}
		return true
	})
	return u, extra
}

// compileModelCheck materializes all rule instances of rules over the
// universe, with instance atoms addressed by store index (see
// universeIndex).
func compileModelCheck(rules []*logic.Rule, universe *logic.FactStore, u universeIndex) *compiledModelCheck {
	c := &compiledModelCheck{}
	var sc logic.Scratch
	var kb []byte
	for _, r := range rules {
		rule := r
		// Negative literals are re-evaluated in J (all predicates are
		// starred in MM[D,Σ]), so they are NOT filtered here: enumerate
		// homomorphisms of the positive body into U and compile the
		// negative instances into the mask.
		rp := logic.CompileRule(rule, false)
		pos, neg := rp.Pos, rp.Neg
		rp.Body.FindHoms(&sc, universe, nil, func(m *logic.Match) bool {
			inst := groundInstance{}
			for b := range pos {
				idx := m.Index(b)
				if u.dbAt[idx] {
					continue // always in J
				}
				inst.posMask |= 1 << u.bitAt[idx]
			}
			blocked := false
			for j := range neg {
				key, ok := rp.Body.AppendKey(universe, kb[:0], len(pos)+j, m.IDs(), false)
				kb = key[:0]
				idx, inU := universe.IndexOfKey(key)
				inU = ok && inU
				switch {
				case inU && u.dbAt[idx]:
					blocked = true // always in J: the instance never fires
				case inU:
					inst.negMask |= 1 << u.bitAt[idx]
				}
				// Atoms outside U can never be in J: vacuously absent.
				if blocked {
					break
				}
			}
			if blocked {
				return true
			}
			trivially := false
			for d, head := range rule.Heads {
				natoms := len(head)
				rp.Heads[d].FindHoms(&sc, universe, m.IDs(), func(mu *logic.Match) bool {
					var ext uint32
					for k := 0; k < natoms; k++ {
						idx := mu.Index(k)
						if u.dbAt[idx] {
							continue
						}
						ext |= 1 << u.bitAt[idx]
					}
					if ext == 0 {
						// The extension lands entirely in D: satisfied
						// in every candidate J.
						trivially = true
						return false
					}
					inst.extMasks = append(inst.extMasks, ext)
					return true
				})
				if trivially {
					break
				}
			}
			if !trivially {
				c.instances = append(c.instances, inst)
			}
			return true
		})
	}
	return c
}

// isModel reports whether the candidate J (database plus the extra
// atoms selected by jmask) satisfies every compiled rule instance.
func (c *compiledModelCheck) isModel(jmask uint32) bool {
	for i := range c.instances {
		inst := &c.instances[i]
		if inst.posMask&jmask != inst.posMask || inst.negMask&jmask != 0 {
			continue // body does not fire in J
		}
		satisfied := false
		for _, ext := range inst.extMasks {
			if ext&jmask == ext {
				satisfied = true
				break
			}
		}
		if !satisfied {
			return false
		}
	}
	return true
}

// splitExtra returns the non-database atoms of the universe, preserving
// insertion order (the naive oracle's helper).
func splitExtra(db, universe *logic.FactStore) []logic.Atom {
	var extra []logic.Atom
	for _, a := range universe.Atoms() {
		if !db.Has(a) {
			extra = append(extra, a)
		}
	}
	return extra
}

// IsMinimalModel checks the circumscription condition MM[D,Σ] of
// Section 3.2: M contains D, M is a model of Σ, and no proper subset J
// with D ⊆ J ⊊ M⁺ is a model of D and Σ. Unlike the stability check,
// the negative literals are re-evaluated in J itself (all predicates
// are starred in MM[D,Σ]); the contrast between the two conditions on
// J = {p(0), t(0)} is exactly the paper's motivation for SM[D,Σ].
//
// The subset search enumerates bitmasks over M⁺ \ D against rule
// instances materialized over M once (compileModelCheck), so each of
// the 2^n candidates costs a few mask operations instead of a fresh
// homomorphism search; it returns false early when a smaller model is
// found.
func IsMinimalModel(db *logic.FactStore, rules []*logic.Rule, m *logic.FactStore) bool {
	if !db.SubsetOf(m) || !logic.IsModel(rules, m) {
		return false
	}
	u, extra := indexUniverse(db, m)
	n := len(extra)
	if n == 0 {
		return true
	}
	if n > 24 {
		// 2^n subsets would be prohibitive; callers should not use the
		// brute-force circumscription check at this size.
		panic("core: IsMinimalModel is limited to 24 non-database atoms")
	}
	c := compileModelCheck(rules, m, u)
	// Enumerate proper subsets.
	for mask := uint32(0); mask < 1<<n-1; mask++ {
		if c.isModel(mask) {
			return false
		}
	}
	return true
}

// isMinimalModelNaive is the original enumeration (one IsModel call
// per subset), kept as the differential-test oracle for the compiled
// fast path.
func isMinimalModelNaive(db *logic.FactStore, rules []*logic.Rule, m *logic.FactStore) bool {
	if !db.SubsetOf(m) || !logic.IsModel(rules, m) {
		return false
	}
	extra := splitExtra(db, m)
	n := len(extra)
	if n == 0 {
		return true
	}
	if n > 24 {
		panic("core: IsMinimalModel is limited to 24 non-database atoms")
	}
	for mask := 0; mask < 1<<n-1; mask++ {
		j := db.Clone()
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				j.Add(extra[i])
			}
		}
		if logic.IsModel(rules, j) {
			return false
		}
	}
	return true
}
