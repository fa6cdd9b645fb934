package core

import (
	"ntgd/internal/logic"
)

// T∞ is test code: the search never calls it, and the tests use it to
// check Lemma 7 on the models the search finds. The two exported names
// below are visible to the external core_test package as well.

// ImmediateConsequences computes T_{Σ,I}(S), the immediate consequence
// operator of Section 5.1 relative to the oracle interpretation I
// (given by its positive part): an atom p(t̄) ∈ I⁺ is an immediate
// consequence for S and Σ relative to I if some rule σ and
// homomorphism h satisfy h(B⁺(σ)) ⊆ S, h(B⁻(σ)) ∩ I⁺ = ∅ (the negative
// literals are answered by the oracle), and p(t̄) ∈ h(H(σ)) for an
// extension of h mapping some head disjunct into I⁺.
func ImmediateConsequences(s *logic.FactStore, rules []*logic.Rule, oracle *logic.FactStore) []logic.Atom {
	return immediateConsequencesFrom(s, rules, oracle, 0)
}

// immediateConsequencesFrom is the semi-naive variant: only body
// homomorphisms using at least one atom of s with store index ≥ from
// are considered (all of them when from <= 0). TInfinity seeds each
// round from the previous round's delta this way.
func immediateConsequencesFrom(s *logic.FactStore, rules []*logic.Rule, oracle *logic.FactStore, from int) []logic.Atom {
	var out []logic.Atom
	seen := make(map[string]bool)
	for _, r := range rules {
		rule := r
		pos, neg := logic.SplitLiterals(rule.Body)
		logic.FindHomsFrom(pos, nil, s, from, logic.Subst{}, func(h logic.Subst) bool {
			for _, n := range neg {
				if oracle.Has(h.ApplyAtom(n)) {
					return true
				}
			}
			for i := range rule.Heads {
				logic.FindHoms(rule.Heads[i], nil, oracle, h, func(mu logic.Subst) bool {
					for _, a := range rule.Heads[i] {
						g := mu.ApplyAtom(a)
						if k := g.Key(); !seen[k] {
							seen[k] = true
							out = append(out, g)
						}
					}
					return true
				})
			}
			return true
		})
	}
	return out
}

// TInfinity computes T∞_{Σ,I}(D): the least fixpoint of the immediate
// consequence operator starting from the database. Lemma 7 states that
// M⁺ = T∞_{Σ,M}(D) for every stable model M, which both justifies the
// search strategy of this package and provides an independent
// validation oracle used by the test suite. The fixpoint is computed
// semi-naively: each round seeds body homomorphisms from the atoms
// added in the previous round only.
func TInfinity(db *logic.FactStore, rules []*logic.Rule, oracle *logic.FactStore) *logic.FactStore {
	s := db.Snapshot()
	for from := 0; ; {
		mark := s.Len()
		added := 0
		for _, a := range immediateConsequencesFrom(s, rules, oracle, from) {
			if s.Add(a) {
				added++
			}
		}
		from = mark
		if added == 0 {
			return s
		}
	}
}
