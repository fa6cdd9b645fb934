package logic

// Model checking for (normal, possibly disjunctive) TGDs under the
// paper's closed-world reading of interpretations: an interpretation I
// is identified with its positive part I⁺ (a FactStore); a negative
// literal ¬p(t̄) holds iff p(t̄) ∉ I⁺.

// Violation describes one unsatisfied trigger: a homomorphism h with
// h(B⁺(σ)) ⊆ I and h(B⁻(σ)) ∩ I = ∅ such that no head disjunct can be
// extended into I.
type Violation struct {
	Rule *Rule
	Hom  Subst
}

// SatisfiesRule reports whether store is a model of r: whenever a
// homomorphism h maps the positive body into the store and no negative
// body instance is present, some head disjunct admits an extension of h
// into the store (Section 2's I |= σ lifted to disjunctive heads as in
// Section 6). Constraints (empty heads) are satisfied iff the body has
// no homomorphism.
func SatisfiesRule(r *Rule, store *FactStore) bool {
	return FirstViolation(r, store) == nil
}

// FirstViolation returns a violation witness for r over store, or nil
// if store satisfies r. The returned homomorphism is cloned and safe to
// keep.
func FirstViolation(r *Rule, store *FactStore) *Violation {
	pos, neg := SplitLiterals(r.Body)
	var found *Violation
	FindHoms(pos, neg, store, Subst{}, func(h Subst) bool {
		if headSatisfied(r, h, store) {
			return true
		}
		found = &Violation{Rule: r, Hom: h.Clone()}
		return false
	})
	return found
}

// headSatisfied reports whether some disjunct of r admits an extension
// of h into store. Constraints have no disjuncts and are never
// satisfied once the body holds.
func headSatisfied(r *Rule, h Subst, store *FactStore) bool {
	for i := range r.Heads {
		if ExistsHom(r.Heads[i], nil, store, h) {
			return true
		}
	}
	return false
}

// IsModel reports whether store is a model of every rule.
func IsModel(rules []*Rule, store *FactStore) bool {
	for _, r := range rules {
		if !SatisfiesRule(r, store) {
			return false
		}
	}
	return true
}
