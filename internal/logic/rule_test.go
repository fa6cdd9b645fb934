package logic

import (
	"strings"
	"testing"
)

func ruleFixture() *Rule {
	// p(X,Y), not q(Y) -> r(X,Z) | s(Y)
	return &Rule{
		Label: "rx",
		Body: []Literal{
			Pos(A("p", V("X"), V("Y"))),
			Neg(A("q", V("Y"))),
		},
		Heads: [][]Atom{
			{A("r", V("X"), V("Z"))},
			{A("s", V("Y"))},
		},
	}
}

func TestRuleAccessors(t *testing.T) {
	r := ruleFixture()
	if len(r.PosBody()) != 1 || len(r.NegBody()) != 1 {
		t.Fatalf("body split wrong")
	}
	if r.IsTGD() || r.IsConstraint() || !r.IsDisjunctive() || !r.HasNegation() {
		t.Fatalf("classification flags wrong")
	}
	if !r.HasExistentials() {
		t.Fatalf("Z is existential")
	}
	if got := r.ExistVars(0); len(got) != 1 || got[0] != "Z" {
		t.Fatalf("ExistVars(0) = %v", got)
	}
	if got := r.ExistVars(1); len(got) != 0 {
		t.Fatalf("ExistVars(1) = %v", got)
	}
}

func TestRuleValidateSafety(t *testing.T) {
	ok := ruleFixture()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid rule rejected: %v", err)
	}
	unsafe := &Rule{
		Label: "bad",
		Body:  []Literal{Pos(A("p", V("X"))), Neg(A("q", V("Y")))},
		Heads: [][]Atom{{A("r", V("X"))}},
	}
	if err := unsafe.Validate(); err == nil {
		t.Fatalf("unsafe negative variable accepted")
	}
}

func TestRuleString(t *testing.T) {
	s := ruleFixture().String()
	for _, want := range []string{"p(X,Y)", "not q(Y)", "->", "r(X,Z)", "|", "s(Y)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	c := &Rule{Body: []Literal{Pos(A("p", V("X"))), Neg(A("q", V("X")))}}
	if got := c.String(); got != ":- p(X), not q(X)" {
		t.Fatalf("constraint renders %q", got)
	}
}

func TestRuleRenameDisjointness(t *testing.T) {
	r := ruleFixture()
	rn := r.Rename("v_")
	set := rn.BodyVars()
	for v := range set {
		if !strings.HasPrefix(v, "v_") {
			t.Fatalf("rename missed %s", v)
		}
	}
	// Original untouched.
	if _, ok := r.BodyVars()["v_X"]; ok {
		t.Fatalf("rename mutated the receiver")
	}
}

func TestRulePreds(t *testing.T) {
	preds := ruleFixture().Preds()
	if preds["p"] != 2 || preds["q"] != 1 || preds["r"] != 2 || preds["s"] != 1 {
		t.Fatalf("Preds = %v", preds)
	}
}

func TestSatisfiesRuleAndWitness(t *testing.T) {
	// p(X) -> q(X)
	r := NewRule("r1", []Literal{Pos(A("p", V("X")))}, []Atom{A("q", V("X"))})
	sat := StoreOf(A("p", C("a")), A("q", C("a")))
	if !SatisfiesRule(r, sat) {
		t.Fatalf("satisfied rule reported violated")
	}
	unsat := StoreOf(A("p", C("a")))
	if SatisfiesRule(r, unsat) {
		t.Fatalf("violated rule reported satisfied")
	}
	v := FirstViolation(r, unsat)
	if v == nil || v.Hom["X"].Name != "a" {
		t.Fatalf("violation witness wrong: %+v", v)
	}
	if !witnessPositive(r, sat) {
		t.Fatalf("witness should be positive")
	}
	if witnessPositive(r, unsat) {
		t.Fatalf("witness should be negative (Lemma 10)")
	}
}

// witnessPositive reports whether the witness W^σ_I of Definition 4 is
// positive: every homomorphism h with h(B(σ)) ⊆ I has an extension
// µ ⊇ h mapping some head disjunct into I.
func witnessPositive(r *Rule, store *FactStore) bool {
	pos, neg := SplitLiterals(r.Body)
	positive := true
	FindHoms(pos, neg, store, Subst{}, func(h Subst) bool {
		for _, d := range r.Heads {
			if ExistsHom(d, nil, store, h) {
				return true
			}
		}
		positive = false
		return false
	})
	return positive
}

// TestLemma10 checks the equivalence of Lemma 10: I |= Σ iff every
// witness is positive.
func TestLemma10(t *testing.T) {
	rules := []*Rule{
		NewRule("r1", []Literal{Pos(A("p", V("X")))}, []Atom{A("q", V("X"))}),
		NewRule("r2", []Literal{Pos(A("q", V("X"))), Neg(A("s", V("X")))}, []Atom{A("t", V("X"))}),
	}
	stores := []*FactStore{
		StoreOf(A("p", C("a"))),
		StoreOf(A("p", C("a")), A("q", C("a"))),
		StoreOf(A("p", C("a")), A("q", C("a")), A("t", C("a"))),
		StoreOf(A("p", C("a")), A("q", C("a")), A("s", C("a"))),
	}
	for _, st := range stores {
		allPositive := true
		for _, r := range rules {
			if !witnessPositive(r, st) {
				allPositive = false
			}
		}
		if allPositive != IsModel(rules, st) {
			t.Fatalf("Lemma 10 violated on %s", st.CanonicalString())
		}
	}
}

func TestEmptyBodyRule(t *testing.T) {
	// -> ∃X zero(X): satisfied iff some zero atom exists.
	r := &Rule{Label: "g", Heads: [][]Atom{{A("zero", V("X"))}}}
	if SatisfiesRule(r, NewFactStore()) {
		t.Fatalf("empty store cannot satisfy the guess rule")
	}
	if !SatisfiesRule(r, StoreOf(A("zero", C("v")))) {
		t.Fatalf("zero(v) satisfies the guess rule")
	}
}

func TestQueryValidateAndEval(t *testing.T) {
	q := Query{
		AnswerVars: []string{"X"},
		Pos:        []Atom{A("p", V("X"))},
		Neg:        []Atom{A("q", V("X"))},
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := Query{Pos: []Atom{A("p", V("X"))}, Neg: []Atom{A("q", V("Y"))}}
	if err := bad.Validate(); err == nil {
		t.Fatalf("unsafe query accepted")
	}
	store := StoreOf(A("p", C("a")), A("p", C("b")), A("q", C("b")), A("p", N("n1")))
	ans := q.Answers(store)
	if len(ans) != 1 || ans[0].String() != "(a)" {
		t.Fatalf("Answers = %v (nulls must be excluded, q filters b)", ans)
	}
	if !q.Holds(store) {
		t.Fatalf("Boolean reading should hold")
	}
}
