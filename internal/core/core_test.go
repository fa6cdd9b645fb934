package core_test

import (
	"context"
	"testing"

	"ntgd/internal/core"
	"ntgd/internal/engine"
	"ntgd/internal/logic"
	"ntgd/internal/parser"
)

// fatherProgram is the running example of the paper (Example 1): every
// person has a biological father, and two distinct fathers make a
// person abnormal.
const fatherProgram = `
person(alice).
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).
`

func mustParse(t *testing.T, src string) *logic.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// compile compiles (db, rules) for one test, failing it on an error.
func compile(t testing.TB, db *logic.FactStore, rules []*logic.Rule, opt core.Options) *core.Compiled {
	t.Helper()
	c, err := core.Compile(db, rules, opt)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// stableModels compiles (db, rules) and collects up to opt.MaxModels of
// its stable models (0 = all).
func stableModels(t testing.TB, db *logic.FactStore, rules []*logic.Rule, opt core.Options) (*core.Result, error) {
	return engine.CollectModels(context.Background(), compile(t, db, rules, opt), engine.Params{}, opt.MaxModels)
}

// cautiousEntails decides (D,Σ) |=SMS q (Section 3.4) on a fresh
// compile of (db, rules).
func cautiousEntails(t testing.TB, db *logic.FactStore, rules []*logic.Rule, q logic.Query, opt core.Options) (engine.QAResult, error) {
	return engine.CautiousEntails(context.Background(), compile(t, db, rules, opt), engine.Params{}, q)
}

// braveEntails decides whether some stable model of (db, rules)
// satisfies q (Section 7.1).
func braveEntails(t testing.TB, db *logic.FactStore, rules []*logic.Rule, q logic.Query, opt core.Options) (engine.QAResult, error) {
	return engine.BraveEntails(context.Background(), compile(t, db, rules, opt), engine.Params{}, q)
}

// TestExample4StableModelWithConstantWitness reproduces Example 4: the
// interpretation containing hasFather(alice, bob) is a stable model
// under the new semantics (it is not under the LP approach), hence
// q = ¬hasFather(alice, bob) is not entailed.
func TestExample4StableModelWithConstantWitness(t *testing.T) {
	prog := mustParse(t, fatherProgram)
	db := prog.Database()

	m := logic.StoreOf(
		logic.A("person", logic.C("alice")),
		logic.A("hasFather", logic.C("alice"), logic.C("bob")),
		logic.A("sameAs", logic.C("bob"), logic.C("bob")),
	)
	if !core.IsStableModel(db, prog.Rules, m) {
		t.Fatalf("Example 4: %s should be a stable model under the SO semantics", m.CanonicalString())
	}

	// Dropping sameAs(bob,bob) breaks model-hood.
	m2 := logic.StoreOf(
		logic.A("person", logic.C("alice")),
		logic.A("hasFather", logic.C("alice"), logic.C("bob")),
	)
	if core.IsStableModel(db, prog.Rules, m2) {
		t.Fatalf("missing sameAs(bob,bob): should not be a stable model")
	}

	// Adding an unsupported atom breaks stability.
	m3 := m.Clone()
	m3.Add(logic.A("sameAs", logic.C("alice"), logic.C("alice")))
	if core.IsStableModel(db, prog.Rules, m3) {
		t.Fatalf("unsupported sameAs(alice,alice): should not be stable")
	}
}

// TestExample2QueryNotEntailed reproduces Example 2 under the new
// semantics: q = ¬hasFather(alice,bob) (expressed as the safe NBCQ
// person(alice) ∧ ¬hasFather(alice,bob)) must NOT be entailed, because
// from D and Σ there is no evidence that bob is not the father.
func TestExample2QueryNotEntailed(t *testing.T) {
	prog := mustParse(t, fatherProgram+"?- person(alice), not hasFather(alice,bob).")
	db := prog.Database()
	q := prog.Queries[0]

	res, err := cautiousEntails(t, db, prog.Rules, q, core.Options{})
	if err != nil {
		t.Fatalf("CautiousEntails: %v", err)
	}
	if res.Entailed {
		t.Fatalf("Example 2: query should NOT be cautiously entailed under the SO semantics")
	}
	if res.Witness == nil || !res.Witness.Has(logic.A("hasFather", logic.C("alice"), logic.C("bob"))) {
		t.Fatalf("counter-model should contain hasFather(alice,bob); got %v", res.Witness)
	}
}

// TestExample2BagetSemanticsEntailsWrongly: under the operational
// chase-based semantics of Baget et al. (fresh nulls only), the same
// query IS entailed — the unintended answer the paper criticizes.
func TestExample2BagetSemanticsEntailsWrongly(t *testing.T) {
	prog := mustParse(t, fatherProgram+"?- person(alice), not hasFather(alice,bob).")
	db := prog.Database()
	q := prog.Queries[0]

	res, err := cautiousEntails(t, db, prog.Rules, q, core.Options{WitnessPolicy: core.WitnessFreshOnly})
	if err != nil {
		t.Fatalf("CautiousEntails: %v", err)
	}
	if !res.Entailed {
		t.Fatalf("under fresh-only witnesses the query should be (wrongly) entailed")
	}
}

// TestExample1NormalAbnormal: q2 = ∃X person(X) ∧ ¬abnormal(X) is
// entailed, q3 = ∃X person(X) ∧ abnormal(X) is refuted (Example 1).
func TestExample1NormalAbnormal(t *testing.T) {
	prog := mustParse(t, fatherProgram+`
?- person(X), not abnormal(X).
?- person(X), abnormal(X).
`)
	db := prog.Database()

	res, err := cautiousEntails(t, db, prog.Rules, prog.Queries[0], core.Options{})
	if err != nil {
		t.Fatalf("q2: %v", err)
	}
	if !res.Entailed {
		t.Fatalf("q2 = person ∧ ¬abnormal should be cautiously entailed")
	}

	res, err = braveEntails(t, db, prog.Rules, prog.Queries[1], core.Options{})
	if err != nil {
		t.Fatalf("q3: %v", err)
	}
	if res.Entailed {
		t.Fatalf("q3 = person ∧ abnormal should not even be bravely entailed")
	}
}

// TestSection32NoStableModels: D = {p(0)}, Σ = {p(X) ∧ ¬t(X) → r(X),
// r(X) → t(X)} has no stable models (the motivating example of
// Section 3.2/3.3), yet J = {p(0), t(0)} is a minimal model — the gap
// between MM[D,Σ] and SM[D,Σ].
func TestSection32NoStableModels(t *testing.T) {
	prog := mustParse(t, `
p(0).
p(X), not t(X) -> r(X).
r(X) -> t(X).
`)
	db := prog.Database()
	res, err := stableModels(t, db, prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("StableModels: %v", err)
	}
	if len(res.Models) != 0 {
		t.Fatalf("expected no stable models, got %d: %v", len(res.Models), res.Models[0].CanonicalString())
	}

	j := logic.StoreOf(logic.A("p", logic.C("0")), logic.A("t", logic.C("0")))
	if !logic.IsModel(prog.Rules, j) {
		t.Fatalf("J = {p(0), t(0)} should be a classical model")
	}
	if !core.IsMinimalModel(db, prog.Rules, j) {
		t.Fatalf("J should be a minimal model (it satisfies MM[D,Σ])")
	}
	if core.IsStableModel(db, prog.Rules, j) {
		t.Fatalf("J must NOT be a stable model (it violates SM[D,Σ])")
	}
}

// TestEnumerationFatherExample: without extra constants the father
// program has exactly two stable models up to null naming: the
// self-father model and the fresh-null-father model.
func TestEnumerationFatherExample(t *testing.T) {
	prog := mustParse(t, fatherProgram)
	db := prog.Database()
	res, err := stableModels(t, db, prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("StableModels: %v", err)
	}
	if len(res.Models) != 2 {
		for _, m := range res.Models {
			t.Logf("model: %s", m.CanonicalString())
		}
		t.Fatalf("expected 2 stable models, got %d", len(res.Models))
	}
	for _, m := range res.Models {
		if m.CountPred("hasFather") != 1 {
			t.Fatalf("each stable model has exactly one father: %s", m.CanonicalString())
		}
		if m.CountPred("abnormal") != 0 {
			t.Fatalf("no stable model is abnormal: %s", m.CanonicalString())
		}
		if !core.IsStableModel(db, prog.Rules, m) {
			t.Fatalf("emitted model fails the independent stability check: %s", m.CanonicalString())
		}
	}
}

// TestLemma7FixpointCharacterization validates Lemma 7 on the father
// example: M⁺ = T∞_{Σ,M}(D) for every enumerated stable model.
func TestLemma7FixpointCharacterization(t *testing.T) {
	prog := mustParse(t, fatherProgram)
	db := prog.Database()
	res, err := stableModels(t, db, prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("StableModels: %v", err)
	}
	for _, m := range res.Models {
		tinf := core.TInfinity(db, prog.Rules, m)
		if !tinf.Equal(m) {
			t.Fatalf("Lemma 7 violated:\n  M  = %s\n  T∞ = %s", m.CanonicalString(), tinf.CanonicalString())
		}
	}
	// And the TInfinity counterexample of Section 5.1: I⁺ = T∞ does
	// not imply stability.
	prog2 := mustParse(t, `s(a). s(X) -> p(X,Y).`)
	i := logic.StoreOf(
		logic.A("s", logic.C("a")),
		logic.A("p", logic.C("a"), logic.C("b")),
		logic.A("p", logic.C("a"), logic.C("c")),
	)
	tinf := core.TInfinity(prog2.Database(), prog2.Rules, i)
	if !tinf.Equal(i) {
		t.Fatalf("Section 5.1 example: I⁺ should equal T∞_{Σ,I}(D); got %s", tinf.CanonicalString())
	}
	if core.IsStableModel(prog2.Database(), prog2.Rules, i) {
		t.Fatalf("Section 5.1 example: I is not a stable model (two unsupported witnesses)")
	}
}

// TestDisjunctionBasic: a disjunctive guess yields one stable model per
// disjunct, and a constraint prunes.
func TestDisjunctionBasic(t *testing.T) {
	prog := mustParse(t, `
node(a).
node(X) -> red(X) | green(X).
:- green(X).
`)
	db := prog.Database()
	res, err := stableModels(t, db, prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("StableModels: %v", err)
	}
	if len(res.Models) != 1 {
		t.Fatalf("expected 1 stable model, got %d", len(res.Models))
	}
	if !res.Models[0].Has(logic.A("red", logic.C("a"))) {
		t.Fatalf("expected red(a) in %s", res.Models[0].CanonicalString())
	}
}

// TestFalseAuxTrick: the paper's encoding idiom — false ∧ ¬aux → aux —
// makes every candidate containing `false` unstable, without native
// constraints.
func TestFalseAuxTrick(t *testing.T) {
	prog := mustParse(t, `
node(a).
node(X) -> red(X) | green(X).
green(X) -> false.
false, not aux -> aux.
`)
	db := prog.Database()
	res, err := stableModels(t, db, prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("StableModels: %v", err)
	}
	if len(res.Models) != 1 {
		for _, m := range res.Models {
			t.Logf("model: %s", m.CanonicalString())
		}
		t.Fatalf("expected 1 stable model, got %d", len(res.Models))
	}
	if res.Models[0].CountPred("false") != 0 {
		t.Fatalf("stable model must not contain false: %s", res.Models[0].CanonicalString())
	}
}
