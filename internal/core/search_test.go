package core_test

import (
	"context"
	"testing"

	"ntgd/internal/core"
	"ntgd/internal/engine"
	"ntgd/internal/logic"
)

// TestBudgetExhaustionReported: a non-weakly-acyclic program that
// grows forever must hit the atom budget and report exhaustion rather
// than looping.
func TestBudgetExhaustionReported(t *testing.T) {
	prog := mustParse(t, `
node(a).
node(X) -> succ(X,Y).
succ(X,Y) -> node(Y).
`)
	res, err := stableModels(t, prog.Database(), prog.Rules, core.Options{MaxAtoms: 24, MaxNodes: 50000})
	if err == nil && !res.Exhausted {
		t.Fatalf("expected exhaustion on a non-terminating program")
	}
}

// TestAnswersCautiousAndBrave exercises the n-ary answer API on a
// program with two stable models.
func TestAnswersCautiousAndBrave(t *testing.T) {
	prog := mustParse(t, `
item(a). item(b).
item(X), not out(X) -> in(X).
item(X), not in(X) -> out(X).
in(a) -> marked(a).
`)
	db := prog.Database()
	q := logic.Query{AnswerVars: []string{"X"}, Pos: []logic.Atom{logic.A("in", logic.V("X"))}}

	c := compile(t, db, prog.Rules, core.Options{})
	brave, ok, _, _, err := engine.Answers(context.Background(), c, engine.Params{}, q, true)
	if err != nil || !ok {
		t.Fatalf("brave answers: %v ok=%v", err, ok)
	}
	if len(brave) != 2 {
		t.Fatalf("brave answers should be {a, b}: %v", brave)
	}
	cautious, ok, _, _, err := engine.Answers(context.Background(), c, engine.Params{}, q, false)
	if err != nil || !ok {
		t.Fatalf("cautious answers: %v ok=%v", err, ok)
	}
	if len(cautious) != 0 {
		t.Fatalf("no item is in every stable model: %v", cautious)
	}
}

// TestNoModelsVacuousCautious: a program with no stable models
// cautiously entails everything and bravely entails nothing.
func TestNoModelsVacuousCautious(t *testing.T) {
	prog := mustParse(t, `
p(0).
p(X), not t(X) -> r(X).
r(X) -> t(X).
?- r(0).
`)
	db := prog.Database()
	c, err := cautiousEntails(t, db, prog.Rules, prog.Queries[0], core.Options{})
	if err != nil {
		t.Fatalf("cautious: %v", err)
	}
	if !c.Entailed || !c.NoModels {
		t.Fatalf("cautious entailment over empty SMS is vacuous: %+v", c)
	}
	b, err := braveEntails(t, db, prog.Rules, prog.Queries[0], core.Options{})
	if err != nil {
		t.Fatalf("brave: %v", err)
	}
	if b.Entailed {
		t.Fatalf("brave entailment over empty SMS is false")
	}
}

// TestSharedFreshNullWitnesses: two existential variables in one head
// may be witnessed by the same fresh value; the enumeration must
// include the collapsed model.
func TestSharedFreshNullWitnesses(t *testing.T) {
	prog := mustParse(t, `
seed(a).
seed(X) -> pair(Y,Z).
`)
	res, err := stableModels(t, prog.Database(), prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("StableModels: %v", err)
	}
	// Witness tuples over {a} ∪ fresh: (a,a), (a,n), (n,a), (n,n),
	// (n,m) — five non-isomorphic stable models.
	if len(res.Models) != 5 {
		for _, m := range res.Models {
			t.Logf("model: %s", m.CanonicalString())
		}
		t.Fatalf("expected 5 stable models, got %d", len(res.Models))
	}
	collapsed := false
	for _, m := range res.Models {
		p := m.ByPred("pair")[0]
		if p.Args[0].Kind == logic.Null && p.Args[0].Equal(p.Args[1]) {
			collapsed = true
		}
	}
	if !collapsed {
		t.Fatalf("the shared-null model pair(n,n) is missing")
	}
}

// TestDeterministicClosureNoBranching: positive non-existential
// programs complete without branching.
func TestDeterministicClosureNoBranching(t *testing.T) {
	prog := mustParse(t, `
e(a,b). e(b,c). e(c,d).
e(X,Y) -> t(X,Y).
t(X,Y), e(Y,Z) -> t(X,Z).
`)
	res, err := stableModels(t, prog.Database(), prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("StableModels: %v", err)
	}
	if len(res.Models) != 1 {
		t.Fatalf("datalog program has exactly one stable model")
	}
	if res.Stats.Branches != 0 {
		t.Fatalf("no branching expected, got %d", res.Stats.Branches)
	}
	if res.Models[0].CountPred("t") != 6 {
		t.Fatalf("transitive closure size = %d, want 6", res.Models[0].CountPred("t"))
	}
}

// TestMaxModelsEarlyStop: enumeration respects MaxModels.
func TestMaxModelsEarlyStop(t *testing.T) {
	prog := mustParse(t, `
item(a). item(b). item(c).
item(X), not out(X) -> in(X).
item(X), not in(X) -> out(X).
`)
	res, err := stableModels(t, prog.Database(), prog.Rules, core.Options{MaxModels: 3})
	if err != nil {
		t.Fatalf("StableModels: %v", err)
	}
	if len(res.Models) != 3 {
		t.Fatalf("MaxModels ignored: %d", len(res.Models))
	}
}

// TestChoiceProgramModelCount: the in/out choice program has 2^n
// stable models.
func TestChoiceProgramModelCount(t *testing.T) {
	prog := mustParse(t, `
item(a). item(b). item(c).
item(X), not out(X) -> in(X).
item(X), not in(X) -> out(X).
`)
	res, err := stableModels(t, prog.Database(), prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("StableModels: %v", err)
	}
	if len(res.Models) != 8 {
		t.Fatalf("choice over 3 items should give 8 stable models, got %d", len(res.Models))
	}
	for _, m := range res.Models {
		if !core.IsStableModel(prog.Database(), prog.Rules, m) {
			t.Fatalf("emitted model fails independent stability check")
		}
	}
}

// TestWitnessPolicyDiffersOnlyOnExistentials: on existential-free
// programs both policies enumerate the same models.
func TestWitnessPolicyDiffersOnlyOnExistentials(t *testing.T) {
	src := `
a(1). a(2).
a(X), not q(X) -> p(X).
a(X), not p(X) -> q(X).
`
	prog := mustParse(t, src)
	db := prog.Database()
	anyDom, err := stableModels(t, db, prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("any-domain: %v", err)
	}
	fresh, err := stableModels(t, db, prog.Rules, core.Options{WitnessPolicy: core.WitnessFreshOnly})
	if err != nil {
		t.Fatalf("fresh-only: %v", err)
	}
	if len(anyDom.Models) != len(fresh.Models) {
		t.Fatalf("policies disagree on an existential-free program: %d vs %d",
			len(anyDom.Models), len(fresh.Models))
	}
}

// TestConsistent reports SMS emptiness.
func TestConsistent(t *testing.T) {
	yes := mustParse(t, `p(a). p(X) -> q(X).`)
	ok, _, _, err := engine.Consistent(context.Background(), compile(t, yes.Database(), yes.Rules, core.Options{}), engine.Params{})
	if err != nil || !ok {
		t.Fatalf("consistent program: ok=%v err=%v", ok, err)
	}
	no := mustParse(t, `p(0). p(X), not t(X) -> r(X). r(X) -> t(X).`)
	ok, _, _, err = engine.Consistent(context.Background(), compile(t, no.Database(), no.Rules, core.Options{}), engine.Params{})
	if err != nil || ok {
		t.Fatalf("inconsistent program: ok=%v err=%v", ok, err)
	}
}

// TestGadgetDivergenceSticky (E9): the sticky undecidability gadget
// grows without bound under fresh-only witnesses; the search reports
// exhaustion at any budget. Under the full SO policy, constant reuse
// may yield finite stable models — both behaviours are checked.
func TestGadgetDivergenceSticky(t *testing.T) {
	prog := mustParse(t, `
p(a). s(b).
p(X), s(Y) -> t(X,Y).
t(X,Y) -> u(Y,Z).
u(Y,Z) -> s(Z).
`)
	res, err := stableModels(t, prog.Database(), prog.Rules, core.Options{
		MaxAtoms: 24, MaxNodes: 1 << 20, MaxModels: 1,
		WitnessPolicy: core.WitnessFreshOnly,
	})
	_ = err
	if !res.Exhausted {
		t.Fatalf("fresh-only witnesses must diverge on the grid gadget")
	}
	soRes, err := stableModels(t, prog.Database(), prog.Rules, core.Options{
		MaxAtoms: 24, MaxNodes: 1 << 20, MaxModels: 1,
	})
	if err != nil && len(soRes.Models) == 0 {
		t.Fatalf("the SO policy should find a finite stable model by constant reuse: %v", err)
	}
	if len(soRes.Models) == 1 && !core.IsStableModel(prog.Database(), prog.Rules, soRes.Models[0]) {
		t.Fatalf("found model fails the independent check")
	}
}

// TestQueryConstantEnlargesModelSet: with the query constant bob in
// scope, the father program acquires a third stable model.
func TestQueryConstantEnlargesModelSet(t *testing.T) {
	prog := mustParse(t, fatherProgram)
	db := prog.Database()
	plain, err := stableModels(t, db, prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	withBob, err := stableModels(t, db, prog.Rules, core.Options{
		ExtraConstants: []logic.Term{logic.C("bob")},
	})
	if err != nil {
		t.Fatalf("with bob: %v", err)
	}
	if len(withBob.Models) != len(plain.Models)+1 {
		t.Fatalf("bob adds exactly one model: %d vs %d", len(withBob.Models), len(plain.Models))
	}
}
