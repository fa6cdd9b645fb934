// Package baget_test checks the operational semantics of Baget et al.
// [3]: the SO search with every existential witnessed by a fresh null,
// which core implements as its WitnessFreshOnly policy. The directory
// holds no package code; the tests reach the semantics through the
// public API, Compile with Semantics Operational.
package baget_test

import (
	"context"
	"testing"

	"ntgd"
	"ntgd/internal/logic"
)

const fatherProgram = `
person(alice).
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).
`

// operationalModels compiles prog under the operational semantics and
// collects all of its stable models.
func operationalModels(t *testing.T, prog *ntgd.Program) []*ntgd.FactStore {
	t.Helper()
	res, err := ntgd.MustCompile(prog, ntgd.CompileOptions{Semantics: ntgd.Operational}).Collect(context.Background(), 0)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return res.Models
}

// entails compiles prog under sem and answers q in the given mode.
func entails(t *testing.T, prog *ntgd.Program, sem ntgd.Semantics, q ntgd.Query, mode ntgd.Mode) bool {
	t.Helper()
	res, err := ntgd.MustCompile(prog, ntgd.CompileOptions{Semantics: sem}).Entails(context.Background(), q, mode)
	if err != nil {
		t.Fatalf("%v %v: %v", sem, mode, err)
	}
	return res.Entailed
}

// TestOperationalSemanticsFreshNullsOnly: under [3] the chase always
// invents a fresh null, so the unique stable model (up to null
// renaming) witnesses the father with a null, never with alice or bob.
func TestOperationalSemanticsFreshNullsOnly(t *testing.T) {
	prog := ntgd.MustParse(fatherProgram)
	models := operationalModels(t, prog)
	if len(models) != 1 {
		t.Fatalf("expected exactly one operational stable model, got %d", len(models))
	}
	fa := models[0].ByPred("hasFather")[0]
	if fa.Args[1].Kind != logic.Null {
		t.Fatalf("the witness must be a fresh null, got %s", fa)
	}
}

// TestSection1Criticism reproduces the paper's criticism: under [3],
// (D,Σ) |= ¬hasFather(alice,bob) — the unintended answer — while the
// SO semantics refutes it.
func TestSection1Criticism(t *testing.T) {
	prog := ntgd.MustParse(fatherProgram + "?- person(alice), not hasFather(alice,bob).")
	q := prog.Queries[0]
	if !entails(t, prog, ntgd.Operational, q, ntgd.Cautious) {
		t.Fatalf("the operational semantics should (wrongly) entail the query")
	}
	if entails(t, prog, ntgd.SO, q, ntgd.Cautious) {
		t.Fatalf("the SO semantics must not entail the query")
	}
}

// TestOperationalModelsAreSOStable: every model of the operational
// semantics is also a stable model under the SO semantics (fresh-null
// witnesses are a special case of arbitrary witnesses).
func TestOperationalModelsAreSOStable(t *testing.T) {
	prog := ntgd.MustParse(fatherProgram)
	models := operationalModels(t, prog)
	for _, m := range models {
		if !ntgd.IsStableModel(prog, m) {
			t.Fatalf("operational model is not SO-stable: %s", m.CanonicalString())
		}
	}
}

// TestBraveAgreesOnNegationFreeGround: on an existential-free program
// both semantics coincide.
func TestBraveAgreesOnNegationFreeGround(t *testing.T) {
	prog := ntgd.MustParse(`
a(1).
a(X), not q(X) -> p(X).
a(X), not p(X) -> q(X).
?- p(1).
`)
	q := prog.Queries[0]
	op, so := entails(t, prog, ntgd.Operational, q, ntgd.Brave), entails(t, prog, ntgd.SO, q, ntgd.Brave)
	if op != so {
		t.Fatalf("existential-free programs: semantics must agree (op=%v so=%v)", op, so)
	}
}
