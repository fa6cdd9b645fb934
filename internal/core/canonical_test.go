package core_test

import (
	"testing"

	"ntgd/internal/core"
	"ntgd/internal/logic"
)

// TestNullRenamingCollapsesDuplicates: the engine must not report the
// same model twice when different branches invent nulls in different
// orders — two independent existential rules produce exactly four
// models, not more.
func TestNullRenamingCollapsesDuplicates(t *testing.T) {
	prog := mustParse(t, `
a(x).
a(X) -> p(X,Y).
a(X) -> q(X,Z).
`)
	res, err := stableModels(t, prog.Database(), prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("StableModels: %v", err)
	}
	// Witnesses for p: {x, fresh}; for q: {x, fresh, p's null when
	// fresh}. Up to isomorphism: (x,x), (x,n), (n,x), (n,n shared),
	// (n,m distinct) — five.
	if len(res.Models) != 5 {
		for _, m := range res.Models {
			t.Logf("model: %s", m.CanonicalString())
		}
		t.Fatalf("expected 5 pairwise non-isomorphic models, got %d", len(res.Models))
	}
	// No two emitted models may be equal after canonical null
	// renaming (spot-check pairwise distinctness).
	seen := map[string]bool{}
	for _, m := range res.Models {
		key := canonicalKeyForTest(m)
		if seen[key] {
			t.Fatalf("duplicate model emitted: %s", m.CanonicalString())
		}
		seen[key] = true
	}
}

// canonicalKeyForTest renames nulls by first occurrence over sorted
// atoms — a coarser canonical form than the engine's; collisions here
// imply collisions there.
func canonicalKeyForTest(m *logic.FactStore) string {
	ren := map[string]string{}
	out := ""
	for _, a := range m.Sorted() {
		args := make([]logic.Term, len(a.Args))
		for i, t := range a.Args {
			if t.Kind == logic.Null {
				n, ok := ren[t.Name]
				if !ok {
					n = "k" + string(rune('0'+len(ren)))
					ren[t.Name] = n
				}
				args[i] = logic.N(n)
			} else {
				args[i] = t
			}
		}
		out += logic.Atom{Pred: a.Pred, Args: args}.String() + ";"
	}
	return out
}

// TestStabilityRejectsJointlyUnsupported: two atoms supporting each
// other through rules but not grounded in D must be rejected by the
// stability check even though they form a classical model.
func TestStabilityRejectsJointlyUnsupported(t *testing.T) {
	prog := mustParse(t, `
seed(s).
p(X) -> q(X).
q(X) -> p(X).
`)
	db := prog.Database()
	m := logic.StoreOf(
		logic.A("seed", logic.C("s")),
		logic.A("p", logic.C("s")),
		logic.A("q", logic.C("s")),
	)
	if !logic.IsModel(prog.Rules, m) {
		t.Fatalf("m is a classical model")
	}
	if core.IsStableModel(db, prog.Rules, m) {
		t.Fatalf("circular support must fail the SM[D,Σ] subset check")
	}
	res, err := stableModels(t, db, prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("StableModels: %v", err)
	}
	if len(res.Models) != 1 || res.Models[0].Len() != 1 {
		t.Fatalf("only {seed(s)} is stable; got %d models", len(res.Models))
	}
}
