package chase_test

import (
	"context"
	"errors"
	"testing"

	"ntgd/internal/chase"
	"ntgd/internal/logic"
	"ntgd/internal/parser"
)

func TestRestrictedChaseTerminatesOnWA(t *testing.T) {
	prog := parser.MustParse(`
person(alice).
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
`)
	res, err := chase.Run(prog.Database(), prog.Rules, chase.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Instance.Len() != 3 {
		t.Fatalf("chase size = %d, want 3: %s", res.Instance.Len(), res.Instance.CanonicalString())
	}
	if res.NullsInvented != 1 {
		t.Fatalf("nulls = %d, want 1", res.NullsInvented)
	}
}

func TestRestrictedVsObliviousSize(t *testing.T) {
	// hasFather(alice,bob) already satisfies the existential; the
	// restricted chase does nothing, the oblivious chase still fires.
	prog := parser.MustParse(`
person(alice). hasFather(alice,bob).
person(X) -> hasFather(X,Y).
`)
	restricted, err := chase.Run(prog.Database(), prog.Rules, chase.Options{})
	if err != nil {
		t.Fatalf("restricted: %v", err)
	}
	if restricted.Applications != 0 {
		t.Fatalf("restricted chase should not fire, fired %d", restricted.Applications)
	}
	obl, err := chase.Run(prog.Database(), prog.Rules, chase.Options{Variant: chase.Oblivious})
	if err != nil {
		t.Fatalf("oblivious: %v", err)
	}
	if obl.Applications != 1 || obl.Instance.Len() != 3 {
		t.Fatalf("oblivious chase should fire once: apps=%d size=%d", obl.Applications, obl.Instance.Len())
	}
}

func TestChaseBudgetOnNonTerminating(t *testing.T) {
	prog := parser.MustParse(`
node(a).
node(X) -> succ(X,Y).
succ(X,Y) -> node(Y).
`)
	_, err := chase.Run(prog.Database(), prog.Rules, chase.Options{MaxAtoms: 50})
	if !errors.Is(err, chase.ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}

func TestChaseRejectsNTGDs(t *testing.T) {
	prog := parser.MustParse(`
p(a).
p(X), not q(X) -> r(X).
`)
	if _, err := chase.Run(prog.Database(), prog.Rules, chase.Options{}); err == nil {
		t.Fatalf("chase must reject rules with negation")
	}
}

func TestCertainBCQ(t *testing.T) {
	prog := parser.MustParse(`
emp(ann). mgr(ann, bob).
emp(X) -> dept(X, D).
mgr(X, Y) -> emp(Y).
?- dept(bob, D).
?- dept(ann, ann).
`)
	ok, err := chase.CertainBCQ(prog.Database(), prog.Rules, prog.Queries[0], chase.Options{})
	if err != nil {
		t.Fatalf("CertainBCQ: %v", err)
	}
	if !ok {
		t.Fatalf("bob is an employee, so bob has a department")
	}
	ok, err = chase.CertainBCQ(prog.Database(), prog.Rules, prog.Queries[1], chase.Options{})
	if err != nil {
		t.Fatalf("CertainBCQ: %v", err)
	}
	if ok {
		t.Fatalf("dept(ann,ann) is not certain")
	}
}

func TestCertainBCQRejectsNegation(t *testing.T) {
	prog := parser.MustParse(`
p(a).
p(X) -> q(X).
?- p(X), not q(X).
`)
	if _, err := chase.CertainBCQ(prog.Database(), prog.Rules, prog.Queries[0], chase.Options{}); err == nil {
		t.Fatalf("certain answering under TGDs is defined for positive queries")
	}
}

// TestChaseUniversality (property on a fixed family): the restricted
// chase maps homomorphically into every model of (D, Σ).
func TestChaseUniversality(t *testing.T) {
	prog := parser.MustParse(`
r(a,b).
r(X,Y) -> s(Y,Z).
s(X,Y) -> t(X).
`)
	res, err := chase.Run(prog.Database(), prog.Rules, chase.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Build a model by hand (with constants as witnesses).
	model := logic.StoreOf(
		logic.A("r", logic.C("a"), logic.C("b")),
		logic.A("s", logic.C("b"), logic.C("w")),
		logic.A("t", logic.C("b")),
	)
	if !logic.IsModel(prog.Rules, model) {
		t.Fatalf("hand-built interpretation is not a model")
	}
	if !logic.MapsTo(res.Instance.Atoms(), model) {
		t.Fatalf("chase must map into every model (universality)")
	}
}

func TestBudgetForStableSearch(t *testing.T) {
	prog := parser.MustParse(`
person(alice).
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).
`)
	b := chase.BudgetForStableSearchCtx(context.Background(), prog.Database(), prog.Rules, []logic.Term{logic.C("bob")}, 0)
	if b < 5 {
		t.Fatalf("budget %d too small to hold any stable model", b)
	}
	// Non-terminating Σ⁺ falls back to the cap.
	bad := parser.MustParse(`
node(a).
node(X) -> succ(X,Y).
succ(X,Y) -> node(Y).
`)
	b2 := chase.BudgetForStableSearchCtx(context.Background(), bad.Database(), bad.Rules, nil, 512)
	if b2 != 512 {
		t.Fatalf("cap fallback = %d, want 512", b2)
	}
}
