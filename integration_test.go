package ntgd_test

import (
	"context"
	"testing"

	"ntgd"
)

// TestPublicAPIQuickstart exercises the documented quick-start path
// end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	prog, err := ntgd.Parse(`
person(alice).
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).
?- person(X), not abnormal(X).
?- person(alice), not hasFather(alice,bob).
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rep := ntgd.Classify(prog)
	if !rep.WeaklyAcyclic {
		t.Fatalf("father program is weakly acyclic: %s", rep)
	}
	ctx := context.Background()
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{})
	models, err := collectModels(ctx, s)
	if err != nil {
		t.Fatalf("Models: %v", err)
	}
	if len(models) != 2 {
		t.Fatalf("models = %d, want 2", len(models))
	}
	v, err := s.Entails(ctx, prog.Queries[0], ntgd.Cautious)
	if err != nil || !v.Entailed {
		t.Fatalf("q1 should be cautiously entailed (err=%v)", err)
	}
	v, err = s.Entails(ctx, prog.Queries[1], ntgd.Cautious)
	if err != nil || v.Entailed {
		t.Fatalf("q2 must not be entailed under the SO semantics (err=%v)", err)
	}
}

// TestSemanticsComparisonMatrix is the E1/E2 experiment as a test: the
// three semantics disagree exactly as the paper's introduction
// describes on q = ¬hasFather(alice,bob).
func TestSemanticsComparisonMatrix(t *testing.T) {
	prog := ntgd.MustParse(`
person(alice).
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).
?- person(alice), not hasFather(alice,bob).
`)
	q := prog.Queries[0]
	want := map[ntgd.Semantics]bool{
		ntgd.SO:          false, // intended answer
		ntgd.LP:          true,  // Skolemization loses the bob model
		ntgd.Operational: true,  // fresh-nulls-only loses it too
	}
	for sem, expect := range want {
		v, err := ntgd.MustCompile(prog, ntgd.CompileOptions{Semantics: sem}).Entails(context.Background(), q, ntgd.Cautious)
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if v.Entailed != expect {
			t.Fatalf("%v: entailed=%v, want %v", sem, v.Entailed, expect)
		}
	}
	// EFWFS gives the intended answer on this query (Example 2) …
	efwfs, err := ntgd.EFWFSEntails(prog, q, 1, 1)
	if err != nil {
		t.Fatalf("efwfs: %v", err)
	}
	if efwfs {
		t.Fatalf("EFWFS should not entail ¬hasFather(alice,bob)")
	}
}

// TestTheorem18DisjunctionAddsNothing: a disjunctive program and its
// Lemma 13 elimination agree through the public API.
func TestTheorem18DisjunctionAddsNothing(t *testing.T) {
	prog := ntgd.MustParse(`
node(a). node(b). edge(a,b).
node(X) -> red(X) | green(X).
edge(X,Y), red(X), red(Y) -> clash.
edge(X,Y), green(X), green(Y) -> clash.
?- clash.
`)
	q := prog.Queries[0]
	elim, err := ntgd.EliminateDisjunction(prog)
	if err != nil {
		t.Fatalf("EliminateDisjunction: %v", err)
	}
	orig := ntgd.MustCompile(prog, ntgd.CompileOptions{})
	elimSolver := ntgd.MustCompile(elim, ntgd.CompileOptions{})
	for _, mode := range []ntgd.Mode{ntgd.Cautious, ntgd.Brave} {
		a, err := orig.Entails(context.Background(), q, mode)
		if err != nil {
			t.Fatalf("original %v: %v", mode, err)
		}
		b, err := elimSolver.Entails(context.Background(), q, mode)
		if err != nil {
			t.Fatalf("eliminated %v: %v", mode, err)
		}
		if a.Entailed != b.Entailed {
			t.Fatalf("%v: disagreement %v vs %v", mode, a.Entailed, b.Entailed)
		}
	}
}

// TestFormulasRendered: the SM and MM formulas for the Section 3.2
// program render and differ exactly on the starred negation.
func TestFormulasRendered(t *testing.T) {
	prog := ntgd.MustParse(`
p(0).
p(X), not t(X) -> r(X).
r(X) -> t(X).
`)
	sm := ntgd.SMFormula(prog)
	mm := ntgd.MMFormula(prog)
	if sm == mm {
		t.Fatalf("SM and MM must differ")
	}
	if len(sm) == 0 || len(mm) == 0 {
		t.Fatalf("formulas should render")
	}
}

// TestChasePublicAPI: the restricted chase is reachable from the
// public API.
func TestChasePublicAPI(t *testing.T) {
	prog := ntgd.MustParse(`
emp(ann).
emp(X) -> dept(X,D).
`)
	inst, err := ntgd.Chase(prog)
	if err != nil {
		t.Fatalf("Chase: %v", err)
	}
	if inst.CountPred("dept") != 1 {
		t.Fatalf("chase should invent one dept atom: %s", inst.CanonicalString())
	}
}
