package ground_test

import (
	"errors"
	"strings"
	"testing"

	"ntgd/internal/engine"
	"ntgd/internal/ground"
	"ntgd/internal/logic"
	"ntgd/internal/parser"
)

func TestSkolemizeShape(t *testing.T) {
	prog := parser.MustParse(`
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
`)
	sk := ground.Skolemize(prog.Rules)
	if !ground.IsSkolemized(sk) {
		t.Fatalf("output still has existentials")
	}
	// Rule 1: head hasFather(X, sk_r1_Y(X)).
	head := sk[0].Heads[0][0]
	if head.Args[1].Kind != logic.Func {
		t.Fatalf("expected Skolem term, got %v", head.Args[1])
	}
	if !strings.Contains(head.Args[1].Name, "r1") || len(head.Args[1].Args) != 1 {
		t.Fatalf("Skolem term should be sk_r1_Y(X), got %v", head.Args[1])
	}
	// Rule 2 has no existentials and is shared unchanged.
	if sk[1] != prog.Rules[1] {
		t.Fatalf("existential-free rules should be passed through")
	}
}

func TestSkolemizeDisjunctivePerDisjunct(t *testing.T) {
	prog := parser.MustParse(`r(X) -> p(X,Y) | q(X,Z).`)
	sk := ground.Skolemize(prog.Rules)
	p := sk[0].Heads[0][0].Args[1]
	q := sk[0].Heads[1][0].Args[1]
	if p.Kind != logic.Func || q.Kind != logic.Func || p.Name == q.Name {
		t.Fatalf("disjuncts must get distinct Skolem functions: %v vs %v", p, q)
	}
}

func TestSkolemFunctionTakesAllUniversals(t *testing.T) {
	// The paper Skolemizes over X *and* Y (all universal variables).
	prog := parser.MustParse(`p(X), q(X,Y) -> r(X,Z).`)
	sk := ground.Skolemize(prog.Rules)
	z := sk[0].Heads[0][0].Args[1]
	if len(z.Args) != 2 {
		t.Fatalf("Skolem term should take both X and Y: %v", z)
	}
}

func TestGroundRelevantInstantiation(t *testing.T) {
	prog := parser.MustParse(`
p(a). p(b).
p(X) -> q(X).
q(X), not r(X) -> s(X).
`)
	g, err := ground.Ground(prog.Database(), ground.Skolemize(prog.Rules), ground.Options{})
	if err != nil {
		t.Fatalf("Ground: %v", err)
	}
	// Base: p(a), p(b), q(a), q(b), s(a), s(b) — r is never derivable.
	if g.Base.Len() != 6 {
		t.Fatalf("derivable base = %d atoms, want 6", g.Base.Len())
	}
	// r(X) never derivable → the negative literal is dropped.
	for _, r := range g.Prog.Rules {
		if len(r.Neg) != 0 {
			t.Fatalf("vacuously true negative literal should be dropped")
		}
	}
	if _, ok := atomID(g, logic.A("q", logic.C("a"))); !ok {
		t.Fatalf("q(a) should be in the base")
	}
	if _, ok := atomID(g, logic.A("r", logic.C("a"))); ok {
		t.Fatalf("r(a) must not be in the base")
	}
}

func TestGroundKeepsRelevantNegatives(t *testing.T) {
	prog := parser.MustParse(`
p(a).
p(X), not q(X) -> s(X).
p(X), not s(X) -> q(X).
`)
	g, err := ground.Ground(prog.Database(), prog.Rules, ground.Options{})
	if err != nil {
		t.Fatalf("Ground: %v", err)
	}
	negs := 0
	for _, r := range g.Prog.Rules {
		negs += len(r.Neg)
	}
	if negs != 2 {
		t.Fatalf("both negative literals are relevant, kept %d", negs)
	}
}

func TestGroundRejectsExistentials(t *testing.T) {
	prog := parser.MustParse(`p(a). p(X) -> q(X,Y).`)
	if _, err := ground.Ground(prog.Database(), prog.Rules, ground.Options{}); err == nil {
		t.Fatalf("grounding requires Skolemized input")
	}
}

func TestGroundBudget(t *testing.T) {
	// Skolemized non-WA program has an infinite Herbrand expansion.
	prog := parser.MustParse(`
node(a).
node(X) -> succ(X,Y).
succ(X,Y) -> node(Y).
`)
	sk := ground.Skolemize(prog.Rules)
	if _, err := ground.Ground(prog.Database(), sk, ground.Options{MaxAtoms: 64}); err == nil {
		t.Fatalf("expected budget error")
	}
}

// TestGroundTermSizeBudget: nested Skolem terms whose keys grow
// quadratically (the first program) or like Fibonacci numbers (the
// other two) stop at the term-size bound, 256 bytes per MaxAtoms, long
// before MaxAtoms atoms, with an ErrBudget that is an engine.ErrBudget.
func TestGroundTermSizeBudget(t *testing.T) {
	for _, src := range []string{
		"p(a). p(X) -> q(X,Y). q(X,Y) -> p(Y).",
		"e(a,b). e(X,Y) -> e(Y,Z).",
		"p(a,b). p(X,Y) -> p(Y,Z).",
	} {
		prog := parser.MustParse(src)
		_, err := ground.Ground(prog.Database(), ground.Skolemize(prog.Rules), ground.Options{MaxAtoms: 4096})
		if !errors.Is(err, ground.ErrBudget) || !errors.Is(err, engine.ErrBudget) {
			t.Fatalf("%s: err = %v, want ErrBudget", src, err)
		}
		if !strings.Contains(err.Error(), "term keys") {
			t.Fatalf("%s: err = %v, want the term-size bound", src, err)
		}
	}
}

func TestModelStoreRoundTrip(t *testing.T) {
	prog := parser.MustParse(`
p(a).
p(X) -> q(X).
`)
	g, err := ground.Ground(prog.Database(), prog.Rules, ground.Options{})
	if err != nil {
		t.Fatalf("Ground: %v", err)
	}
	idP, _ := atomID(g, logic.A("p", logic.C("a")))
	idQ, _ := atomID(g, logic.A("q", logic.C("a")))
	st := g.ModelStore([]int{idP, idQ})
	if !st.Has(logic.A("q", logic.C("a"))) || st.Len() != 2 {
		t.Fatalf("ModelStore wrong: %s", st.CanonicalString())
	}
}

// atomID finds a ground atom's id in the grounding's atom table.
func atomID(g *ground.Grounding, a logic.Atom) (int, bool) {
	return g.Base.IndexOfAtom(a)
}
