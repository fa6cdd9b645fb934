package transform_test

import (
	"context"
	"testing"

	"ntgd/internal/asp"
	"ntgd/internal/classify"
	"ntgd/internal/core"
	"ntgd/internal/engine"
	"ntgd/internal/ground"
	"ntgd/internal/logic"
	"ntgd/internal/parser"
	"ntgd/internal/transform"
)

// entails compiles (db, rules) under the SO semantics and decides q
// bravely or cautiously.
func entails(t *testing.T, db *logic.FactStore, rules []*logic.Rule, q logic.Query, brave bool) bool {
	t.Helper()
	c, err := core.Compile(db, rules, core.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	decide := engine.CautiousEntails
	if brave {
		decide = engine.BraveEntails
	}
	res, err := decide(context.Background(), c, engine.Params{}, q)
	if err != nil {
		t.Fatalf("brave=%v %s on %v: %v", brave, q, rules, err)
	}
	return res.Entailed
}

// agreeOnQuery checks that the original disjunctive program and its Lemma 13
// elimination give the same verdict on a query, both cautiously and
// bravely.
func agreeOnQuery(t *testing.T, src, query string) {
	t.Helper()
	prog := parser.MustParse(src)
	q := parser.MustParse(query).Queries[0]
	db := prog.Database()

	elim, err := transform.EliminateDisjunction(db, prog.Rules)
	if err != nil {
		t.Fatalf("EliminateDisjunction: %v", err)
	}
	for _, r := range elim.Rules {
		if r.IsDisjunctive() {
			t.Fatalf("elimination left a disjunctive rule: %s", r)
		}
	}

	for _, brave := range []bool{false, true} {
		orig := entails(t, db, prog.Rules, q, brave)
		tran := entails(t, elim.DB, elim.Rules, q, brave)
		if orig != tran {
			t.Fatalf("brave=%v disagreement on %q: original=%v translated=%v", brave, query, orig, tran)
		}
	}
}

func TestLemma13SimpleGuess(t *testing.T) {
	src := `
node(a). node(b).
edge(a,b).
node(X) -> red(X) | green(X).
edge(X,Y), red(X), red(Y) -> clash.
edge(X,Y), green(X), green(Y) -> clash.
`
	agreeOnQuery(t, src, "?- red(a).")
	agreeOnQuery(t, src, "?- clash.")
	agreeOnQuery(t, src, "?- node(a), not clash.")
}

func TestLemma13WithExistentialDisjunct(t *testing.T) {
	// Example 5's shape: disjunction mixed with an existential rule.
	src := `
r(a).
p(X) -> s(X,Y).
r(X) -> p(X) | s(X,X).
`
	agreeOnQuery(t, src, "?- s(a,a).")
	agreeOnQuery(t, src, "?- p(a).")
	agreeOnQuery(t, src, "?-[X] r(X), p(X).")
}

func TestLemma13WithNegation(t *testing.T) {
	src := `
item(a). item(b).
item(X), not sold(X) -> kept(X) | gifted(X).
gifted(X) -> happy.
`
	agreeOnQuery(t, src, "?- happy.")
	agreeOnQuery(t, src, "?- kept(a).")
	agreeOnQuery(t, src, "?- item(a), not gifted(a).")
}

// TestExample5NotWeaklyAcyclic reproduces Example 5: the elimination
// output violates weak-acyclicity (a cycle through a special edge via
// the t_σ predicate), yet remains harmless — Section 6 explains why
// Lemma 13 is still usable.
func TestExample5NotWeaklyAcyclic(t *testing.T) {
	prog := parser.MustParse(`
r(a).
p(X) -> s(X,Y).
r(X) -> p(X) | s(X,X).
`)
	if !classify.IsWeaklyAcyclic(prog.Rules) {
		t.Fatalf("the source program is weakly acyclic")
	}
	elim, err := transform.EliminateDisjunction(prog.Database(), prog.Rules)
	if err != nil {
		t.Fatalf("EliminateDisjunction: %v", err)
	}
	if classify.IsWeaklyAcyclic(elim.Rules) {
		t.Fatalf("Example 5: the translated program should violate weak-acyclicity")
	}
}

// TestTheorem15ThreeWayAgreement runs a DATALOG∨ program through
// (a) the ground disjunctive ASP solver, (b) the native NDTGD engine
// (Theorem 12/18), and (c) the Theorem 15 WATGD¬ translation, and
// checks that all three agree on brave entailment.
func TestTheorem15ThreeWayAgreement(t *testing.T) {
	src := `
node(a). node(b). node(c).
edge(a,b). edge(b,c). edge(a,c).
node(X) -> r(X) | g(X) | b(X).
edge(X,Y), r(X), r(Y) -> w.
edge(X,Y), g(X), g(Y) -> w.
edge(X,Y), b(X), b(Y) -> w.
w, node(X) -> r(X).
w, node(X) -> g(X).
w, node(X) -> b(X).
w -> bad.
`
	prog := parser.MustParse(src)
	db := prog.Database()
	q := logic.Query{Pos: []logic.Atom{logic.A("bad")}}

	// (a) ground disjunctive ASP.
	g, err := ground.Ground(db, ground.Skolemize(prog.Rules), ground.Options{})
	if err != nil {
		t.Fatalf("ground: %v", err)
	}
	braveASP := false
	if err := g.Prog.Validate(); err != nil {
		t.Fatalf("ground program: %v", err)
	}
	if _, err := asp.SolveCtx(context.Background(), g.Prog, asp.SolveOptions{}, func(m asp.Model) bool {
		if q.Holds(g.ModelStore(m)) {
			braveASP = true
			return false
		}
		return true
	}); err != nil {
		t.Fatalf("asp solve: %v", err)
	}

	// (b) native NDTGD engine.
	native := entails(t, db, prog.Rules, q, true)

	// (c) Theorem 15 translation.
	w, err := transform.DatalogToWATGD(transform.DatalogQuery{Rules: prog.Rules, QueryPred: "bad"}, 0)
	if err != nil {
		t.Fatalf("DatalogToWATGD: %v", err)
	}
	qT := logic.Query{Pos: []logic.Atom{logic.A(w.QueryPred)}}
	translated := entails(t, db, w.Rules, qT, true)

	// The triangle is 3-colorable, so no stable model contains w.
	if braveASP || native || translated {
		t.Fatalf("triangle is 3-colorable: asp=%v native=%v watgd=%v (all should be false)",
			braveASP, native, translated)
	}
}

// TestTheorem15AgreementUncolorable repeats the three-way agreement on
// a 2-color triangle, where saturation wins and bad is bravely
// entailed.
func TestTheorem15AgreementUncolorable(t *testing.T) {
	src := `
node(a). node(b). node(c).
edge(a,b). edge(b,c). edge(a,c).
node(X) -> r(X) | g(X).
edge(X,Y), r(X), r(Y) -> w.
edge(X,Y), g(X), g(Y) -> w.
w, node(X) -> r(X).
w, node(X) -> g(X).
w -> bad.
`
	prog := parser.MustParse(src)
	db := prog.Database()
	q := logic.Query{Pos: []logic.Atom{logic.A("bad")}}

	if !entails(t, db, prog.Rules, q, true) {
		t.Fatalf("triangle is not 2-colorable: native engine should bravely entail bad")
	}

	w, err := transform.DatalogToWATGD(transform.DatalogQuery{Rules: prog.Rules, QueryPred: "bad"}, 0)
	if err != nil {
		t.Fatalf("DatalogToWATGD: %v", err)
	}
	if !classify.IsWeaklyAcyclic(w.Rules) {
		t.Fatalf("Theorem 15 translation must be weakly acyclic")
	}
	qT := logic.Query{Pos: []logic.Atom{logic.A(w.QueryPred)}}
	if !entails(t, db, w.Rules, qT, true) {
		t.Fatalf("translated program should bravely entail the answer predicate")
	}
}
