package classify_test

import (
	"strings"
	"testing"

	"ntgd/internal/classify"
	"ntgd/internal/parser"
)

// Figure 1 of the paper: the first set is sticky, the second is not
// (the marked join variable Y occurs twice in the body of the second
// rule).
const fig1StickySet = `
t(X,Y,Z) -> s(Y,W).
r(X,Y), p(Y,Z) -> t(X,Y,W).
`

const fig1NonStickySet = `
t(X,Y,Z) -> s(X,W).
r(X,Y), p(Y,Z) -> t(X,Y,W).
`

// TestFigure1Marking regenerates Figure 1: the marking procedure and
// the sticky / non-sticky verdicts.
func TestFigure1Marking(t *testing.T) {
	sticky := parser.MustParse(fig1StickySet).Rules
	if !classify.IsSticky(sticky) {
		m := classify.MarkVariables(sticky)
		t.Fatalf("Figure 1(a), first set: should be sticky.\n%s", m)
	}

	nonSticky := parser.MustParse(fig1NonStickySet).Rules
	m := classify.MarkVariables(nonSticky)
	viol := m.Violations()
	if len(viol) == 0 {
		t.Fatalf("Figure 1(a), second set: should NOT be sticky.\n%s", m)
	}
	// The violation is Y in the second rule (Y is marked through the
	// propagation step and occurs twice in r(X,Y), p(Y,Z)).
	if viol[0].Rule != "r2" || viol[0].Variable != "Y" {
		t.Fatalf("expected violation r2/Y, got %+v", viol)
	}
	// Figure 1(b)'s propagation: in the second set, the body variables
	// Y and Z of r2 are marked, and X of r1 is marked (base step).
	if !m.MarkedVars["r1"]["Y"] || !m.MarkedVars["r1"]["Z"] {
		t.Fatalf("r1: Y and Z should be base-marked: %v", m.MarkedVars["r1"])
	}
	if !m.MarkedVars["r2"]["Y"] {
		t.Fatalf("r2: Y should be marked by propagation: %v", m.MarkedVars["r2"])
	}
}

func TestWeakAcyclicity(t *testing.T) {
	wa := parser.MustParse(`
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
`).Rules
	if !classify.IsWeaklyAcyclic(wa) {
		t.Fatalf("the father program is weakly acyclic")
	}
	notWA := parser.MustParse(`
p(X) -> q(X,Y).
q(X,Y) -> p(Y).
`).Rules
	if classify.IsWeaklyAcyclic(notWA) {
		t.Fatalf("p→∃q, q→p cycles through a special edge")
	}
	// Regular cycles are fine.
	regular := parser.MustParse(`
e(X,Y) -> t(X,Y).
t(X,Y), e(Y,Z) -> t(X,Z).
`).Rules
	if !classify.IsWeaklyAcyclic(regular) {
		t.Fatalf("transitive closure has no special edges")
	}
}

func TestRanks(t *testing.T) {
	rules := parser.MustParse(`
a(X) -> b(X,Y).
b(X,Y) -> c(Y,Z).
`).Rules
	g := classify.BuildPositionGraph(rules)
	ranks, ok := g.Ranks()
	if !ok {
		t.Fatalf("weakly acyclic set must have finite ranks")
	}
	// a[1] rank 0; b[2] rank 1 (one special edge); c[2] rank 2.
	checks := map[classify.Position]int{
		{Pred: "a", Idx: 1}: 0,
		{Pred: "b", Idx: 2}: 1,
		{Pred: "c", Idx: 2}: 2,
	}
	for pos, want := range checks {
		if got := ranks[pos]; got != want {
			t.Errorf("rank(%s) = %d, want %d", pos, got, want)
		}
	}
	if rep := classify.Classify(rules); !rep.WeaklyAcyclic || rep.MaxRank != 2 {
		t.Errorf("Classify: weakly acyclic %v, MaxRank %d, want true and 2", rep.WeaklyAcyclic, rep.MaxRank)
	}
}

func TestGuardedness(t *testing.T) {
	guarded := parser.MustParse(`
g(X,Y), p(X), not q(Y) -> r(X).
person(X) -> hasFather(X,Y).
`).Rules
	if !classify.Classify(guarded).Guarded {
		t.Fatalf("set should be guarded")
	}
	if a, ok := classify.GuardOf(guarded[0]); !ok || a.Pred != "g" {
		t.Fatalf("guard should be g(X,Y), got %v/%v", a, ok)
	}
	unguarded := parser.MustParse(`
p(X), q(Y) -> r(X,Y).
`).Rules
	if classify.Classify(unguarded).Guarded {
		t.Fatalf("cartesian product rule is unguarded")
	}
}

// TestTheorem4and5Gadgets: the grid-building gadget families used by
// the undecidability proofs are accepted by the respective syntactic
// classes — sticky sets can express cartesian products, and guarded
// sets can grow unbounded guards.
func TestTheorem4and5Gadgets(t *testing.T) {
	stickyGrid := parser.MustParse(`
p(X), s(Y) -> t(X,Y).
t(X,Y) -> p(X).
`).Rules
	if !classify.IsSticky(stickyGrid) {
		t.Fatalf("the cartesian-product gadget must be sticky")
	}
	if classify.IsWeaklyAcyclic(parser.MustParse(`
node(X) -> succ(X,Y).
succ(X,Y) -> node(Y).
`).Rules) {
		t.Fatalf("the unbounded-successor gadget must violate weak-acyclicity")
	}
	guardedGrow := parser.MustParse(`
g(X,Y), not stop(Y) -> g(Y,Z).
`).Rules
	if !classify.Classify(guardedGrow).Guarded {
		t.Fatalf("the growing-guard gadget must be guarded")
	}
}

func TestClassifyReport(t *testing.T) {
	rules := parser.MustParse(`
person(X) -> hasFather(X,Y).
hasFather(X,Y), not sameAs(Y,Y) -> abnormal(X).
`).Rules
	rep := classify.Classify(rules)
	if !rep.WeaklyAcyclic || !rep.HasNegation || !rep.HasExistentials || rep.Disjunctive {
		t.Fatalf("report flags wrong: %+v", rep)
	}
	if got := rep.Class(); got != "WATGD¬" {
		t.Fatalf("Class() = %q", got)
	}
	if !strings.Contains(rep.String(), "weakly acyclic: true") {
		t.Fatalf("String() = %q", rep.String())
	}
}

func TestPositionGraphEdges(t *testing.T) {
	rules := parser.MustParse(`t(X) -> u(X,Y).`).Rules
	g := classify.BuildPositionGraph(rules)
	var regular, special int
	for _, e := range g.Edges {
		if e.Special {
			special++
		} else {
			regular++
		}
	}
	// X: t[1] -> u[1] regular; t[1] -> u[2] special.
	if regular != 1 || special != 1 {
		t.Fatalf("edges: regular=%d special=%d, want 1/1", regular, special)
	}
}

// TestDisjunctionMergedForClassification: Σ⁺,∧ merges disjuncts.
func TestDisjunctionMergedForClassification(t *testing.T) {
	rules := parser.MustParse(`p(X) -> q(X) | r(X,Y).`).Rules
	g := classify.BuildPositionGraph(rules)
	found := false
	for _, e := range g.Edges {
		if e.Special && e.To.Pred == "r" && e.To.Idx == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("special edge into r[2] expected from the merged head")
	}
}
