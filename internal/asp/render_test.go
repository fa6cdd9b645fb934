package asp

import (
	"context"
	"strings"
	"testing"
)

func TestProgramString(t *testing.T) {
	p := &Program{
		NAtoms: 3,
		Names:  []string{"a", "b", "c"},
		Rules: []Rule{
			{Disjuncts: [][]int{{0}}},                     // a.
			{Disjuncts: [][]int{{1}, {2}}, Pos: []int{0}}, // b | c :- a.
			{Pos: []int{1}, Neg: []int{2}},                // :- b, not c.
			{Disjuncts: [][]int{{1, 2}}, Neg: []int{0}},   // b, c :- not a.
		},
	}
	s := p.String()
	for _, frag := range []string{"a.", "b | c :- a.", ":- b, not c.", "b, c :- not a."} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() missing %q:\n%s", frag, s)
		}
	}
}

func TestAtomNameFallback(t *testing.T) {
	p := &Program{NAtoms: 2, Names: []string{"x", ""}}
	if p.AtomName(0) != "x" || p.AtomName(1) != "a1" {
		t.Fatalf("AtomName fallback wrong: %q %q", p.AtomName(0), p.AtomName(1))
	}
}

func TestModelHelpers(t *testing.T) {
	m := NewModel([]int{3, 1, 2})
	if !m.Equal(NewModel([]int{1, 2, 3})) || m.Equal(NewModel([]int{1, 2})) {
		t.Fatalf("Equal wrong")
	}
}

func TestRuleClassifiers(t *testing.T) {
	if !(Rule{Pos: []int{0}}).IsConstraint() {
		t.Fatalf("constraint not recognized")
	}
}

func TestSolverNodeBudget(t *testing.T) {
	// A large choice program with a 1-node budget must report
	// ErrBudget.
	p := choiceProgram(10)
	_, err := SolveCtx(context.Background(), p, SolveOptions{MaxNodes: 1}, func(Model) bool { return true })
	if err != ErrBudget {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}
