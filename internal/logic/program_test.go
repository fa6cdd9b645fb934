package logic

import (
	"strings"
	"testing"
)

func progFixture() *Program {
	return &Program{
		Facts: []Atom{A("p", C("a")), A("q", C("b"), C("a"))},
		Rules: []*Rule{
			NewRule("r1", []Literal{Pos(A("p", V("X")))}, []Atom{A("s", V("X"), V("Y"))}),
		},
		Queries: []Query{{Pos: []Atom{A("s", V("X"), V("Y"))}}},
	}
}

func TestProgramDatabase(t *testing.T) {
	db := progFixture().Database()
	if db.Len() != 2 || !db.Has(A("p", C("a"))) {
		t.Fatalf("Database wrong: %s", db.CanonicalString())
	}
}

// TestProgramActiveDomain: the active domain of a program is the
// domain of its database, the constants of its facts.
func TestProgramActiveDomain(t *testing.T) {
	dom := progFixture().Database().Domain()
	if len(dom) != 2 || dom[0].Name != "a" || dom[1].Name != "b" {
		t.Fatalf("active domain = %v", dom)
	}
}

func TestProgramStringRendersAll(t *testing.T) {
	s := progFixture().String()
	for _, frag := range []string{"p(a).", "q(b,a).", "p(X) -> s(X,Y).", "?- s(X,Y)."} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() missing %q:\n%s", frag, s)
		}
	}
}

func TestProgramValidateRejectsNullFacts(t *testing.T) {
	p := &Program{Facts: []Atom{A("p", N("n1"))}}
	if err := p.Validate(); err == nil {
		t.Fatalf("null in database must be rejected")
	}
}

func TestQueryConstants(t *testing.T) {
	q := Query{
		Pos: []Atom{A("p", C("a"), V("X"))},
		Neg: []Atom{A("q", C("b"), V("X"))},
	}
	cs := q.Constants()
	if len(cs) != 2 {
		t.Fatalf("Constants = %v", cs)
	}
}

func TestSubstHelpers(t *testing.T) {
	s := Subst{"X": C("a")}
	c := s.Clone()
	c["Y"] = C("b")
	if _, leaked := s["Y"]; leaked {
		t.Fatalf("Clone not isolated")
	}
	l := s.ApplyLiteral(Neg(A("p", V("X"), V("Z"))))
	if !l.Neg || l.Atom.Args[0].Name != "a" || l.Atom.Args[1].Kind != Var {
		t.Fatalf("ApplyLiteral wrong: %v", l)
	}
	if got := s.String(); got != "{X->a}" {
		t.Fatalf("String = %q", got)
	}
}

func TestRenameNulls(t *testing.T) {
	a := A("p", N("n1"), F("f", N("n2")), C("c"))
	out := RenameNulls(a, map[string]string{"n1": "m1", "n2": "m2"})
	if out.Args[0].Name != "m1" || out.Args[1].Args[0].Name != "m2" || out.Args[2].Name != "c" {
		t.Fatalf("RenameNulls wrong: %v", out)
	}
	// Unknown labels survive.
	out2 := RenameNulls(a, map[string]string{})
	if out2.Args[0].Name != "n1" {
		t.Fatalf("unmapped null should be kept")
	}
}

// TestViolationReporting: FirstViolation reports the trigger that no
// head extension satisfies, and nothing once the store is a model.
func TestViolationReporting(t *testing.T) {
	r := NewRule("r", []Literal{Pos(A("p", V("X")))}, []Atom{A("q", V("X"))})
	s := StoreOf(A("p", C("a")), A("p", C("b")), A("q", C("a")))
	v := FirstViolation(r, s)
	if v == nil || v.Rule != r || v.Hom["X"].Name != "b" {
		t.Fatalf("violation = %+v", v)
	}
	s.Add(A("q", C("b")))
	if v := FirstViolation(r, s); v != nil {
		t.Fatalf("model reported violated: %+v", v)
	}
}
