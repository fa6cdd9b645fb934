package parser

import (
	"strings"
	"testing"

	"ntgd/internal/logic"
)

func TestParseFactsRulesQueries(t *testing.T) {
	prog, err := Parse(`
% a comment
person(alice). person(bob).
person(X) -> hasFather(X,Y).        // another comment style
hasFather(X,Y), not sameAs(X,Y) -> abnormal(X).
node(X) -> red(X) | green(X), mark(X) | blue(X).
:- red(X), blue(X).
-> zero(X).
?- person(X), not abnormal(X).
?-[X,Y] hasFather(X,Y).
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(prog.Facts) != 2 {
		t.Fatalf("facts = %d", len(prog.Facts))
	}
	if len(prog.Rules) != 5 {
		t.Fatalf("rules = %d", len(prog.Rules))
	}
	if len(prog.Queries) != 2 {
		t.Fatalf("queries = %d", len(prog.Queries))
	}
	// Disjunct grouping: red(X) | green(X), mark(X) | blue(X) is three
	// disjuncts, the middle one a conjunction.
	disj := prog.Rules[2].Heads
	if len(disj) != 3 || len(disj[1]) != 2 {
		t.Fatalf("head disjuncts wrong: %v", disj)
	}
	if !prog.Rules[3].IsConstraint() {
		t.Fatalf("constraint not recognized")
	}
	if len(prog.Rules[4].Body) != 0 || prog.Rules[4].ExistVars(0)[0] != "X" {
		t.Fatalf("empty-body rule wrong: %v", prog.Rules[4])
	}
	if got := prog.Queries[1].AnswerVars; len(got) != 2 || got[0] != "X" {
		t.Fatalf("answer vars = %v", got)
	}
}

func TestNonGroundFactRejected(t *testing.T) {
	if _, err := Parse(`p(alice, X).`); err == nil {
		t.Fatalf("non-ground fact should be rejected")
	}
}

func TestParseTermKinds(t *testing.T) {
	prog, err := Parse(`p(alice, f(b, g(a)), "quoted name", 42).`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	args := prog.Facts[0].Args
	if args[0].Kind != logic.Const || args[1].Kind != logic.Func ||
		args[2].Kind != logic.Const || args[2].Name != "quoted name" ||
		args[3].Kind != logic.Const || args[3].Name != "42" {
		t.Fatalf("term kinds wrong: %v", args)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{`p(X.`, "expected"},
		{`p(a)`, "expected"},
		{`p(a) -> .`, "predicate"},
		{`p(a), -> q(a).`, "predicate"},
		{`p(a) > q(a).`, "unexpected character"},
		{`p(a) - q(a).`, "'->'"},
		{`p(a) :- q(a).`, ""},
		{`not p(a).`, "negative literal in fact position"},
		{`p(X) -> q(X), not r(X).`, "predicate"}, // negation not allowed in heads
		{`p("unterminated.`, "unterminated"},
		{`p(X), not q(Y) -> r(X).`, "unsafe"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%q: expected error", tc.src)
			continue
		}
		if tc.frag != "" && !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%q: error %q does not mention %q", tc.src, err, tc.frag)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `p(a). p("a,b"). p("X"). "Q"("not", "", "1a", "_u", "é", 007).
p(X), not q(X) -> r(X,Y) | s(X).
:- p(X), not "Q"(X,X,X,X,X,X).
q("X") -> r("X", f("Y")).
?- r(a,Y), not s(a).
`
	prog := MustParse(src)
	again, err := Parse(prog.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", prog.String(), err)
	}
	if prog.String() != again.String() {
		t.Fatalf("round trip unstable:\n%s\nvs\n%s", prog.String(), again.String())
	}
	// The reparse is the same program, not only the same text: quoted
	// names stay constants, and the constraint stays a constraint.
	for i, f := range prog.Facts {
		if f.Key() != again.Facts[i].Key() {
			t.Fatalf("fact %d: %s reparsed as %s", i, f.Key(), again.Facts[i].Key())
		}
	}
	for i, r := range prog.Rules {
		if got, want := again.Rules[i].IsConstraint(), r.IsConstraint(); got != want {
			t.Fatalf("rule %d: constraint %v reparsed as %v", i, want, got)
		}
	}
	if got := again.Rules[2].Heads[0][0].Args[0]; got.Kind != logic.Const || got.Name != "X" {
		t.Fatalf("quoted constant reparsed as %v %q", got.Kind, got.Name)
	}
}

func TestArityConsistencyViaSchema(t *testing.T) {
	prog := MustParse(`p(a). p(a,b).`)
	if _, err := prog.Schema(); err == nil {
		t.Fatalf("arity clash should be reported by Schema")
	}
}

func TestVariableLexing(t *testing.T) {
	prog := MustParse(`p(a). p(X) -> q(X). p(_under) -> r(_under).`)
	if prog.Rules[0].PosBody()[0].Args[0].Kind != logic.Var {
		t.Fatalf("uppercase should lex as variable")
	}
	if prog.Rules[1].PosBody()[0].Args[0].Kind != logic.Var {
		t.Fatalf("underscore-leading should lex as variable")
	}
}
