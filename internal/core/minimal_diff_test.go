package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ntgd/internal/logic"
)

// Pins the compiled bitmask model-subset search (compileModelCheck)
// behind IsMinimalModel to the original
// one-homomorphism-search-per-subset oracle.

// randNDProgram generates a small database, candidate universe, and
// rule set exercising negation, repeated variables, constants, head
// existentials and disjunction.
func randNDProgram(rng *rand.Rand) (db, universe *logic.FactStore, rules []*logic.Rule) {
	consts := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c")}
	randConst := func() logic.Term { return consts[rng.Intn(len(consts))] }
	db = logic.NewFactStore()
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		db.Add(logic.A("b", randConst()))
	}
	universe = db.Clone()
	for i, n := 0, rng.Intn(6); i < n; i++ {
		if rng.Intn(2) == 0 {
			universe.Add(logic.A("p", randConst()))
		} else {
			universe.Add(logic.A("q", randConst(), randConst()))
		}
	}
	vars := []string{"X", "Y"}
	nrules := 1 + rng.Intn(3)
	for i := 0; i < nrules; i++ {
		var body []logic.Literal
		body = append(body, logic.Pos(logic.A("b", logic.V("X"))))
		switch rng.Intn(4) {
		case 0:
			body = append(body, logic.Pos(logic.A("q", logic.V("X"), logic.V("X")))) // repeated var
		case 1:
			body = append(body, logic.Neg(logic.A("p", logic.V("X")))) // negation
		case 2:
			body = append(body, logic.Pos(logic.A("q", logic.V("X"), randConst()))) // constant
		}
		r := &logic.Rule{Label: fmt.Sprintf("m%d", i), Body: body}
		switch rng.Intn(3) {
		case 0:
			r.Heads = [][]logic.Atom{{logic.A("p", logic.V(vars[rng.Intn(2)]))}} // maybe existential head
		case 1:
			r.Heads = [][]logic.Atom{
				{logic.A("p", logic.V("X"))},
				{logic.A("q", logic.V("X"), logic.V("X"))},
			} // disjunction
		default:
			r.Heads = [][]logic.Atom{{logic.A("q", logic.V("X"), logic.V("Y"))}} // existential Y
		}
		rules = append(rules, r)
	}
	return db, universe, rules
}

func TestIsMinimalModelMatchesNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	agree, minimalSeen := 0, 0
	for trial := 0; trial < 200; trial++ {
		db, universe, rules := randNDProgram(rng)
		got := IsMinimalModel(db, rules, universe)
		want := isMinimalModelNaive(db, rules, universe)
		if got != want {
			t.Fatalf("trial %d: IsMinimalModel=%v naive=%v\ndb: %s\nuniverse: %s\nrules: %v",
				trial, got, want, db.CanonicalString(), universe.CanonicalString(), rules)
		}
		agree++
		if got {
			minimalSeen++
		}
	}
	if minimalSeen == 0 {
		t.Fatalf("degenerate test: no minimal model among %d trials", agree)
	}
}
