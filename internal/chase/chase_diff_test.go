package chase

import (
	"fmt"
	"math/rand"
	"testing"

	"ntgd/internal/logic"
)

// This file pins the semi-naive chase (Run, delta-seeded trigger
// detection via logic.FindHomsFrom) to the recompute-everything oracle
// (runNaive) on randomized terminating programs and databases. The two
// engines may enumerate a round's triggers in different orders, so
// instances are compared up to homomorphic equivalence (the standard
// chase-equivalence notion); for the oblivious chase, which applies
// every trigger exactly once, the trigger count and instance size must
// also agree exactly.

// randTGDProgram generates a terminating set of plain TGDs over a
// layered vocabulary: base predicate e/2 plus derived d0..d3 (arity 2).
// Datalog rules only feed lower layers into strictly higher ones, and
// rules with an existential head variable target the sink predicate
// out/2 (never used in a body), so every chase reaches a fixpoint.
func randTGDProgram(rng *rand.Rand) (db *logic.FactStore, rules []*logic.Rule) {
	db = logic.NewFactStore()
	nconst := 3 + rng.Intn(4)
	for i, n := 0, 4+rng.Intn(8); i < n; i++ {
		db.Add(logic.A("e",
			logic.C(fmt.Sprintf("c%d", rng.Intn(nconst))),
			logic.C(fmt.Sprintf("c%d", rng.Intn(nconst)))))
	}
	vars := []string{"X", "Y", "Z"}
	layerPred := func(layer int) string {
		if layer == 0 {
			return "e"
		}
		return fmt.Sprintf("d%d", layer-1)
	}
	nrules := 2 + rng.Intn(4)
	for i := 0; i < nrules; i++ {
		headLayer := 1 + rng.Intn(4)
		var body []logic.Literal
		for k, n := 0, 1+rng.Intn(2); k < n; k++ {
			body = append(body, logic.Pos(logic.A(
				layerPred(rng.Intn(headLayer)),
				logic.V(vars[rng.Intn(len(vars))]),
				logic.V(vars[rng.Intn(len(vars))]))))
		}
		bodyVars := logic.VarSet()
		for _, l := range body {
			for v := range logic.VarSet(l.Atom) {
				bodyVars[v] = true
			}
		}
		pick := func() logic.Term {
			for _, v := range vars {
				if bodyVars[v] {
					return logic.V(v)
				}
			}
			return logic.C("c0")
		}
		var head logic.Atom
		if rng.Intn(4) == 0 {
			// Existential rule into the sink: W is fresh.
			head = logic.A("out", pick(), logic.V("W"))
		} else {
			args := []logic.Term{pick(), pick()}
			if bodyVars["Y"] {
				args[1] = logic.V("Y")
			}
			head = logic.A(layerPred(headLayer), args[0], args[1])
		}
		rules = append(rules, logic.NewRule(fmt.Sprintf("r%d", i), body, []logic.Atom{head}))
	}
	return db, rules
}

func homEquivalent(a, b *logic.FactStore) bool {
	return logic.MapsTo(a.Atoms(), b) && logic.MapsTo(b.Atoms(), a)
}

func TestSemiNaiveChaseMatchesNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	runs, skipped := 0, 0
	for trial := 0; trial < 150; trial++ {
		db, rules := randTGDProgram(rng)
		for _, variant := range []Variant{Restricted, Oblivious} {
			opt := Options{Variant: variant, MaxAtoms: 4096, MaxRounds: 64}
			got, errGot := Run(db, rules, opt)
			want, errWant := runNaive(db, rules, opt)
			runs++
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("trial %d %v: error divergence: semi-naive=%v naive=%v", trial, variant, errGot, errWant)
			}
			if errGot != nil {
				skipped++
				continue // both hit the budget; partial instances are order-dependent
			}
			if !homEquivalent(got.Instance, want.Instance) {
				t.Fatalf("trial %d %v: instances not homomorphically equivalent\nsemi-naive (%d): %s\nnaive (%d): %s",
					trial, variant, got.Instance.Len(), got.Instance.CanonicalString(),
					want.Instance.Len(), want.Instance.CanonicalString())
			}
			if variant == Oblivious {
				if got.Applications != want.Applications || got.Instance.Len() != want.Instance.Len() {
					t.Fatalf("trial %d oblivious: applications %d vs %d, size %d vs %d",
						trial, got.Applications, want.Applications,
						got.Instance.Len(), want.Instance.Len())
				}
			}
		}
	}
	failOnSkips(t, skipped, runs)
}

// failOnSkips fails a randomized test in which more than a quarter of
// the runs were skipped, so a regression that pushes every program over
// budget cannot pass vacuously.
func failOnSkips(t *testing.T, skipped, runs int) {
	t.Helper()
	t.Logf("%d of %d runs skipped", skipped, runs)
	if 4*skipped > runs {
		t.Fatalf("%d of %d runs skipped; the property was barely checked", skipped, runs)
	}
}

// TestSemiNaiveChaseDatalogExact: on existential-free programs the
// chase result is a plain least fixpoint, so the two engines must
// agree syntactically, not just up to homomorphism.
func TestSemiNaiveChaseDatalogExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 150; trial++ {
		db, all := randTGDProgram(rng)
		var rules []*logic.Rule
		for _, r := range all {
			if !r.HasExistentials() {
				rules = append(rules, r)
			}
		}
		opt := Options{MaxAtoms: 4096, MaxRounds: 64}
		got, errGot := Run(db, rules, opt)
		want, errWant := runNaive(db, rules, opt)
		if errGot != nil || errWant != nil {
			t.Fatalf("trial %d: unexpected errors %v / %v", trial, errGot, errWant)
		}
		if !got.Instance.Equal(want.Instance) {
			t.Fatalf("trial %d: datalog chase diverges\nsemi-naive: %s\nnaive: %s",
				trial, got.Instance.CanonicalString(), want.Instance.CanonicalString())
		}
	}
}

// TestSemiNaiveTransitiveClosureRounds: a multi-round closure chase
// reaches the same fixpoint with the same round count as the oracle.
func TestSemiNaiveTransitiveClosureRounds(t *testing.T) {
	db := logic.NewFactStore()
	n := 24
	for i := 0; i < n; i++ {
		db.Add(logic.A("e", logic.C(fmt.Sprintf("v%d", i)), logic.C(fmt.Sprintf("v%d", i+1))))
	}
	tc := logic.NewRule("tc",
		[]logic.Literal{logic.Pos(logic.A("e", logic.V("X"), logic.V("Y"))), logic.Pos(logic.A("e", logic.V("Y"), logic.V("Z")))},
		[]logic.Atom{logic.A("e", logic.V("X"), logic.V("Z"))})
	got, err := Run(db, []*logic.Rule{tc}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := runNaive(db, []*logic.Rule{tc}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Instance.Equal(want.Instance) {
		t.Fatalf("closure instances differ: %d vs %d atoms", got.Instance.Len(), want.Instance.Len())
	}
	if wantLen := n * (n + 1) / 2; got.Instance.Len() != wantLen {
		t.Fatalf("closure size = %d, want %d", got.Instance.Len(), wantLen)
	}
	if got.Rounds != want.Rounds {
		t.Fatalf("rounds differ: semi-naive %d vs naive %d", got.Rounds, want.Rounds)
	}
}
