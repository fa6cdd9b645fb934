package lp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ntgd/internal/parser"
)

// TestTheorem20DisjunctiveSkolemized: footnote 6 extends Theorem 1 to
// NDTGDs — on Skolemized (here existential-free) disjunctive programs
// the LP pipeline (ground disjunctive ASP with SAT minimality) and the
// native SO engine produce the same stable models.
func TestTheorem20DisjunctiveSkolemized(t *testing.T) {
	programs := []string{
		// Plain guess.
		`n(a). n(b). n(X) -> r(X) | g(X).`,
		// Guess + saturation (non-head-cycle-free behaviour).
		`n(a).
n(X) -> r(X) | g(X).
r(X) -> m.
g(X) -> m.
m, n(X) -> r(X).
m, n(X) -> g(X).`,
		// Disjunction interacting with negation.
		`item(a). item(b).
item(X), not sold(X) -> kept(X) | gifted(X).
gifted(X) -> happy.`,
		// Conjunctive disjuncts.
		`p(a). p(X) -> q(X), r(X) | s(X).`,
	}
	for i, src := range programs {
		src := src
		t.Run(fmt.Sprintf("program%d", i), func(t *testing.T) {
			prog := parser.MustParse(src)
			lpModels, soModels := lpAndSOModels(t, prog.Database(), prog.Rules)
			lpSet := map[string]bool{}
			for _, m := range lpModels {
				lpSet[m.CanonicalString()] = true
			}
			if len(lpSet) != len(soModels) {
				t.Fatalf("model counts differ: lp=%d so=%d on %q", len(lpSet), len(soModels), src)
			}
			for _, m := range soModels {
				if !lpSet[m.CanonicalString()] {
					t.Fatalf("SO model missing from LP: %s", m.CanonicalString())
				}
			}
		})
	}
}

// TestTheorem20Random extends the agreement check to random
// existential-free disjunctive programs.
func TestTheorem20Random(t *testing.T) {
	if testing.Short() {
		t.Skip("random disjunctive agreement is slow")
	}
	rng := rand.New(rand.NewSource(55))
	preds := []string{"p0", "p1", "p2"}
	consts := []string{"c0", "c1"}
	for iter := 0; iter < 20; iter++ {
		src := ""
		for i := 0; i < 1+rng.Intn(2); i++ {
			src += fmt.Sprintf("%s(%s).\n", preds[rng.Intn(len(preds))], consts[rng.Intn(len(consts))])
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			body := fmt.Sprintf("%s(X)", preds[rng.Intn(len(preds))])
			if rng.Intn(3) == 0 {
				body += fmt.Sprintf(", not %s(X)", preds[rng.Intn(len(preds))])
			}
			head := fmt.Sprintf("%s(X)", preds[rng.Intn(len(preds))])
			if rng.Intn(2) == 0 {
				head += fmt.Sprintf(" | %s(X)", preds[rng.Intn(len(preds))])
			}
			src += fmt.Sprintf("%s -> %s.\n", body, head)
		}
		prog, err := parser.Parse(src)
		if err != nil {
			continue
		}
		lpModels, soModels := lpAndSOModels(t, prog.Database(), prog.Rules)
		lpSet := map[string]bool{}
		for _, m := range lpModels {
			lpSet[m.CanonicalString()] = true
		}
		soSet := map[string]bool{}
		for _, m := range soModels {
			soSet[m.CanonicalString()] = true
		}
		if len(lpSet) != len(soSet) {
			t.Fatalf("iter %d: lp=%d so=%d on\n%s", iter, len(lpSet), len(soSet), src)
		}
		for k := range lpSet {
			if !soSet[k] {
				t.Fatalf("iter %d: LP model %s missing from SO on\n%s", iter, k, src)
			}
		}
	}
}
