package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ntgd/internal/classify"
	"ntgd/internal/core"
	"ntgd/internal/logic"
	"ntgd/internal/parser"
)

// randomWAProgram generates a small random weakly-acyclic NTGD program
// (rejection sampling on the weak-acyclicity test) over unary and
// binary predicates.
func randomWAProgram(rng *rand.Rand) *logic.Program {
	for {
		var src string
		consts := []string{"c0", "c1"}
		unary := []string{"u0", "u1", "u2"}
		binary := []string{"b0", "b1"}
		for i := 0; i < 1+rng.Intn(2); i++ {
			src += fmt.Sprintf("%s(%s).\n", unary[rng.Intn(len(unary))], consts[rng.Intn(len(consts))])
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			switch rng.Intn(4) {
			case 0: // existential rule u(X) -> b(X,Y)
				src += fmt.Sprintf("%s(X) -> %s(X,Y).\n", unary[rng.Intn(len(unary))], binary[rng.Intn(len(binary))])
			case 1: // projection b(X,Y) -> u(Y)
				src += fmt.Sprintf("%s(X,Y) -> %s(Y).\n", binary[rng.Intn(len(binary))], unary[rng.Intn(len(unary))])
			case 2: // default rule u(X), not u'(X) -> u''(X)
				src += fmt.Sprintf("%s(X), not %s(X) -> %s(X).\n",
					unary[rng.Intn(len(unary))], unary[rng.Intn(len(unary))], unary[rng.Intn(len(unary))])
			default: // copy rule
				src += fmt.Sprintf("%s(X) -> %s(X).\n", unary[rng.Intn(len(unary))], unary[rng.Intn(len(unary))])
			}
		}
		prog, err := parser.Parse(src)
		if err != nil {
			continue
		}
		if classify.IsWeaklyAcyclic(prog.Rules) {
			return prog
		}
	}
}

// TestRandomWAProgramsCrossValidated is the engine's strongest
// property test: on random weakly-acyclic NTGD programs, every
// enumerated stable model must
//
//  1. pass the independent Definition 1 checker (model-hood + SAT
//     stability),
//  2. satisfy Lemma 7 (M⁺ = T∞_{Σ,M}(D)), and
//  3. be a minimal model (stable models are minimal, Section 3.2).
func TestRandomWAProgramsCrossValidated(t *testing.T) {
	if testing.Short() {
		t.Skip("random cross-validation is slow")
	}
	rng := rand.New(rand.NewSource(77))
	const iters = 40
	skipped := 0
	for iter := 0; iter < iters; iter++ {
		prog := randomWAProgram(rng)
		db := prog.Database()
		res, err := stableModels(t, db, prog.Rules, core.Options{MaxModels: 20, MaxNodes: 200000})
		if err != nil {
			skipped++ // budget hit on an unlucky instance
			continue
		}
		for _, m := range res.Models {
			if !core.IsStableModel(db, prog.Rules, m) {
				t.Fatalf("iter %d: emitted model fails Definition 1 on\n%s\nmodel: %s",
					iter, prog, m.CanonicalString())
			}
			tinf := core.TInfinity(db, prog.Rules, m)
			if !tinf.Equal(m) {
				t.Fatalf("iter %d: Lemma 7 violated on\n%s\nmodel: %s\nT∞:    %s",
					iter, prog, m.CanonicalString(), tinf.CanonicalString())
			}
			if m.Len()-db.Len() <= 12 && !core.IsMinimalModel(db, prog.Rules, m) {
				t.Fatalf("iter %d: stable model is not minimal on\n%s\nmodel: %s",
					iter, prog, m.CanonicalString())
			}
		}
	}
	failOnSkips(t, skipped, iters)
}

// failOnSkips fails a randomized test in which more than a quarter of
// the iterations were skipped, so a regression that pushes every
// program over budget (or to zero models) cannot pass vacuously.
func failOnSkips(t *testing.T, skipped, iters int) {
	t.Helper()
	t.Logf("%d of %d iterations skipped", skipped, iters)
	if 4*skipped > iters {
		t.Fatalf("%d of %d iterations skipped; the property was barely checked", skipped, iters)
	}
}

// TestRandomModelsRejectedCorrectly: mutating a stable model (adding a
// spurious atom over the existing domain) must break stability or
// model-hood — the checker cannot be fooled by supersets.
func TestRandomModelsRejectedCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("random rejection testing is slow")
	}
	rng := rand.New(rand.NewSource(88))
	const iters = 30
	skipped := 0
	for iter := 0; iter < iters; iter++ {
		prog := randomWAProgram(rng)
		db := prog.Database()
		res, err := stableModels(t, db, prog.Rules, core.Options{MaxModels: 3, MaxNodes: 100000})
		if err != nil || len(res.Models) == 0 {
			skipped++
			continue
		}
		m := res.Models[0].Clone()
		dom := m.Domain()
		if len(dom) == 0 {
			skipped++
			continue
		}
		// Inject an atom not already present.
		injected := false
		for _, p := range []string{"u0", "u1", "u2"} {
			a := logic.A(p, dom[rng.Intn(len(dom))])
			if !m.Has(a) {
				m.Add(a)
				injected = true
				break
			}
		}
		if !injected {
			skipped++
			continue
		}
		if core.IsStableModel(db, prog.Rules, m) {
			// The injected atom could coincidentally be derivable and
			// the enlarged set genuinely stable only if it equals
			// another enumerated model; verify via Lemma 7.
			tinf := core.TInfinity(db, prog.Rules, m)
			if !tinf.Equal(m) {
				t.Fatalf("iter %d: superset accepted but violates Lemma 7 on\n%s", iter, prog)
			}
		}
	}
	failOnSkips(t, skipped, iters)
}

// TestStableImpliesModelAndContainsDB (quick sanity over the fixed
// examples): every stable model contains the database and satisfies
// the rules.
func TestStableImpliesModelAndContainsDB(t *testing.T) {
	prog := mustParse(t, fatherProgram)
	db := prog.Database()
	res, err := stableModels(t, db, prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("StableModels: %v", err)
	}
	for _, m := range res.Models {
		if !db.SubsetOf(m) {
			t.Fatalf("stable model must contain D")
		}
		if !logic.IsModel(prog.Rules, m) {
			t.Fatalf("stable model must satisfy Σ")
		}
	}
}
