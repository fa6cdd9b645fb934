// QBF: solve 2-QBF∃ formulas declaratively through the paper's
// Section 5.3 reduction — encode ∃X∀Yψ as a database Dϕ plus the fixed
// weakly-acyclic NTGD set Σ, and decide satisfiability as
// (Dϕ,Σ) ⊭SMS error. The verdicts are cross-checked against a direct
// brute-force evaluator, and the brave-semantics variant of
// Section 7.1 is demonstrated as well.
package main

import (
	"context"
	"fmt"
	"log"

	"ntgd"
	"ntgd/internal/encodings"
	"ntgd/internal/qbf"
)

// entails compiles the facts and rules under the SO semantics and
// answers q in the given mode.
func entails(db *ntgd.FactStore, rules []*ntgd.Rule, q ntgd.Query, mode ntgd.Mode) bool {
	s, err := ntgd.Compile(&ntgd.Program{Facts: db.Atoms(), Rules: rules}, ntgd.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Entails(context.Background(), q, mode)
	if err != nil {
		log.Fatal(err)
	}
	return res.Entailed
}

func main() {
	l := func(v string) qbf.Lit { return qbf.Lit{Var: v} }
	nl := func(v string) qbf.Lit { return qbf.Lit{Var: v, Neg: true} }

	formulas := []qbf.Formula{
		// ∃x ∀y: (x∧y) ∨ (x∧¬y) — satisfiable with x = true.
		{Exists: []string{"x"}, Forall: []string{"y"},
			Terms: []qbf.Term{{l("x"), l("y"), l("y")}, {l("x"), nl("y"), nl("y")}}},
		// ∃x ∀y: x∧y — unsatisfiable (take y = false).
		{Exists: []string{"x"}, Forall: []string{"y"},
			Terms: []qbf.Term{{l("x"), l("y"), l("y")}}},
		// ∀y: y ∨ ¬y — valid.
		{Forall: []string{"y"},
			Terms: []qbf.Term{{l("y"), l("y"), l("y")}, {nl("y"), nl("y"), nl("y")}}},
	}

	for _, f := range formulas {
		inst, err := encodings.EncodeQBF(f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", f)
		fmt.Printf("  database: %d facts, fixed Σ: %d NTGDs\n", inst.DB.Len(), len(inst.Rules))

		// Cautious reduction: satisfiable iff error is NOT entailed.
		sat := !entails(inst.DB, inst.Rules, inst.Query, ntgd.Cautious)
		fmt.Printf("  encoding verdict: satisfiable=%v  (brute force: %v)\n", sat, f.EvalBrute())

		// Brave variant of Section 7.1: Σ ∪ {¬error → ans}.
		braveRules, braveQ := encodings.QBFBraveQuery()
		fmt.Printf("  brave variant (ans bravely entailed): %v\n\n", entails(inst.DB, braveRules, braveQ, ntgd.Brave))
	}
}
