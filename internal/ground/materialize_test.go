package ground_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ntgd/internal/asp"
	"ntgd/internal/engine"
	"ntgd/internal/ground"
	"ntgd/internal/logic"
	"ntgd/internal/lp"
	"ntgd/internal/parser"
)

// TestLPModelsMatchStoreOfRandomized pins how lp.Compiled materializes
// its models, as layers over the database holding the derived atoms
// added by packed key, against logic.StoreOf of each model's atoms. It
// runs on the generator of TestGroundMatchesTwoPassRandomized, each
// program compiled over a root store of its facts and over a two-layer
// chain of them, the shape ntgd.Compile builds over a Database with the
// program's facts on its top layer. Every other program also gets an
// even loop through negation, so that stable models hold atoms the
// well-founded model leaves undefined. The reference enumerates the
// same ground program with asp.SolveCtx and builds each model with
// StoreOf. Every emitted model must equal one reference model on Len, Equal,
// CanonicalString, Domain and Preds, the two model lists must pair off
// one to one, and every emitted model must share the database's Symbols
// table and hold its atoms at their store indices. Compile and the run
// must leave the database's length and atoms unchanged. The programs
// cover all three materializations: a total well-founded model, one
// with undefined atoms, and none (disjunctions or constraints). A run
// whose reference enumeration exceeds its node budget is skipped, and
// at most 1% may be.
func TestLPModelsMatchStoreOfRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const budget = 1 << 16
	kinds, models := map[string]int{}, map[string]int{}
	skipped := 0
	for trial := 0; trial < 400; trial++ {
		src := ground.RandSkolemProgram(rng)
		if trial%2 == 1 {
			// An even loop through negation over b's constants: models
			// whose atoms the well-founded model leaves undefined.
			src += "b(X), not q(X) -> r(X).\nb(X), not r(X) -> q(X).\n"
		}
		prog := parser.MustParse(src)
		for _, shape := range []string{"root", "two-layer"} {
			db := prog.Database()
			if shape == "two-layer" {
				db = ground.TwoLayerDatabase(prog.Facts)
			}
			label := fmt.Sprintf("trial %d, %s database", trial, shape)
			n, facts := db.Len(), slices.Clone(db.Atoms())
			c, err := lp.Compile(db, prog.Rules, lp.Options{Solve: asp.SolveOptions{MaxNodes: budget}})
			if err != nil {
				t.Fatalf("%s: Compile: %v on\n%s", label, err, src)
			}
			g := c.Grounding()
			kind := "no well-founded model"
			if wfs, err := asp.WellFounded(g.Prog); err == nil {
				kind = "total"
				if len(wfs.Undefined) > 0 {
					kind = "undefined atoms"
				}
			}

			want := map[string]*logic.FactStore{}
			left := map[string]int{}
			_, err = asp.SolveCtx(context.Background(), g.Prog, asp.SolveOptions{MaxNodes: budget}, func(m asp.Model) bool {
				atoms := make([]logic.Atom, len(m))
				for i, id := range m {
					atoms[i] = g.Base.AtomAt(id)
				}
				ref := logic.StoreOf(atoms...)
				want[ref.CanonicalString()] = ref
				left[ref.CanonicalString()]++
				return true
			})
			if errors.Is(err, asp.ErrBudget) {
				skipped++
				continue
			}
			if err != nil {
				t.Fatalf("%s: reference enumeration: %v on\n%s", label, err, src)
			}
			kinds[kind]++
			var bad string
			_, exhausted, err := c.Enumerate(context.Background(), engine.Params{}, func(s *logic.FactStore) bool {
				models[kind]++
				bad = modelMismatch(s, want, left, db, facts)
				return bad == ""
			})
			if bad != "" {
				t.Fatalf("%s (%s): %s on\n%s", label, kind, bad, src)
			}
			if err != nil || exhausted {
				t.Fatalf("%s: Enumerate = (exhausted %v, %v) on\n%s", label, exhausted, err, src)
			}
			for key, k := range left {
				if k != 0 {
					t.Fatalf("%s (%s): reference model %s emitted %d times too few on\n%s", label, kind, key, k, src)
				}
			}
			if db.Len() != n || !slices.EqualFunc(db.Atoms(), facts, logic.Atom.Equal) {
				t.Fatalf("%s: Compile or a run changed the database: %d atoms, want %d", label, db.Len(), n)
			}
		}
	}
	t.Logf("runs: %v; models: %v; %d runs skipped, their reference over %d nodes", kinds, models, skipped, budget)
	if skipped > 8 {
		t.Fatalf("%d of 800 runs skipped; the property was barely checked", skipped)
	}
	for _, kind := range []string{"total", "undefined atoms", "no well-founded model"} {
		if models[kind] < 50 {
			t.Fatalf("only %d models with %s: the programs no longer cover every materialization", models[kind], kind)
		}
	}
}

// modelMismatch checks one emitted model against the reference models
// and the database, consuming its reference, and describes the first
// difference ("" if none).
func modelMismatch(s *logic.FactStore, want map[string]*logic.FactStore, left map[string]int, db *logic.FactStore, facts []logic.Atom) string {
	key := s.CanonicalString()
	ref, ok := want[key]
	if !ok || left[key] == 0 {
		return fmt.Sprintf("emitted model %s is not a reference model, or is emitted once too often", key)
	}
	left[key]--
	if s.Len() != ref.Len() || !s.Equal(ref) || !ref.Equal(s) {
		return fmt.Sprintf("model %s differs from StoreOf of its atoms", key)
	}
	if got, want := fmt.Sprint(s.Domain()), fmt.Sprint(ref.Domain()); got != want {
		return fmt.Sprintf("model %s: Domain %s, want %s", key, got, want)
	}
	if got, want := fmt.Sprint(s.Preds()), fmt.Sprint(ref.Preds()); got != want {
		return fmt.Sprintf("model %s: Preds %s, want %s", key, got, want)
	}
	if s.Symbols() != db.Symbols() {
		return fmt.Sprintf("model %s does not share the database's Symbols table", key)
	}
	for i, f := range facts {
		if !s.AtomAt(i).Equal(f) {
			return fmt.Sprintf("model %s holds %s at store index %d, the database %s", key, s.AtomAt(i), i, f)
		}
	}
	return ""
}
