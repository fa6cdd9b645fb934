package transform_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ntgd/internal/parser"
	"ntgd/internal/transform"
)

// TestLemma13RandomAgreement: on random small disjunctive programs the
// native engine and the Lemma 13 elimination agree on model existence
// and on a probe query, under both reasoning modes.
func TestLemma13RandomAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("random Lemma 13 agreement is slow")
	}
	rng := rand.New(rand.NewSource(99))
	preds := []string{"p0", "p1", "p2"}
	consts := []string{"c0", "c1"}
	checked := 0
	for iter := 0; iter < 60 && checked < 12; iter++ {
		src := ""
		for i := 0; i < 1+rng.Intn(2); i++ {
			src += fmt.Sprintf("%s(%s).\n", preds[rng.Intn(len(preds))], consts[rng.Intn(len(consts))])
		}
		for i := 0; i < 1+rng.Intn(2); i++ {
			body := fmt.Sprintf("%s(X)", preds[rng.Intn(len(preds))])
			if rng.Intn(3) == 0 {
				body += fmt.Sprintf(", not %s(X)", preds[rng.Intn(len(preds))])
			}
			head := fmt.Sprintf("%s(X)", preds[rng.Intn(len(preds))])
			head += fmt.Sprintf(" | %s(X)", preds[rng.Intn(len(preds))])
			src += fmt.Sprintf("%s -> %s.\n", body, head)
		}
		prog, err := parser.Parse(src)
		if err != nil {
			continue
		}
		probe := fmt.Sprintf("?- %s(%s).", preds[rng.Intn(len(preds))], consts[rng.Intn(len(consts))])
		q := parser.MustParse(probe).Queries[0]
		db := prog.Database()
		elim, err := transform.EliminateDisjunction(db, prog.Rules)
		if err != nil {
			t.Fatalf("EliminateDisjunction: %v on\n%s", err, src)
		}
		for _, brave := range []bool{false, true} {
			a := entails(t, db, prog.Rules, q, brave)
			b := entails(t, elim.DB, elim.Rules, q, brave)
			if a != b {
				t.Fatalf("iter %d brave=%v: native=%v eliminated=%v on\n%s query %s",
					iter, brave, a, b, src, probe)
			}
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("too few random programs checked: %d", checked)
	}
}
