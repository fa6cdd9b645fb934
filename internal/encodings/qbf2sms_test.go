package encodings_test

import (
	"context"
	"math/rand"
	"testing"

	"ntgd/internal/core"
	"ntgd/internal/encodings"
	"ntgd/internal/engine"
	"ntgd/internal/logic"
	"ntgd/internal/qbf"
)

// entails compiles (db, rules) under the SO semantics and decides q
// bravely or cautiously.
func entails(t *testing.T, db *logic.FactStore, rules []*logic.Rule, q logic.Query, brave bool) engine.QAResult {
	t.Helper()
	c, err := core.Compile(db, rules, core.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	decide := engine.CautiousEntails
	if brave {
		decide = engine.BraveEntails
	}
	res, err := decide(context.Background(), c, engine.Params{}, q)
	if err != nil {
		t.Fatalf("query answering: %v", err)
	}
	return res
}

// solveViaEncoding decides 2-QBF∃ satisfiability through the paper's
// reduction: ϕ is satisfiable iff (Dϕ, Σ) ⊭SMS error.
func solveViaEncoding(t *testing.T, f qbf.Formula) bool {
	t.Helper()
	inst, err := encodings.EncodeQBF(f)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	res := entails(t, inst.DB, inst.Rules, inst.Query, false)
	if res.Exhausted {
		t.Fatalf("budget exhausted on %s", f)
	}
	return !res.Entailed
}

func TestQBFEncodingTinyHandPicked(t *testing.T) {
	x := func(v string) qbf.Lit { return qbf.Lit{Var: v} }
	nx := func(v string) qbf.Lit { return qbf.Lit{Var: v, Neg: true} }

	cases := []struct {
		name string
		f    qbf.Formula
		want bool
	}{
		{
			name: "exists x: x — satisfiable",
			f: qbf.Formula{Exists: []string{"x"},
				Terms: []qbf.Term{{x("x"), x("x"), x("x")}}},
			want: true,
		},
		{
			name: "exists x: x and not x — unsatisfiable",
			f: qbf.Formula{Exists: []string{"x"},
				Terms: []qbf.Term{{x("x"), nx("x"), x("x")}}},
			want: false,
		},
		{
			name: "forall y: y — unsatisfiable",
			f: qbf.Formula{Forall: []string{"y"},
				Terms: []qbf.Term{{x("y"), x("y"), x("y")}}},
			want: false,
		},
		{
			name: "forall y: y or not y — valid",
			f: qbf.Formula{Forall: []string{"y"},
				Terms: []qbf.Term{{x("y"), x("y"), x("y")}, {nx("y"), nx("y"), nx("y")}}},
			want: true,
		},
		{
			name: "exists x forall y: (x&y) | (x&~y) — x makes it true",
			f: qbf.Formula{Exists: []string{"x"}, Forall: []string{"y"},
				Terms: []qbf.Term{{x("x"), x("y"), x("y")}, {x("x"), nx("y"), nx("y")}}},
			want: true,
		},
		{
			name: "exists x forall y: x&y — y can be false",
			f: qbf.Formula{Exists: []string{"x"}, Forall: []string{"y"},
				Terms: []qbf.Term{{x("x"), x("y"), x("y")}}},
			want: false,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.f.EvalBrute(); got != tc.want {
				t.Fatalf("brute-force reference disagrees with hand analysis: got %v", got)
			}
			if got := solveViaEncoding(t, tc.f); got != tc.want {
				t.Fatalf("encoding verdict = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestQBFEncodingRandomAgainstBrute(t *testing.T) {
	if testing.Short() {
		t.Skip("random QBF agreement is slow")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		f := qbf.Random(rng, 1, 1, 2)
		want := f.EvalBrute()
		if got := f.EvalSAT(); got != want {
			t.Fatalf("EvalSAT disagrees with EvalBrute on %s", f)
		}
		if got := solveViaEncoding(t, f); got != want {
			t.Fatalf("instance %d: encoding = %v, brute = %v, formula %s", i, got, want, f)
		}
	}
}
