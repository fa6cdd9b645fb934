package asp

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// prog builds a program over n atoms from a compact rule spec.
func prog(n int, rules ...Rule) *Program {
	return &Program{NAtoms: n, Rules: rules}
}

func normal(head int, pos, neg []int) Rule {
	return Rule{Disjuncts: [][]int{{head}}, Pos: pos, Neg: neg}
}

func fact(a int) Rule { return Rule{Disjuncts: [][]int{{a}}} }

// seeded returns solve options that seed the search with p's
// well-founded model, or no seeding when p has none (disjunctions or
// constraints).
func seeded(p *Program) SolveOptions {
	wfs, err := WellFounded(p)
	if err != nil {
		return SolveOptions{}
	}
	return SolveOptions{WFS: wfs}
}

// allModels validates p, as the LP pipeline does once at compile, and
// collects a copy of every stable model.
func allModels(t testing.TB, p *Program, opt SolveOptions) ([]Model, Stats, error) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var out []Model
	stats, err := SolveCtx(context.Background(), p, opt, func(m Model) bool {
		out = append(out, append(Model(nil), m...))
		return true
	})
	return out, stats, err
}

func modelsOf(t *testing.T, p *Program) []Model {
	t.Helper()
	ms, _, err := allModels(t, p, seeded(p))
	if err != nil {
		t.Fatalf("allModels: %v", err)
	}
	return ms
}

func TestFactsOnly(t *testing.T) {
	ms := modelsOf(t, prog(2, fact(0)))
	if len(ms) != 1 || !slices.Contains(ms[0], 0) || slices.Contains(ms[0], 1) {
		t.Fatalf("models = %v", ms)
	}
}

func TestEvenLoopTwoModels(t *testing.T) {
	// a :- not b. b :- not a.
	p := prog(2,
		normal(0, nil, []int{1}),
		normal(1, nil, []int{0}))
	ms := modelsOf(t, p)
	if len(ms) != 2 {
		t.Fatalf("even loop should have 2 stable models, got %d", len(ms))
	}
}

func TestOddLoopNoModels(t *testing.T) {
	// a :- not a.
	p := prog(1, normal(0, nil, []int{0}))
	if ms := modelsOf(t, p); len(ms) != 0 {
		t.Fatalf("odd loop should have no stable models, got %v", ms)
	}
}

func TestPositiveLoopUnfounded(t *testing.T) {
	// a :- b. b :- a. — the empty model is the only stable model.
	p := prog(2, normal(0, []int{1}, nil), normal(1, []int{0}, nil))
	ms := modelsOf(t, p)
	if len(ms) != 1 || len(ms[0]) != 0 {
		t.Fatalf("positive loop must be unfounded: %v", ms)
	}
}

func TestConstraintPruning(t *testing.T) {
	// a :- not b. b :- not a. :- a.
	p := prog(2,
		normal(0, nil, []int{1}),
		normal(1, nil, []int{0}),
		Rule{Pos: []int{0}})
	ms := modelsOf(t, p)
	if len(ms) != 1 || !slices.Contains(ms[0], 1) {
		t.Fatalf("constraint should keep only {b}: %v", ms)
	}
}

func TestConjunctiveHead(t *testing.T) {
	// (a ∧ b) :- not c.
	p := prog(3, Rule{Disjuncts: [][]int{{0, 1}}, Neg: []int{2}})
	ms := modelsOf(t, p)
	if len(ms) != 1 || !slices.Contains(ms[0], 0) || !slices.Contains(ms[0], 1) {
		t.Fatalf("conjunctive head: %v", ms)
	}
}

func TestDisjunctiveMinimality(t *testing.T) {
	// a | b. — two stable models {a} and {b}, not {a,b}.
	p := prog(2, Rule{Disjuncts: [][]int{{0}, {1}}})
	ms := modelsOf(t, p)
	if len(ms) != 2 {
		t.Fatalf("a|b should have 2 models, got %v", ms)
	}
	for _, m := range ms {
		if len(m) != 1 {
			t.Fatalf("non-minimal model leaked: %v", m)
		}
	}
}

func TestDisjunctiveSaturation(t *testing.T) {
	// a | b.  a :- b.  b :- a.  — the saturated {a,b} is stable
	// (classic non-head-cycle-free example).
	p := prog(2,
		Rule{Disjuncts: [][]int{{0}, {1}}},
		normal(0, []int{1}, nil),
		normal(1, []int{0}, nil))
	ms := modelsOf(t, p)
	if len(ms) != 1 || len(ms[0]) != 2 {
		t.Fatalf("saturation example: %v", ms)
	}
}

func TestWellFoundedStratified(t *testing.T) {
	// a. b :- a, not c. — WFS is total: a,b true, c false.
	p := prog(3, fact(0), normal(1, []int{0}, []int{2}))
	w, err := WellFounded(p)
	if err != nil {
		t.Fatalf("WellFounded: %v", err)
	}
	if !w.IsTrue(0) || !w.IsTrue(1) || !slices.Contains(w.False, 2) || len(w.Undefined) != 0 {
		t.Fatalf("WFS = T%v F%v U%v", w.True, w.False, w.Undefined)
	}
}

func TestWellFoundedEvenLoopUndefined(t *testing.T) {
	p := prog(2, normal(0, nil, []int{1}), normal(1, nil, []int{0}))
	w, err := WellFounded(p)
	if err != nil {
		t.Fatalf("WellFounded: %v", err)
	}
	if len(w.Undefined) != 2 {
		t.Fatalf("even loop atoms are undefined in WFS: %+v", w)
	}
}

func TestWFSRejectsDisjunction(t *testing.T) {
	p := prog(2, Rule{Disjuncts: [][]int{{0}, {1}}})
	if _, err := WellFounded(p); err == nil {
		t.Fatalf("WFS is defined for normal programs only")
	}
}

// bruteStable enumerates stable models by definition: all subsets,
// classical model check, reduct least-model check (normal) or
// minimal-model check (disjunctive, by subset enumeration).
func bruteStable(p *Program) []Model {
	var out []Model
	n := p.NAtoms
	for mask := 0; mask < 1<<n; mask++ {
		var m Model
		for a := 0; a < n; a++ {
			if mask&(1<<a) != 0 {
				m = append(m, a)
			}
		}
		if !satisfiesAll(p, m) {
			continue
		}
		if p.IsNormal() {
			if NewModel(reductLeastModel(p, m)).Equal(m) {
				out = append(out, m)
			}
			continue
		}
		// Disjunctive: no proper submodel of the reduct. The empty
		// set has no proper subsets and is trivially minimal.
		minimal := true
		for sub := (mask - 1) & mask; mask != 0; sub = (sub - 1) & mask {
			var j Model
			for a := 0; a < n; a++ {
				if sub&(1<<a) != 0 {
					j = append(j, a)
				}
			}
			if reductModels(p, m, j) {
				minimal = false
			}
			if sub == 0 || !minimal {
				break
			}
		}
		if minimal {
			out = append(out, m)
		}
	}
	return out
}

// reductModels checks whether j is a classical model of the reduct
// P^m.
func reductModels(p *Program, m, j Model) bool {
	inM := make([]bool, p.NAtoms)
	for _, a := range m {
		inM[a] = true
	}
	inJ := make([]bool, p.NAtoms)
	for _, a := range j {
		inJ[a] = true
	}
	for _, r := range p.Rules {
		blocked := false
		for _, ng := range r.Neg {
			if inM[ng] {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		bodyTrue := true
		for _, b := range r.Pos {
			if !inJ[b] {
				bodyTrue = false
				break
			}
		}
		if !bodyTrue {
			continue
		}
		if r.IsConstraint() {
			return false
		}
		sat := false
		for _, d := range r.Disjuncts {
			all := true
			for _, a := range d {
				if !inJ[a] {
					all = false
					break
				}
			}
			if all {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

func equalModelSets(a, b []Model) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, m := range a {
		found := false
		for i, o := range b {
			if !used[i] && m.Equal(o) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestRandomNormalAgainstBrute (property): solver output equals the
// brute-force stable model set on random normal programs. A program
// whose well-founded model is total is solved without search: one node,
// no stability check, and exactly the true set emitted. Most generated
// programs are of that kind; the test fails if fewer than half are, so
// a drift of the generator cannot leave that path untested.
func TestRandomNormalAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	total := 0
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(4)
		nRules := 1 + rng.Intn(6)
		p := &Program{NAtoms: n}
		for i := 0; i < nRules; i++ {
			r := Rule{Disjuncts: [][]int{{rng.Intn(n)}}}
			for b := 0; b < rng.Intn(3); b++ {
				r.Pos = append(r.Pos, rng.Intn(n))
			}
			for b := 0; b < rng.Intn(2); b++ {
				r.Neg = append(r.Neg, rng.Intn(n))
			}
			p.Rules = append(p.Rules, r)
		}
		opt := seeded(p)
		got, stats, err := allModels(t, p, opt)
		if err != nil {
			t.Fatalf("allModels: %v", err)
		}
		want := bruteStable(p)
		if !equalModelSets(got, want) {
			t.Fatalf("iter %d: got %v want %v on\n%s", iter, got, want, p)
		}
		if wfs := opt.WFS; wfs != nil && len(wfs.Undefined) == 0 {
			total++
			if stats.Nodes != 1 || stats.Checks != 0 || len(got) != 1 || !got[0].Equal(Model(wfs.True)) {
				t.Fatalf("iter %d: total WFS %v: got %v with %+v, want the true set from one node and no check on\n%s",
					iter, wfs.True, got, stats, p)
			}
		}
	}
	t.Logf("%d of 200 programs have a total well-founded model", total)
	if total < 100 {
		t.Fatalf("only %d of 200 programs have a total well-founded model; the total-WFS rule was barely checked", total)
	}
}

// TestRandomDisjunctiveAgainstBrute (property): same for disjunctive
// programs, exercising the SAT-based minimality check.
func TestRandomDisjunctiveAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for iter := 0; iter < 120; iter++ {
		n := 2 + rng.Intn(3)
		nRules := 1 + rng.Intn(5)
		p := &Program{NAtoms: n}
		for i := 0; i < nRules; i++ {
			r := Rule{}
			nd := 1 + rng.Intn(2)
			for d := 0; d < nd; d++ {
				r.Disjuncts = append(r.Disjuncts, []int{rng.Intn(n)})
			}
			for b := 0; b < rng.Intn(3); b++ {
				r.Pos = append(r.Pos, rng.Intn(n))
			}
			for b := 0; b < rng.Intn(2); b++ {
				r.Neg = append(r.Neg, rng.Intn(n))
			}
			p.Rules = append(p.Rules, r)
		}
		got, _, err := allModels(t, p, SolveOptions{})
		if err != nil {
			t.Fatalf("allModels: %v", err)
		}
		want := bruteStable(p)
		if !equalModelSets(got, want) {
			t.Fatalf("iter %d: got %v want %v on\n%s", iter, got, want, p)
		}
	}
}

// TestWFSSoundForStableModels (property): well-founded true atoms are
// in every stable model; well-founded false atoms in none.
func TestWFSSoundForStableModels(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for iter := 0; iter < 150; iter++ {
		n := 2 + rng.Intn(4)
		p := &Program{NAtoms: n}
		for i := 0; i < 1+rng.Intn(5); i++ {
			r := Rule{Disjuncts: [][]int{{rng.Intn(n)}}}
			for b := 0; b < rng.Intn(2); b++ {
				r.Pos = append(r.Pos, rng.Intn(n))
			}
			for b := 0; b < rng.Intn(2); b++ {
				r.Neg = append(r.Neg, rng.Intn(n))
			}
			p.Rules = append(p.Rules, r)
		}
		w, err := WellFounded(p)
		if err != nil {
			t.Fatalf("WellFounded: %v", err)
		}
		for _, m := range bruteStable(p) {
			for _, a := range w.True {
				if !slices.Contains(m, a) {
					t.Fatalf("iter %d: WFS-true atom %d missing from stable model %v", iter, a, m)
				}
			}
			for _, a := range w.False {
				if slices.Contains(m, a) {
					t.Fatalf("iter %d: WFS-false atom %d inside stable model %v", iter, a, m)
				}
			}
		}
	}
}

func TestValidate(t *testing.T) {
	p := prog(1, normal(3, nil, nil))
	if err := p.Validate(); err == nil {
		t.Fatalf("out-of-range atom id should be rejected")
	}
	p2 := prog(1, Rule{Disjuncts: [][]int{{}}})
	if err := p2.Validate(); err == nil {
		t.Fatalf("empty disjunct should be rejected")
	}
}
