package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"ntgd"
	"ntgd/internal/ground"
)

// layeredProgram writes a random program of rules[0]..rules[1] rules
// over facts[0]..facts[1] facts. Predicates sit in four layers above the
// database predicates, and every rule derives a predicate of its layer
// from strictly lower ones, so the predicate graph — and with it the
// position graph — is acyclic: the program is weakly acyclic, and since
// negation only looks down it is stratified, so it has a stable model
// under both semantics. Rules may carry negation, disjunction and,
// unless existentialFree, an existential head variable.
//
// The search stays small, so that the op measures the compile path.
// Every body is a connected join over a sparse database, so derived
// relations stay near the database's size. A rule with negation,
// disjunction or an existential is guarded by a one-fact selector on
// its first variable, so it fires a few times, not once per derived
// tuple. A disjunctive or existential rule alone derives its head
// predicates, over the selector's constant only, so it makes one choice
// that no later derivation makes redundant; at most three rules are
// disjunctive, because the LP solver's search doubles per disjunction.
// Rules are written layer by layer and the SO search picks branching
// rules by lowest index, so it settles each stratum before the next one
// negates it.
func layeredProgram(rng *rand.Rand, rules, facts [2]int, existentialFree bool) string {
	type pred struct {
		name  string
		arity int
	}
	const layers = 4
	preds := make([][]pred, layers+1) // the predicates bodies may use, by layer
	for l := range preds {
		for j := 0; j < 4; j++ {
			name := fmt.Sprintf("p%d_%d", l, j)
			if l == 0 {
				name = fmt.Sprintf("e%d", j)
			}
			preds[l] = append(preds[l], pred{name, 1 + (l+j)%2})
		}
	}
	atom := func(p pred, args []string) string {
		return p.name + "(" + strings.Join(args, ",") + ")"
	}
	nFacts := facts[0] + rng.Intn(facts[1]-facts[0]+1)
	nConsts := 4 + nFacts/3
	var b strings.Builder
	for i := 0; i < nFacts; i++ {
		p := preds[0][rng.Intn(4)]
		args := make([]string, p.arity)
		for k := range args {
			args[k] = fmt.Sprintf("c%d", rng.Intn(nConsts))
		}
		b.WriteString(atom(p, args) + ".\n")
	}
	fmt.Fprintf(&b, "sel(c%d).\n", rng.Intn(nConsts))

	nRules := rules[0] + rng.Intn(rules[1]-rules[0]+1)
	disjunctive := 0
	for r := 0; r < nRules; r++ {
		layer := 1 + r*layers/nRules
		below := func() pred {
			l := rng.Intn(layer)
			return preds[l][rng.Intn(len(preds[l]))]
		}
		var vars []string
		fresh := func() string {
			v := fmt.Sprintf("V%d", len(vars))
			vars = append(vars, v)
			return v
		}
		old := func() string { return vars[rng.Intn(len(vars))] }
		bound := func(arity int) []string {
			args := make([]string, arity)
			for k := range args {
				args[k] = old()
			}
			return args
		}
		first := preds[layer-1][rng.Intn(len(preds[layer-1]))]
		args := make([]string, first.arity)
		for k := range args {
			args[k] = fresh()
		}
		body := []string{atom(first, args)}
		for n := rng.Intn(3); n > 0; n-- {
			// joined to the body so far on its first argument
			p := below()
			args := []string{old()}
			if p.arity == 2 {
				args = append(args, fresh())
			}
			body = append(body, atom(p, args))
		}
		// Only deterministic rules join freely; every rule that makes the
		// search branch is guarded by the selector.
		guard := false
		if rng.Intn(100) < 20 {
			p := below()
			body = append(body, "not "+atom(p, bound(p.arity)))
			guard = true
		}
		var head string
		switch x := rng.Intn(100); {
		case x < 8 && disjunctive < 3:
			disjunctive++
			a, c := pred{fmt.Sprintf("d%d_a", r), 1}, pred{fmt.Sprintf("d%d_b", r), 1}
			preds[layer] = append(preds[layer], a, c)
			head = atom(a, vars[:1]) + " | " + atom(c, vars[:1])
			guard = true
		case x < 23 && !existentialFree:
			w := pred{fmt.Sprintf("w%d", r), 2}
			preds[layer] = append(preds[layer], w)
			head = atom(w, []string{vars[0], "Ex"})
			guard = true
		default:
			p := preds[layer][rng.Intn(4)]
			head = atom(p, bound(p.arity))
		}
		if guard {
			body = append(body, "sel("+vars[0]+")")
		}
		b.WriteString(strings.Join(body, ", ") + " -> " + head + ".\n")
	}
	return b.String()
}

// compileLoad is the compile workload (see the package doc). Each op
// runs one program text under both semantics: alternating semantics
// between ops would split op times into two far-apart modes, and a
// median at the seam between them moves with every seed.
type compileLoad struct {
	seed int64
	src  string
	// the last op's program and first model per semantics, kept for
	// verify
	prog   *ntgd.Program
	models [2]*ntgd.FactStore
}

var bothSemantics = [2]ntgd.Semantics{ntgd.SO, ntgd.LP}

func newCompile(seed int64, _ float64) closedLoop { return &compileLoad{seed: seed} }

// program i of the seed's stream; every fourth is existential-free, so
// that the Definition 1 check of its LP model is the Theorem 1 check.
func (w *compileLoad) program(i int) string {
	return layeredProgram(rand.New(rand.NewSource(w.seed*1_000_003+int64(i))), [2]int{20, 60}, [2]int{50, 500}, i%4 == 3)
}

// setup warms the path every op takes — code, allocator, first-use
// costs — as a one-shot process pays them once, on 16 programs that are
// the same for every seed, so that setup_s measures the same work in
// every run.
func (w *compileLoad) setup(ctx context.Context, tr *tracer) error {
	warm := &compileLoad{}
	for i := -16; i < 0; i++ {
		warm.src = warm.program(i)
		if err := warm.op(ctx, i, tr); err != nil {
			return err
		}
	}
	return nil
}

func (w *compileLoad) limit() int { return 0 }
func (w *compileLoad) prepare(i int, _ *tracer) error {
	w.src = w.program(i)
	return nil
}

func (w *compileLoad) op(ctx context.Context, i int, tr *tracer) error {
	w.prog, w.models = nil, [2]*ntgd.FactStore{}
	p, err := parse(tr, w.src)
	if err != nil {
		return err
	}
	w.prog = p
	for k, sem := range bothSemantics {
		s, err := compile(tr, p, sem, nil, ntgd.Options{})
		if err != nil {
			return err
		}
		res, err := s.collect(ctx, tr, 1)
		if err != nil {
			return err
		}
		if len(res.Models) > 0 {
			w.models[k] = res.Models[0]
		}
	}
	return nil
}

func (w *compileLoad) verify(i int) error {
	for k, sem := range bothSemantics {
		if w.models[k] == nil {
			return fmt.Errorf("program %d (%v): no stable model, but stratified programs have one", i, sem)
		}
		// LP models are the SO models of the Skolemized program (Theorem
		// 1); on existential-free programs Skolemization is the identity,
		// so there the check pins that SO and LP agree.
		p := w.prog
		if sem == ntgd.LP {
			p = &ntgd.Program{Rules: ground.Skolemize(p.Rules), Facts: p.Facts}
		}
		if !ntgd.IsStableModel(p, w.models[k]) {
			return fmt.Errorf("program %d (%v): first model fails the Definition 1 check", i, sem)
		}
	}
	return nil
}
