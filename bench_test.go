package ntgd_test

// One testing.B benchmark per smsbench experiment (E1–E15, listed in
// cmd/smsbench). The paper is a theory paper: its "tables" are the verdict
// matrices of the worked examples, the Figure 1 marking, and the
// complexity-shape claims; every benchmark here regenerates the
// corresponding computation so the scaling shape can be measured with
// `go test -bench=. -benchmem`.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ntgd"
	"ntgd/internal/baget"
	"ntgd/internal/chase"
	"ntgd/internal/classify"
	"ntgd/internal/core"
	"ntgd/internal/efwfs"
	"ntgd/internal/encodings"
	"ntgd/internal/lp"
	"ntgd/internal/qbf"
	"ntgd/internal/transform"
)

const fatherSrc = `
person(alice).
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).
?- person(alice), not hasFather(alice,bob).
`

// BenchmarkE1SOCautious: the new semantics on Example 2's query
// (counter-model found; not entailed).
func BenchmarkE1SOCautious(b *testing.B) {
	prog := ntgd.MustParse(fatherSrc)
	db := prog.Database()
	q := prog.Queries[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.CautiousEntails(db, prog.Rules, q, core.Options{})
		if err != nil || res.Entailed {
			b.Fatalf("unexpected verdict: %v err=%v", res.Entailed, err)
		}
	}
}

// BenchmarkE1LPPipeline: Skolemize → ground → solve on the same
// program (entailed — the unintended verdict).
func BenchmarkE1LPPipeline(b *testing.B) {
	prog := ntgd.MustParse(fatherSrc)
	db := prog.Database()
	q := prog.Queries[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := lp.CautiousEntails(db, prog.Rules, q, lp.Options{})
		if err != nil || !ok {
			b.Fatalf("unexpected verdict: %v err=%v", ok, err)
		}
	}
}

// BenchmarkE2Operational: the Baget et al. semantics on the same
// query.
func BenchmarkE2Operational(b *testing.B) {
	prog := ntgd.MustParse(fatherSrc)
	db := prog.Database()
	q := prog.Queries[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := baget.CautiousEntails(db, prog.Rules, q, core.Options{})
		if err != nil || !res.Entailed {
			b.Fatalf("unexpected verdict: %v err=%v", res.Entailed, err)
		}
	}
}

// BenchmarkE3EFWFS: the bounded EFWFS family search for Example 3.
func BenchmarkE3EFWFS(b *testing.B) {
	prog := ntgd.MustParse(fatherSrc)
	q := ntgd.MustParse(fatherSrc + "?- person(alice), not abnormal(alice).").Queries[1]
	db := prog.Database()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := efwfs.Entails(db, prog.Rules, q, efwfs.Options{FreshConstants: 2, MaxInstancesPerAssignment: 2})
		if err != nil || v.Entailed {
			b.Fatalf("unexpected verdict: %+v err=%v", v, err)
		}
	}
}

// BenchmarkE4StabilityCheck: the Proposition 11 SAT-based stability
// check on the Example 4 model.
func BenchmarkE4StabilityCheck(b *testing.B) {
	prog := ntgd.MustParse(fatherSrc)
	db := prog.Database()
	m := ntgd.StoreOf(
		ntgd.A("person", ntgd.C("alice")),
		ntgd.A("hasFather", ntgd.C("alice"), ntgd.C("bob")),
		ntgd.A("sameAs", ntgd.C("bob"), ntgd.C("bob")),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !core.IsStableModel(db, prog.Rules, m) {
			b.Fatalf("model must be stable")
		}
	}
}

// BenchmarkE5StickinessMarking: the Figure 1 marking procedure, on
// the figure's sets and on a scaled family.
func BenchmarkE5StickinessMarking(b *testing.B) {
	fig1 := ntgd.MustParse(`
t(X,Y,Z) -> s(X,W).
r(X,Y), p(Y,Z) -> t(X,Y,W).
`).Rules
	b.Run("figure1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if classify.IsSticky(fig1) {
				b.Fatalf("second Figure 1 set is not sticky")
			}
		}
	})
	for _, n := range []int{4, 16, 64} {
		src := ""
		for i := 0; i < n; i++ {
			src += fmt.Sprintf("p%d(X,Y) -> p%d(Y,Z).\n", i, (i+1)%n)
		}
		rules := ntgd.MustParse(src).Rules
		b.Run(fmt.Sprintf("chain%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				classify.MarkVariables(rules)
			}
		})
	}
}

// BenchmarkE6LPvsSOOnSkolemized: Theorem 1 workload — the same
// existential-free program through both pipelines.
func BenchmarkE6LPvsSOOnSkolemized(b *testing.B) {
	src := `
a(1). a(2). a(3).
a(X), not q(X) -> p(X).
a(X), not p(X) -> q(X).
`
	prog := ntgd.MustParse(src)
	db := prog.Database()
	b.Run("lp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lp.StableModels(db, prog.Rules, lp.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("so", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.StableModels(db, prog.Rules, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7DataScaling: query answering under WATGD¬ as the
// database grows (the ΠP2 guess-and-check), contrasted with the
// PTIME positive chase on the same data.
func BenchmarkE7DataScaling(b *testing.B) {
	mkDB := func(n int) string {
		src := ""
		for i := 0; i < n; i++ {
			src += fmt.Sprintf("item(i%d).\n", i)
		}
		return src
	}
	rules := `
item(X), not out(X) -> in(X).
item(X), not in(X) -> out(X).
in(X) -> tagged(X,Y).
?- item(X), in(X).
`
	for _, n := range []int{1, 2, 3, 4} {
		prog := ntgd.MustParse(mkDB(n) + rules)
		db := prog.Database()
		q := prog.Queries[0]
		b.Run(fmt.Sprintf("ntgd/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BraveEntails(db, prog.Rules, q, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{4, 16, 64} {
		prog := ntgd.MustParse(mkDB(n) + "item(X) -> tagged(X,Y).\n?- tagged(i0,Y).")
		db := prog.Database()
		q := prog.Queries[0]
		b.Run(fmt.Sprintf("chase/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chase.CertainBCQ(db, prog.Rules, q, chase.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8QBFReduction: the Section 5.3 reduction end to end, by
// formula size.
func BenchmarkE8QBFReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	sizes := []struct{ e, a, t int }{{1, 0, 1}, {1, 1, 1}, {1, 1, 2}}
	for _, sz := range sizes {
		f := qbf.Random(rng, sz.e, sz.a, sz.t)
		inst, err := encodings.EncodeQBF(f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("e%da%dt%d", sz.e, sz.a, sz.t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CautiousEntails(inst.DB, inst.Rules, inst.Query, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9GadgetBoundedSearch: bounded exploration of the sticky
// undecidability gadget (Theorem 4) under fresh-only witnesses — the
// chase-style growth makes the work scale with the atom budget.
func BenchmarkE9GadgetBoundedSearch(b *testing.B) {
	prog := ntgd.MustParse(`
p(a). s(b).
p(X), s(Y) -> t(X,Y).
t(X,Y) -> u(Y,Z).
u(Y,Z) -> s(Z).
`)
	db := prog.Database()
	for _, budget := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("budget%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = core.StableModels(db, prog.Rules, core.Options{
					MaxAtoms: budget, MaxNodes: 1 << 20, MaxModels: 1,
					WitnessPolicy: core.WitnessFreshOnly,
				})
			}
		})
	}
}

// BenchmarkE10DisjunctionElimination: native disjunction vs the
// Lemma 13 translation on the same instance.
func BenchmarkE10DisjunctionElimination(b *testing.B) {
	src := `
node(a). node(b). edge(a,b).
node(X) -> red(X) | green(X).
edge(X,Y), red(X), red(Y) -> clash.
?- clash.
`
	prog := ntgd.MustParse(src)
	q := prog.Queries[0]
	elim, err := transform.EliminateDisjunction(prog.Database(), prog.Rules)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("native", func(b *testing.B) {
		db := prog.Database()
		for i := 0; i < b.N; i++ {
			if _, err := core.CautiousEntails(db, prog.Rules, q, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eliminated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CautiousEntails(elim.DB, elim.Rules, q, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11Theorem15: a 2-coloring saturation program natively vs
// through the DATALOG¬,∨ → WATGD¬ translation.
func BenchmarkE11Theorem15(b *testing.B) {
	src := `
node(a). node(b). edge(a,b).
node(X) -> r(X) | g(X).
edge(X,Y), r(X), r(Y) -> w.
edge(X,Y), g(X), g(Y) -> w.
w, node(X) -> r(X).
w, node(X) -> g(X).
w -> bad.
`
	prog := ntgd.MustParse(src)
	db := prog.Database()
	q := ntgd.Query{Pos: []ntgd.Atom{ntgd.A("bad")}}
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BraveEntails(db, prog.Rules, q, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	w, err := transform.DatalogToWATGD(transform.DatalogQuery{Rules: prog.Rules, QueryPred: "bad"}, 0)
	if err != nil {
		b.Fatal(err)
	}
	qT := ntgd.Query{Pos: []ntgd.Atom{ntgd.A(w.QueryPred)}}
	b.Run("watgd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BraveEntails(db, w.Rules, qT, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE12QBFBrave: the Section 7.1 brave-semantics 2-QBF query.
func BenchmarkE12QBFBrave(b *testing.B) {
	f := qbf.Formula{Exists: []string{"x"},
		Terms: []qbf.Term{{qbf.Lit{Var: "x"}, qbf.Lit{Var: "x"}, qbf.Lit{Var: "x"}}}}
	db, err := encodings.QBFDatabase(f)
	if err != nil {
		b.Fatal(err)
	}
	rules, q := encodings.QBFBraveQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.BraveEntails(db, rules, q, core.Options{})
		if err != nil || !res.Entailed {
			b.Fatalf("satisfiable formula: verdict %v err=%v", res.Entailed, err)
		}
	}
}

// BenchmarkE13CertCol: the certain-colorability encoding vs brute
// force.
func BenchmarkE13CertCol(b *testing.B) {
	g := encodings.CertColGraph{
		Vertices: []string{"a", "b", "c"},
		Vars:     []string{"p"},
		K:        2,
		Edges: []encodings.LabeledEdge{
			{U: "a", W: "b", Var: "p"},
			{U: "b", W: "c", Var: "p", Neg: true},
		},
	}
	db := g.Database()
	rules := g.DatalogProgram()
	q := g.BadQuery()
	b.Run("encoding", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BraveEntails(db, rules, q, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.BruteForce()
		}
	})
}

// BenchmarkE14CQA: consistent query answering, encoding vs brute
// force.
func BenchmarkE14CQA(b *testing.B) {
	prog := ntgd.MustParse(`
mgr(sales, ann).
mgr(sales, bob).
neq(ann,bob). neq(bob,ann).
:- mgr(D, X), mgr(D, Y), neq(X, Y).
mgr(D, X) -> emp(X).
?- emp(ann).
`)
	inst := &encodings.CQAInstance{DB: prog.Database()}
	for _, r := range prog.Rules {
		if r.IsConstraint() {
			inst.Denials = append(inst.Denials, r)
		} else {
			inst.TGDs = append(inst.TGDs, r)
		}
	}
	q := prog.Queries[0]
	b.Run("encoding", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := inst.CertainEncoded(q, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := inst.CertainBrute(q, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE15ExpressivenessGap: model counting under SO vs LP on the
// father family — the SO side has strictly more models (Theorem 19's
// intuition: Skolemization collapses the witness space).
func BenchmarkE15ExpressivenessGap(b *testing.B) {
	prog := ntgd.MustParse(fatherSrc)
	db := prog.Database()
	b.Run("so", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.StableModels(db, prog.Rules, core.Options{})
			if err != nil || len(res.Models) != 2 {
				b.Fatalf("want 2 models, got %d err=%v", len(res.Models), err)
			}
		}
	})
	b.Run("lp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := lp.StableModels(db, prog.Rules, lp.Options{})
			if err != nil || len(res.Models) != 1 {
				b.Fatalf("want 1 model, got %d err=%v", len(res.Models), err)
			}
		}
	})
}

// BenchmarkE16IndexedChaseScale: the indexed store + semi-naive chase
// through the public API at database sizes where the seed's
// recompute-everything rounds were prohibitive.
func BenchmarkE16IndexedChaseScale(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		src := ""
		for i := 0; i < n; i++ {
			src += fmt.Sprintf("emp(e%d).\n", i)
		}
		src += "emp(X) -> dept(X,D).\ndept(X,D) -> org(D).\n"
		prog := ntgd.MustParse(src)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inst, err := ntgd.Chase(prog)
				if err != nil || inst.Len() != 3*n {
					b.Fatalf("size=%d err=%v", inst.Len(), err)
				}
			}
		})
	}
}

// BenchmarkSolverReuse pins the compile-once amortization of the
// Solver session API: N enumerations on one compiled Solver versus N
// one-shot runs, each compiling a throwaway Solver (re-validating,
// re-classifying, re-deriving the chase budget, and recompiling the
// search metadata) and collecting its models.
func BenchmarkSolverReuse(b *testing.B) {
	src := ""
	for i := 0; i < 24; i++ {
		src += fmt.Sprintf("item(i%d).\n", i)
	}
	src += "item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n"
	prog := ntgd.MustParse(src)
	// Each enumeration stops at the first model, the session pattern of
	// a consistency probe: the per-call cost is then dominated by what
	// Compile can amortize (validation, classification, the
	// chase-derived budget, the rule metadata).
	opt := ntgd.Options{MaxModels: 1}
	const runs = 8
	count := func(b *testing.B, s *ntgd.Solver) {
		n := 0
		for _, err := range s.Models(context.Background()) {
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != 1 {
			b.Fatalf("models = %d, want 1", n)
		}
	}
	b.Run("compiled-once", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := ntgd.Compile(prog, ntgd.CompileOptions{Options: opt})
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < runs; r++ {
				count(b, s)
			}
		}
	})
	b.Run("one-shot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < runs; r++ {
				s, err := ntgd.Compile(prog, ntgd.CompileOptions{Options: opt})
				if err != nil {
					b.Fatal(err)
				}
				models, err := collectModels(context.Background(), s)
				if err != nil {
					b.Fatal(err)
				}
				if len(models) != 1 {
					b.Fatalf("models = %d, want 1", len(models))
				}
			}
		}
	})
}
