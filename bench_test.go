package ntgd_test

// Benchmarks of the public API at scale: the chase over a growing
// database, the Solver's compile-once amortization, a compiled Solver's
// per-query cost over a large database, and a new database version's
// compile and first reads. The paper's
// experiments E1–E15 are timed by cmd/smsbench's BenchmarkExperiments,
// which also checks their verdicts.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ntgd"
)

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

// chainQueryProgram is the database-heavy query shape: facts
// edge(c_i, c_i+1) for i < n, the rule edge(X,Y) -> node(X), and the
// cautious query ?- node(c5).
func chainQueryProgram(n int) *ntgd.Program {
	prog := ntgd.MustParse("edge(X,Y) -> node(X).\n?- node(c5).\n")
	for i := 0; i < n; i++ {
		prog.Facts = append(prog.Facts, ntgd.A("edge", ntgd.C(fmt.Sprintf("c%d", i)), ntgd.C(fmt.Sprintf("c%d", i+1))))
	}
	return prog
}

// BenchmarkSolverQueryDB pins that a compiled Solver answers a query
// over a large database from its per-program artifacts: each call under
// SO starts from the frozen run root (D plus its deterministic closure)
// and under LP from the frozen well-founded core, so the per-call cost
// follows the query, not |D|.
func BenchmarkSolverQueryDB(b *testing.B) {
	for _, sem := range []ntgd.Semantics{ntgd.SO, ntgd.LP} {
		for _, n := range []int{1000, 4000} {
			b.Run(fmt.Sprintf("%s/N=%d", sem, n), func(b *testing.B) {
				prog := chainQueryProgram(n)
				s := ntgd.MustCompile(prog, ntgd.CompileOptions{Semantics: sem, Options: ntgd.Options{Workers: 1}})
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := s.Entails(context.Background(), prog.Queries[0], ntgd.Cautious)
					if err != nil || !res.Entailed {
						b.Fatalf("Entails = (%v, %v), want (true, nil)", res.Entailed, err)
					}
				}
			})
		}
	}
}

// BenchmarkDatabaseVersion pins the write path of a versioned database:
// each iteration compiles the SO and the LP rules of perfbench's bulkdb
// workload against a frozen Database of its shape — 10⁴ random edges
// over 10³ nodes, 10³ employees in 100 departments, 10 hubs and 30
// managers — and answers one query under each. That is one new database
// version and its first reads: the LP grounding and well-founded core,
// and the SO budget probe and run root.
func BenchmarkDatabaseVersion(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := func(prefix string, n int) ntgd.Term { return ntgd.C(fmt.Sprintf("%s%d", prefix, rng.Intn(n))) }
	db := ntgd.NewDatabase()
	var facts []ntgd.Atom
	for i := 0; i < 10000; i++ {
		facts = append(facts, ntgd.A("edge", c("n", 1000), c("n", 1000)))
	}
	for e := 0; e < 1000; e++ {
		facts = append(facts, ntgd.A("emp", ntgd.C(fmt.Sprintf("e%d", e)), c("d", 100)))
	}
	for h := 0; h < 10; h++ {
		facts = append(facts, ntgd.A("hub", c("n", 1000)))
	}
	for d := 0; d < 30; d++ {
		facts = append(facts, ntgd.A("mgr", c("d", 100), c("e", 1000)))
	}
	if err := db.AddFacts(facts...); err != nil {
		b.Fatal(err)
	}
	db.Freeze()
	versions := []struct {
		sem   ntgd.Semantics
		rules string
		query string
	}{
		{ntgd.SO, `edge(X,Y), hub(Y) -> near(X,Y).
near(X,Y), edge(Y,Z), hub(Z) -> twohop(X,Z).
emp(E,D), mgr(D,M) -> reports(E,M).`, "?- twohop(n1, Z)."},
		{ntgd.LP, `emp(E,D) -> badge(E,B).
mgr(D,M) -> boss(M).
emp(E,D), not boss(E) -> staff(E).
edge(X,Y), not edge(Y,X) -> oneway(X,Y).`, "?- staff(e1)."},
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, v := range versions {
			p := ntgd.MustParse(v.rules + "\n" + v.query)
			s, err := ntgd.Compile(p, ntgd.CompileOptions{Semantics: v.sem, Database: db})
			if err != nil {
				b.Fatal(err)
			}
			if res, err := s.Entails(context.Background(), p.Queries[0], ntgd.Cautious); err != nil || res.Exhausted {
				b.Fatalf("%s: Entails = (%+v, %v)", v.sem, res, err)
			}
		}
	}
}
