package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

// random3CNF builds an n-variable, m-clause instance.
func random3CNF(rng *rand.Rand, n, m int) *Solver {
	s := New()
	for i := 0; i < m; i++ {
		cl := make([]int, 3)
		for j := range cl {
			lit := 1 + rng.Intn(n)
			if rng.Intn(2) == 0 {
				lit = -lit
			}
			cl[j] = lit
		}
		s.AddClause(cl...)
	}
	return s
}

func BenchmarkSolveRandom3CNF(b *testing.B) {
	for _, size := range []struct{ n, m int }{{20, 60}, {50, 150}, {100, 300}} {
		b.Run(fmt.Sprintf("n%dm%d", size.n, size.m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rng := rand.New(rand.NewSource(int64(i)))
				s := random3CNF(rng, size.n, size.m)
				b.StartTimer()
				_ = s.Solve()
			}
		})
	}
}

func BenchmarkSolvePigeonhole(b *testing.B) {
	// PHP(5,4): small but genuinely hard for plain DPLL.
	build := func() *Solver {
		s := New()
		v := func(i, h int) int { return i*4 + h + 1 }
		for i := 0; i < 5; i++ {
			s.AddClause(v(i, 0), v(i, 1), v(i, 2), v(i, 3))
		}
		for h := 0; h < 4; h++ {
			for i := 0; i < 5; i++ {
				for j := i + 1; j < 5; j++ {
					s.AddClause(-v(i, h), -v(j, h))
				}
			}
		}
		return s
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if build().Solve() {
			b.Fatal("PHP(5,4) must be UNSAT")
		}
	}
}

func BenchmarkUnitPropagationChain(b *testing.B) {
	s := New()
	s.AddClause(1)
	for v := 1; v < 2000; v++ {
		s.AddClause(-v, v+1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.Solve() {
			b.Fatal("chain is SAT")
		}
	}
}

// BenchmarkSolveAssumptions pins the query patterns of the stability
// checker over one formula, guarded PHP(5,4) (every pigeon's placement
// clause carries an activation literal), whose queries' assumptions
// select which guards are active. reuse solves one instance, built
// once, under rotating assumption sets; reset is the checker's pattern,
// one solver that Reset empties and the formula is re-added to for
// every query; rebuild builds a new solver per query, the allocation
// cost that Reset exists to avoid.
func BenchmarkSolveAssumptions(b *testing.B) {
	const holes, pigeons = 4, 5
	v := func(i, h int) int { return i*holes + h + 1 }
	act := func(i int) int { return pigeons*holes + i + 1 }
	var formula [][]int
	for i := 0; i < pigeons; i++ {
		cl := []int{-act(i)}
		for h := 0; h < holes; h++ {
			cl = append(cl, v(i, h))
		}
		formula = append(formula, cl)
	}
	for h := 0; h < holes; h++ {
		for i := 0; i < pigeons; i++ {
			for j := i + 1; j < pigeons; j++ {
				formula = append(formula, []int{-v(i, h), -v(j, h)})
			}
		}
	}
	load := func(s *Solver) *Solver {
		for _, cl := range formula {
			s.AddClause(cl...)
		}
		return s
	}
	build := func() *Solver { return load(New()) }
	queries := make([][]int, pigeons+1)
	for skip := 0; skip < pigeons; skip++ {
		for i := 0; i < pigeons; i++ {
			if i != skip {
				queries[skip] = append(queries[skip], act(i))
			}
		}
	}
	for i := 0; i < pigeons; i++ { // the UNSAT query: all guards active
		queries[pigeons] = append(queries[pigeons], act(i))
	}
	b.Run("reuse", func(b *testing.B) {
		s := build()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			want := i%len(queries) < pigeons
			if s.Solve(q...) != want {
				b.Fatalf("query %d: want sat=%v", i%len(queries), want)
			}
		}
	})
	b.Run("reset", func(b *testing.B) {
		s := build()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Reset()
			q := queries[i%len(queries)]
			want := i%len(queries) < pigeons
			if load(s).Solve(q...) != want {
				b.Fatalf("query %d: want sat=%v", i%len(queries), want)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := build()
			q := queries[i%len(queries)]
			want := i%len(queries) < pigeons
			if s.Solve(q...) != want {
				b.Fatalf("query %d: want sat=%v", i%len(queries), want)
			}
		}
	})
}
