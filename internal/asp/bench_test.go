package asp

import (
	"context"
	"fmt"
	"testing"
)

// choiceProgram builds n independent even loops (2^n stable models).
func choiceProgram(n int) *Program {
	p := &Program{NAtoms: 2 * n}
	for i := 0; i < n; i++ {
		a, bAtom := 2*i, 2*i+1
		p.Rules = append(p.Rules,
			Rule{Disjuncts: [][]int{{a}}, Neg: []int{bAtom}},
			Rule{Disjuncts: [][]int{{bAtom}}, Neg: []int{a}})
	}
	return p
}

func BenchmarkEnumerateChoices(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		p := choiceProgram(n)
		opt := seeded(p)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				count := 0
				if _, err := SolveCtx(context.Background(), p, opt, func(Model) bool {
					count++
					return true
				}); err != nil {
					b.Fatal(err)
				}
				if count != 1<<n {
					b.Fatalf("models=%d", count)
				}
			}
		})
	}
}

func BenchmarkWellFounded(b *testing.B) {
	// A long stratified chain: p0 <- not q0; q1 <- p0; ...
	n := 200
	p := &Program{NAtoms: 2 * n}
	p.Rules = append(p.Rules, Rule{Disjuncts: [][]int{{0}}})
	for i := 0; i+1 < n; i++ {
		p.Rules = append(p.Rules,
			Rule{Disjuncts: [][]int{{2 * (i + 1)}}, Pos: []int{2 * i}, Neg: []int{2*i + 1}})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := WellFounded(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDisjunctiveMinimality(b *testing.B) {
	// Saturation-style program: the minimality check must call SAT.
	n := 6
	p := &Program{NAtoms: n + 1}
	w := n
	var disj [][]int
	for i := 0; i < n; i++ {
		disj = append(disj, []int{i})
	}
	p.Rules = append(p.Rules, Rule{Disjuncts: disj})
	for i := 0; i < n; i++ {
		p.Rules = append(p.Rules, Rule{Disjuncts: [][]int{{i}}, Pos: []int{w}})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := allModels(b, p, SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
