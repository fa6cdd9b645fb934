package sat

import (
	"math/rand"
	"testing"
)

func TestTrivialCases(t *testing.T) {
	s := New()
	if !s.Solve() {
		t.Fatalf("empty instance is satisfiable")
	}
	s.AddClause(1)
	if !s.Solve() || !s.Value(1) {
		t.Fatalf("unit clause")
	}
	s.AddClause(-1)
	if s.Solve() {
		t.Fatalf("x ∧ ¬x is unsatisfiable")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.AddClause()
	if s.Solve() {
		t.Fatalf("empty clause must yield UNSAT")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	s.AddClause(1, -1)
	if s.NClauses() != 0 {
		t.Fatalf("tautology should be dropped")
	}
	if !s.Solve() {
		t.Fatalf("tautology-only instance is satisfiable")
	}
}

func TestSmallUnsatCore(t *testing.T) {
	// (a∨b) ∧ (a∨¬b) ∧ (¬a∨b) ∧ (¬a∨¬b)
	s := New()
	s.AddClause(1, 2)
	s.AddClause(1, -2)
	s.AddClause(-1, 2)
	s.AddClause(-1, -2)
	if s.Solve() {
		t.Fatalf("complete 2-variable contradiction must be UNSAT")
	}
}

func TestImplicationChain(t *testing.T) {
	// x1 ∧ (x1→x2) ∧ … ∧ (x99→x100)
	s := New()
	s.AddClause(1)
	for v := 1; v < 100; v++ {
		s.AddClause(-v, v+1)
	}
	if !s.Solve() {
		t.Fatalf("chain is satisfiable")
	}
	for v := 1; v <= 100; v++ {
		if !s.Value(v) {
			t.Fatalf("x%d must be true", v)
		}
	}
}

func TestPigeonhole32(t *testing.T) {
	// 3 pigeons, 2 holes: UNSAT. Var p(i,h) = i*2 + h + 1.
	s := New()
	v := func(i, h int) int { return i*2 + h + 1 }
	for i := 0; i < 3; i++ {
		s.AddClause(v(i, 0), v(i, 1))
	}
	for h := 0; h < 2; h++ {
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				s.AddClause(-v(i, h), -v(j, h))
			}
		}
	}
	if s.Solve() {
		t.Fatalf("PHP(3,2) must be UNSAT")
	}
}

func TestSolveAssuming(t *testing.T) {
	s := New()
	s.AddClause(1, 2)
	if !s.Solve(-1) || !s.Value(2) {
		t.Fatalf("assuming ¬x1 forces x2")
	}
	if !s.Solve(-2) || !s.Value(1) {
		t.Fatalf("assuming ¬x2 forces x1")
	}
	if s.Solve(-1, -2) {
		t.Fatalf("assuming both false is UNSAT")
	}
	// Solver remains reusable after assumption calls.
	if !s.Solve() {
		t.Fatalf("instance is satisfiable without assumptions")
	}
}

// bruteSat is a reference implementation for the property test.
func bruteSat(nVars int, clauses [][]int) bool {
	for mask := 0; mask < 1<<nVars; mask++ {
		ok := true
		for _, cl := range clauses {
			clOK := false
			for _, lit := range cl {
				v := lit
				if v < 0 {
					v = -v
				}
				val := mask&(1<<(v-1)) != 0
				if val == (lit > 0) {
					clOK = true
					break
				}
			}
			if !clOK {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandomAgainstBrute (property): the DPLL verdict matches brute
// force on random 3-CNF instances. Every instance is solved twice: on a
// fresh solver, and on one solver reused through Reset across all
// instances, whose verdict and model must be just as good.
func TestRandomAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	reused := New()
	for iter := 0; iter < 300; iter++ {
		nVars := 2 + rng.Intn(8)
		nClauses := 1 + rng.Intn(4*nVars)
		var clauses [][]int
		s := New()
		reused.Reset()
		for i := 0; i < nClauses; i++ {
			width := 1 + rng.Intn(3)
			cl := make([]int, 0, width)
			for j := 0; j < width; j++ {
				lit := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					lit = -lit
				}
				cl = append(cl, lit)
			}
			clauses = append(clauses, cl)
			s.AddClause(cl...)
			reused.AddClause(cl...)
		}
		want := bruteSat(nVars, clauses)
		for _, c := range []struct {
			name string
			s    *Solver
		}{{"fresh", s}, {"reset", reused}} {
			got := c.s.Solve()
			if got != want {
				t.Fatalf("iter %d (%s): solver=%v brute=%v clauses=%v", iter, c.name, got, want, clauses)
			}
			if got {
				checkModel(t, c.s, clauses, iter, c.name)
			}
		}
	}
}

// checkModel fails unless the solver's last model satisfies every
// clause.
func checkModel(t *testing.T, s *Solver, clauses [][]int, iter int, name string) {
	t.Helper()
	for _, cl := range clauses {
		ok := false
		for _, lit := range cl {
			v := lit
			if v < 0 {
				v = -v
			}
			if s.Value(v) == (lit > 0) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("iter %d (%s): returned model violates clause %v", iter, name, cl)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New()
	for v := 1; v <= 6; v += 2 {
		s.AddClause(v, v+1)
		s.AddClause(-v, -(v + 1))
	}
	if !s.Solve() {
		t.Fatalf("satisfiable")
	}
	if s.Decisions == 0 {
		t.Fatalf("expected at least one decision")
	}
}

// TestPigeonholeUnderAssumptions pins the assumption mechanism on a
// formula whose unsatisfiability is only triggered by the assumptions:
// PHP(n+1, n) with every placement variable guarded by a per-pigeon
// activation literal. The instance is SAT while any guard is free and
// UNSAT exactly when all guards are assumed, and the same solver
// instance must answer both phases (clauses intact across calls).
func TestPigeonholeUnderAssumptions(t *testing.T) {
	const holes = 4
	const pigeons = holes + 1
	s := New()
	v := func(i, h int) int { return i*holes + h + 1 }
	act := make([]int, pigeons) // activation var per pigeon, above the placement block
	for i := 0; i < pigeons; i++ {
		act[i] = pigeons*holes + i + 1
	}
	for i := 0; i < pigeons; i++ {
		cl := []int{-act[i]}
		for h := 0; h < holes; h++ {
			cl = append(cl, v(i, h))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for i := 0; i < pigeons; i++ {
			for j := i + 1; j < pigeons; j++ {
				s.AddClause(-v(i, h), -v(j, h))
			}
		}
	}
	if !s.Solve() {
		t.Fatalf("unguarded PHP must be SAT (all guards may be false)")
	}
	// Activating all but one pigeon stays SAT...
	for skip := 0; skip < pigeons; skip++ {
		assumps := make([]int, 0, pigeons-1)
		for i := 0; i < pigeons; i++ {
			if i != skip {
				assumps = append(assumps, act[i])
			}
		}
		if !s.Solve(assumps...) {
			t.Fatalf("PHP with pigeon %d deactivated must be SAT", skip)
		}
	}
	// ...while activating every pigeon is UNSAT, repeatedly.
	all := append([]int(nil), act...)
	for round := 0; round < 3; round++ {
		if s.Solve(all...) {
			t.Fatalf("round %d: PHP(%d,%d) under full assumptions must be UNSAT", round, pigeons, holes)
		}
	}
	// The clause database survived every call.
	if !s.Solve() {
		t.Fatalf("solver must remain SAT once assumptions are dropped")
	}
}

// TestRepeatedSolveGrowingClauses drives one instance through an
// AddClause/Solve interleaving: an implication cycle is grown one edge
// per round and solved under both polarities of the seed assumption
// after every extension, finishing with a contradiction that flips the
// verdict permanently.
func TestRepeatedSolveGrowingClauses(t *testing.T) {
	const n = 32
	s := New()
	for v := 1; v < n; v++ {
		s.AddClause(-v, v+1) // x_v -> x_{v+1}
		if !s.Solve(1) {
			t.Fatalf("round %d: chain under x1 must be SAT", v)
		}
		for u := 1; u <= v+1; u++ {
			if !s.Value(u) {
				t.Fatalf("round %d: x%d must propagate true under x1", v, u)
			}
		}
		if !s.Solve(-(v + 1)) {
			t.Fatalf("round %d: chain under ¬x%d must be SAT", v, v+1)
		}
		if s.Value(1) {
			t.Fatalf("round %d: ¬x%d must propagate ¬x1 up the chain", v, v+1)
		}
	}
	s.AddClause(-n) // close the contradiction under x1
	if s.Solve(1) {
		t.Fatalf("x1 with x1→…→x%d and ¬x%d must be UNSAT", n, n)
	}
	if !s.Solve(-1) {
		t.Fatalf("¬x1 must remain SAT")
	}
	if !s.Solve() {
		t.Fatalf("instance without assumptions must remain SAT")
	}
}

// TestDuplicateAndTautologyClauses pins AddClause's normalization: the
// stability encoder can emit clauses with repeated literals (the same
// witness variable reached through different head atoms) and opposed
// literals; duplicates must collapse and tautologies vanish without
// corrupting the instance.
func TestDuplicateAndTautologyClauses(t *testing.T) {
	s := New()
	s.AddClause(1, 1, 1)
	if s.NClauses() != 0 {
		t.Fatalf("triplicated unit should normalize to a unit, got %d stored clauses", s.NClauses())
	}
	if !s.Solve() || !s.Value(1) {
		t.Fatalf("x ∨ x ∨ x must behave as the unit x")
	}
	s.AddClause(2, -2, 3)
	if s.NClauses() != 0 {
		t.Fatalf("tautological clause must be dropped")
	}
	s.AddClause(-1, 2, 2, -1)
	if s.NClauses() != 1 {
		t.Fatalf("duplicated binary should store one two-literal clause, got %d", s.NClauses())
	}
	if !s.Solve() || !s.Value(2) {
		t.Fatalf("¬x1 ∨ x2 under unit x1 must force x2")
	}
	if s.Solve(-2) {
		t.Fatalf("assuming ¬x2 contradicts x1 ∧ (¬x1∨x2)")
	}
	// A clause that normalizes to empty is impossible (duplicates and
	// complements only shrink toward tautology), but an explicit empty
	// clause must poison the instance permanently.
	s.AddClause()
	if s.Solve() || s.Solve(3) {
		t.Fatalf("empty clause must be UNSAT under any assumptions")
	}
}

// TestAssumptionsMatchBrute (property): Solve under random assumptions
// agrees with brute force over the clause set extended by the
// assumption units. Every query is answered twice: by a fresh solver
// per instance, and by one solver reused through Reset across all
// instances.
func TestAssumptionsMatchBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	reused := New()
	for iter := 0; iter < 200; iter++ {
		nVars := 2 + rng.Intn(7)
		nClauses := 1 + rng.Intn(3*nVars)
		var clauses [][]int
		s := New()
		reused.Reset()
		for s.NVars() < nVars {
			s.NewVar()
			reused.NewVar()
		}
		for i := 0; i < nClauses; i++ {
			width := 1 + rng.Intn(3)
			cl := make([]int, 0, width)
			for j := 0; j < width; j++ {
				lit := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					lit = -lit
				}
				cl = append(cl, lit)
			}
			clauses = append(clauses, cl)
			s.AddClause(cl...)
			reused.AddClause(cl...)
		}
		// Several assumption queries against the same instance.
		for q := 0; q < 4; q++ {
			var assumps []int
			seen := map[int]bool{}
			for j := 0; j < rng.Intn(nVars+1); j++ {
				v := 1 + rng.Intn(nVars)
				if seen[v] {
					continue
				}
				seen[v] = true
				if rng.Intn(2) == 0 {
					assumps = append(assumps, -v)
				} else {
					assumps = append(assumps, v)
				}
			}
			ext := append([][]int{}, clauses...)
			for _, a := range assumps {
				ext = append(ext, []int{a})
			}
			want := bruteSat(nVars, ext)
			if got := s.Solve(assumps...); got != want {
				t.Fatalf("iter %d q %d: solver=%v brute=%v assumps=%v clauses=%v",
					iter, q, got, want, assumps, clauses)
			}
			if got := reused.Solve(assumps...); got != want {
				t.Fatalf("iter %d q %d (reset): solver=%v brute=%v assumps=%v clauses=%v",
					iter, q, got, want, assumps, clauses)
			}
		}
	}
}
