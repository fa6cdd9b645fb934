package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"ntgd/internal/logic"
	"ntgd/internal/parser"
)

// sessionModelSet enumerates all stable models through the session
// path with the per-candidate oracle cross-check armed: every
// session verdict is compared against stableAgainstSubsetsNaive, and
// any disagreement counts as a mismatch.
func sessionModelSet(t *testing.T, db *logic.FactStore, rules []*logic.Rule, opt Options, workers int) ([]string, bool, int64) {
	t.Helper()
	keys, exhausted, mismatches := sessionModelSets(t, db, rules, opt, workers, nil)
	return keys[0], exhausted[0], mismatches
}

// sessionModelSets is sessionModelSet over several runs of one
// Compiled, run i passing runExtras[i] as its extra constants: every
// run after the first starts from the first's frozen root. It returns
// each run's keys and budget flag and the mismatches of all runs.
func sessionModelSets(t *testing.T, db *logic.FactStore, rules []*logic.Rule, opt Options, workers int, runExtras ...[]logic.Term) ([][]string, []bool, int64) {
	t.Helper()
	var mismatches atomic.Int64
	opt.stabOracle = &mismatches
	opt.Workers = workers
	c := mustCompile(t, db, rules, opt)
	keys := make([][]string, len(runExtras))
	exhausted := make([]bool, len(runExtras))
	for i, extras := range runExtras {
		keys[i], exhausted[i] = compiledModelSet(t, c, extras)
	}
	return keys, exhausted, mismatches.Load()
}

// TestStabilitySessionMatchesNaiveRandomized pins the incremental
// stability sessions to the full-rebuild oracle on 200 random programs
// with negation, disjunction, and existentials, at Workers 1, 2 and 8:
// every per-candidate session verdict must equal the naive verdict
// (counted via the stabOracle hook), and the emitted canonical model
// set must equal the naive enumeration's. Run under -race it also
// exercises session forks, including forks from pending layers (with
// two workers one happens whenever the single pool token frees). Each
// (program, workers) pair runs twice on one Compiled, the second time
// with the extra constant d: that run starts from the frozen root the
// first one built, fixes the root true in its sessions, and must match
// the naive oracle run with d (which starts from the database) with no
// verdict mismatch.
func TestStabilitySessionMatchesNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5417))
	opt := Options{MaxAtoms: 48, MaxNodes: 1 << 17}
	compared, generated := 0, 0
	for generated < 200 {
		prog := randomSearchProgram(rng)
		if prog == nil {
			continue
		}
		generated++
		db := prog.Database()
		naiveKeys, exN := canonicalModelSet(t, db, prog.Rules, opt, true)
		naiveD, exND := canonicalModelSet(t, db, prog.Rules, withExtras(opt, extraD), true)
		for _, workers := range []int{1, 2, 8} {
			runs, ex, mismatches := sessionModelSets(t, db, prog.Rules, opt, workers, nil, extraD)
			sessKeys, exS := runs[0], ex[0]
			if mismatches != 0 {
				t.Fatalf("program %d (workers=%d): %d session/naive verdict mismatches\nprogram:\n%v",
					generated, workers, mismatches, prog)
			}
			if !ex[1] && !exND && fmt.Sprint(runs[1]) != fmt.Sprint(naiveD) {
				t.Fatalf("program %d (workers=%d): cached-root run with d diverges\nsession: %v\nnaive:   %v",
					generated, workers, runs[1], naiveD)
			}
			if exS || exN {
				continue // incomplete enumerations are order-dependent
			}
			if len(sessKeys) != len(naiveKeys) {
				t.Fatalf("program %d (workers=%d): session %d models, naive %d\nprogram:\n%v",
					generated, workers, len(sessKeys), len(naiveKeys), prog)
			}
			for i := range sessKeys {
				if sessKeys[i] != naiveKeys[i] {
					t.Fatalf("program %d (workers=%d): model %d differs\nsession: %s\nnaive:   %s",
						generated, workers, i, sessKeys[i], naiveKeys[i])
				}
			}
			compared++
		}
		// Planner differential (PR 6): re-run the session path with the
		// join planner disabled — per-candidate verdicts (via the armed
		// oracle) and the canonical model set must be unchanged.
		restore := logic.SetJoinPlanning(false)
		for _, workers := range []int{1, 8} {
			offKeys, exO, mismatches := sessionModelSet(t, db, prog.Rules, opt, workers)
			if mismatches != 0 {
				restore()
				t.Fatalf("program %d (workers=%d, planner off): %d session/naive verdict mismatches\nprogram:\n%v",
					generated, workers, mismatches, prog)
			}
			if exO || exN {
				continue
			}
			if fmt.Sprint(offKeys) != fmt.Sprint(naiveKeys) {
				restore()
				t.Fatalf("program %d (workers=%d): planner-off model set diverges\noff: %v\non:  %v",
					generated, workers, offKeys, naiveKeys)
			}
		}
		restore()
	}
	if compared < 150 {
		t.Fatalf("only %d complete comparisons out of %d programs; budgets too tight", compared, generated)
	}
}

// saturationProgram builds the classic DATALOG∨ saturation encoding of
// certain-K-colorability for a labeled triangle: the saturated
// candidate (every color on every vertex plus w) is a model whose
// stability holds exactly when no proper coloring avoids w. It is the
// worked example that exposed two historical session bugs — a
// single-literal base clause stored as a global unit (poisoning the
// assumption ¬e₀), and an interior extension link superseded within
// its own window being pinned to true.
func saturationProgram(t *testing.T, colors int) *logic.Program {
	t.Helper()
	src := `
vtx(a). vtx(b). vtx(c).
bvar(p).
edgp(a,b,p). edgn(a,b,p).
edgp(b,c,p). edgn(b,c,p).
edgp(a,c,p). edgn(a,c,p).
bvar(V) -> tt(V) | ff(V).
w -> bad.
`
	guess := "vtx(X) -> "
	for c := 1; c <= colors; c++ {
		if c > 1 {
			guess += " | "
		}
		guess += fmt.Sprintf("col%d(X)", c)
	}
	src += guess + ".\n"
	for c := 1; c <= colors; c++ {
		src += fmt.Sprintf("edgp(X,Y,V), tt(V), col%d(X), col%d(Y) -> w.\n", c, c)
		src += fmt.Sprintf("edgn(X,Y,V), ff(V), col%d(X), col%d(Y) -> w.\n", c, c)
		src += fmt.Sprintf("w, vtx(X) -> col%d(X).\n", c)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestStabilitySessionSaturationWorkedExample pins the session against
// the naive enumeration on the saturation triangle: with 3 colors the
// saturated candidates are unstable (proper colorings exist below
// them) and must be rejected; with 2 colors they are stable. Both the
// canonical model sets and the per-candidate verdicts must agree at
// Workers 1 and 8.
func TestStabilitySessionSaturationWorkedExample(t *testing.T) {
	for _, colors := range []int{2, 3} {
		prog := saturationProgram(t, colors)
		db := prog.Database()
		opt := Options{MaxAtoms: 256, MaxNodes: 1 << 20}
		naiveKeys, exN := canonicalModelSet(t, db, prog.Rules, opt, true)
		if exN {
			t.Fatalf("colors=%d: naive enumeration exhausted", colors)
		}
		for _, workers := range []int{1, 8} {
			sessKeys, exS, mismatches := sessionModelSet(t, db, prog.Rules, opt, workers)
			if exS {
				t.Fatalf("colors=%d workers=%d: session enumeration exhausted", colors, workers)
			}
			if mismatches != 0 {
				t.Fatalf("colors=%d workers=%d: %d verdict mismatches", colors, workers, mismatches)
			}
			if len(sessKeys) != len(naiveKeys) {
				t.Fatalf("colors=%d workers=%d: session %d models, naive %d",
					colors, workers, len(sessKeys), len(naiveKeys))
			}
			for i := range sessKeys {
				if sessKeys[i] != naiveKeys[i] {
					t.Fatalf("colors=%d workers=%d: model %d differs", colors, workers, i)
				}
			}
		}
	}
}

// guardedChoiceProgram is a subset choice over the items i0..i(n-1):
// items below free may end up in or out, the rest are forced in by a
// constraint. With poison, one more item z may end up neither in nor
// out, so every leaf of the search dies on a constraint or fails a
// deferral promise.
func guardedChoiceProgram(t *testing.T, n, free int, poison bool) *logic.Program {
	t.Helper()
	var b strings.Builder
	b.WriteString("item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n:- out(X), forced(X).\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "item(i%d).\n", i)
		if i >= free {
			fmt.Fprintf(&b, "forced(i%d).\n", i)
		}
	}
	if poison {
		b.WriteString("item(z).\npoison(z).\n:- in(X), poison(X).\n:- out(X), poison(X).\n")
	}
	return mustParseInternal(t, b.String())
}

// sessionCounts runs the session search and returns its stats and its
// session tally: windows encoded, forks made, and the most variables
// one check's solver held.
func sessionCounts(t *testing.T, prog *logic.Program, workers int) (Stats, *stabCounts) {
	t.Helper()
	var counts stabCounts
	opt := Options{MaxAtoms: 256, Workers: workers, stabCounts: &counts}
	st, _, err := enumStableModels(prog.Database(), prog.Rules, opt, func(*logic.FactStore) bool { return true }, false)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return st, &counts
}

// TestStabilitySessionEncodesOnDemand pins on-demand session encoding:
// a branch point's window is encoded only when a candidate check or a
// fork below it needs it, so windows never exceed the layers on the
// root-to-leaf paths of the checks and forks — one per branch point
// (at most two per item) plus the leaf's. Encoding every branch
// point's window eagerly would encode at least one window per branch
// point; the sequential runs, which never fork, tell the two apart.
func TestStabilitySessionEncodesOnDemand(t *testing.T) {
	const n = 6
	const pathLayers = 2*n + 1
	for _, workers := range []int{1, 8} {
		// Poisoned: every leaf dies, so no candidate is ever checked.
		st, c := sessionCounts(t, guardedChoiceProgram(t, n, n, true), workers)
		windows, forks := c.windows.Load(), c.forks.Load()
		if st.Branches < 100 || st.StabilityChecks != 0 {
			t.Fatalf("workers=%d: poisoned choice made %d branches and %d checks, want >= 100 and 0",
				workers, st.Branches, st.StabilityChecks)
		}
		if bound := forks * pathLayers; windows > bound {
			t.Fatalf("workers=%d: %d windows encoded without a stability check after %d forks, want <= %d",
				workers, windows, forks, bound)
		}

		// Two free items: four candidate checks.
		st, c = sessionCounts(t, guardedChoiceProgram(t, n, 2, false), workers)
		windows, forks = c.windows.Load(), c.forks.Load()
		if st.ModelsEmitted != 4 || st.StabilityChecks != 4 {
			t.Fatalf("workers=%d: %d models after %d checks, want 4 and 4", workers, st.ModelsEmitted, st.StabilityChecks)
		}
		bound := (st.StabilityChecks + forks) * pathLayers
		if workers == 1 && st.Branches <= bound {
			t.Fatalf("workers=1: %d branches cannot tell on-demand from eager encoding (bound %d)", st.Branches, bound)
		}
		if windows == 0 || windows > bound {
			t.Fatalf("workers=%d: %d windows encoded for %d checks and %d forks, want 1..%d",
				workers, windows, st.StabilityChecks, forks, bound)
		}
	}
}

// TestStabilitySessionChecksLoadOnlyThePath pins that a check decides
// its candidate on the clauses of its own root-to-leaf session chain:
// the most variables any check's solver held depends on the path, not
// on how many sibling subtrees were encoded or checked before it. Every
// candidate of the guarded choice lies on a path of the same shape (one
// in/out choice per item), so four checks (two free items) and
// sixty-four checks (six free items) must load the same maximum, at
// every worker count. A solver shared across the checks would grow
// with every sibling subtree's encoding.
func TestStabilitySessionChecksLoadOnlyThePath(t *testing.T) {
	const n = 6
	for _, workers := range []int{1, 2, 8} {
		st, few := sessionCounts(t, guardedChoiceProgram(t, n, 2, false), workers)
		if st.StabilityChecks != 4 {
			t.Fatalf("workers=%d: %d checks with two free items, want 4", workers, st.StabilityChecks)
		}
		st, many := sessionCounts(t, guardedChoiceProgram(t, n, n, false), workers)
		if st.StabilityChecks != 64 {
			t.Fatalf("workers=%d: %d checks with six free items, want 64", workers, st.StabilityChecks)
		}
		if f, m := few.maxVars.Load(), many.maxVars.Load(); f == 0 || m != f {
			t.Fatalf("workers=%d: checks held up to %d variables after 4 checks and %d after 64, want equal and nonzero",
				workers, f, m)
		}
	}
}

// TestOneShotSessionMatchesNaive pins the standalone
// stableAgainstSubsets (the throwaway-session path behind
// IsStableModel) to the naive oracle, both on genuine stable models
// and on adversarial non-model supersets — the stability condition is
// defined for any candidate atom set, so the two encoders must agree
// everywhere.
func TestOneShotSessionMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9291))
	opt := Options{MaxAtoms: 40, MaxNodes: 1 << 16}
	checked := 0
	for generated := 0; generated < 120; {
		prog := randomSearchProgram(rng)
		if prog == nil {
			continue
		}
		generated++
		db := prog.Database()
		var candidates []*logic.FactStore
		_, _, err := enumStableModelsNaive(db, prog.Rules, opt, func(m *logic.FactStore) bool {
			candidates = append(candidates, m)
			return len(candidates) < 4
		})
		if err != nil {
			continue
		}
		for _, m := range candidates {
			if got, want := stableAgainstSubsets(db, prog.Rules, m), stableAgainstSubsetsNaive(db, prog.Rules, m); got != want {
				t.Fatalf("verdicts differ on emitted model: session=%v naive=%v\nmodel: %s\nprogram:\n%v",
					got, want, m.CanonicalString(), prog)
			}
			checked++
			// Adversarial superset: add atoms over the model's domain.
			sup := m.Clone()
			dom := sup.Domain()
			if len(dom) == 0 {
				continue
			}
			for i := 0; i < 3; i++ {
				sup.Add(logic.A("p", dom[rng.Intn(len(dom))]))
			}
			if got, want := stableAgainstSubsets(db, prog.Rules, sup), stableAgainstSubsetsNaive(db, prog.Rules, sup); got != want {
				t.Fatalf("verdicts differ on superset: session=%v naive=%v\ncandidate: %s\nprogram:\n%v",
					got, want, sup.CanonicalString(), prog)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d candidate comparisons; generator too weak", checked)
	}
}
