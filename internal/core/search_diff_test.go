package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"ntgd/internal/chase"
	"ntgd/internal/classify"
	"ntgd/internal/engine"
	"ntgd/internal/logic"
	"ntgd/internal/parser"
)

// randomSearchProgram generates a small program exercising everything
// the stable-model search branches on: default negation, disjunction,
// and existential head variables — including programs with an empty
// database and rules with empty positive bodies (disjunctive facts,
// ground negation-only rules), which only the root agenda sweep can
// discover. Programs are kept small enough that the search terminates
// well inside the test budgets.
func randomSearchProgram(rng *rand.Rand) *logic.Program {
	consts := []string{"a", "b", "c"}
	unary := []string{"p", "q", "r", "s"}
	binary := []string{"e", "f"}
	var b strings.Builder
	for i := 0; i < rng.Intn(4); i++ {
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "%s(%s,%s).\n", binary[rng.Intn(len(binary))],
				consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))])
		} else {
			fmt.Fprintf(&b, "%s(%s).\n", unary[rng.Intn(len(unary))], consts[rng.Intn(len(consts))])
		}
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		switch rng.Intn(10) {
		case 0: // choice pair
			x, y, z := unary[rng.Intn(len(unary))], unary[rng.Intn(len(unary))], unary[rng.Intn(len(unary))]
			fmt.Fprintf(&b, "%s(X), not %s(X) -> %s(X).\n", x, y, z)
		case 1: // disjunction
			fmt.Fprintf(&b, "%s(X) -> %s(X) | %s(X).\n", unary[rng.Intn(len(unary))],
				unary[rng.Intn(len(unary))], unary[rng.Intn(len(unary))])
		case 2: // existential
			fmt.Fprintf(&b, "%s(X) -> %s(X,Y).\n", unary[rng.Intn(len(unary))], binary[rng.Intn(len(binary))])
		case 3: // projection
			fmt.Fprintf(&b, "%s(X,Y) -> %s(Y).\n", binary[rng.Intn(len(binary))], unary[rng.Intn(len(unary))])
		case 4: // join with negation
			fmt.Fprintf(&b, "%s(X,Y), not %s(Y) -> %s(X).\n", binary[rng.Intn(len(binary))],
				unary[rng.Intn(len(unary))], unary[rng.Intn(len(unary))])
		case 5: // disjunctive fact (empty positive body)
			fmt.Fprintf(&b, "-> %s(%s) | %s(%s).\n",
				unary[rng.Intn(len(unary))], consts[rng.Intn(len(consts))],
				unary[rng.Intn(len(unary))], consts[rng.Intn(len(consts))])
		case 6: // ground negation-only rule (empty positive body)
			fmt.Fprintf(&b, "not %s(%s) -> %s(%s).\n",
				unary[rng.Intn(len(unary))], consts[rng.Intn(len(consts))],
				unary[rng.Intn(len(unary))], consts[rng.Intn(len(consts))])
		case 7: // negation-free constraint (deterministic branch kill)
			fmt.Fprintf(&b, ":- %s(X), %s(X).\n",
				unary[rng.Intn(len(unary))], unary[rng.Intn(len(unary))])
		case 8: // constraint with negation (deferrable)
			fmt.Fprintf(&b, ":- %s(X), not %s(X).\n",
				unary[rng.Intn(len(unary))], unary[rng.Intn(len(unary))])
		default: // copy
			fmt.Fprintf(&b, "%s(X) -> %s(X).\n", unary[rng.Intn(len(unary))], unary[rng.Intn(len(unary))])
		}
	}
	prog, err := parser.Parse(b.String())
	if err != nil {
		return nil
	}
	for _, r := range prog.Rules {
		if r.Validate() != nil {
			return nil
		}
	}
	return prog
}

// canonicalModelSet enumerates all stable models under the given
// options and returns their canonical keys, sorted, plus the budget
// flag.
func canonicalModelSet(t *testing.T, db *logic.FactStore, rules []*logic.Rule, opt Options, naive bool) ([]string, bool) {
	t.Helper()
	var keys []string
	_, exhausted, err := enumStableModels(db, rules, opt, func(m *logic.FactStore) bool {
		keys = append(keys, canonicalModelKey(m))
		return true
	}, naive)
	if err != nil && !exhausted {
		t.Fatalf("search error: %v", err)
	}
	sort.Strings(keys)
	return keys, exhausted
}

// compiledModelSet runs one enumeration on c with the given run-time
// extra constants and returns its canonical keys, sorted, plus the
// budget flag. Every run after c's first starts from the budget probe
// and frozen root that run published.
func compiledModelSet(t *testing.T, c *Compiled, extras []logic.Term) ([]string, bool) {
	t.Helper()
	var keys []string
	_, exhausted, err := c.Enumerate(context.Background(), engine.Params{ExtraConstants: extras}, func(m *logic.FactStore) bool {
		keys = append(keys, canonicalModelKey(m))
		return true
	})
	if err != nil && !exhausted {
		t.Fatalf("search error: %v", err)
	}
	sort.Strings(keys)
	return keys, exhausted
}

// withExtras returns opt with the given compile-time extra constants:
// the naive oracle's counterpart of a run passing them per run.
func withExtras(opt Options, extras []logic.Term) Options {
	opt.ExtraConstants = extras
	return opt
}

// mustCompile compiles or fails the test.
func mustCompile(t *testing.T, db *logic.FactStore, rules []*logic.Rule, opt Options) *Compiled {
	t.Helper()
	c, err := Compile(db, rules, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// TestAgendaMatchesNaiveRandomized pins the delta-driven agenda search
// to the findTriggerNaive full-rescan oracle on 220 random programs
// with negation, disjunction, and existentials: both must emit exactly
// the same canonical model set. Exploration order (and hence stats) may
// differ; budget-exhausted runs are order-dependent and skipped. Each
// program runs twice on one Compiled, the second time with the extra
// constant d, so the second run starts from the frozen root the first
// one built and must match the naive oracle run with d; the naive
// oracle always starts from the database.
func TestAgendaMatchesNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1712))
	opt := Options{MaxAtoms: 48, MaxNodes: 1 << 17}
	compared, generated := 0, 0
	// The parallel and planner-off arms re-run every compared program;
	// their exhausted runs are skipped, and counted (see failOnSkips).
	parRuns, parSkipped, offRuns, offSkipped := 0, 0, 0, 0
	for generated < 220 {
		prog := randomSearchProgram(rng)
		if prog == nil {
			continue
		}
		generated++
		db := prog.Database()
		c := mustCompile(t, db, prog.Rules, opt)
		agendaKeys, exA := compiledModelSet(t, c, nil)
		cachedKeys, exC := compiledModelSet(t, c, extraD)
		naiveKeys, exN := canonicalModelSet(t, db, prog.Rules, opt, true)
		naiveD, exND := canonicalModelSet(t, db, prog.Rules, withExtras(opt, extraD), true)
		if !exC && !exND && fmt.Sprint(cachedKeys) != fmt.Sprint(naiveD) {
			t.Fatalf("cached-root run with extras diverges on program #%d:\n%s\nagenda: %d models %v\nnaive:  %d models %v",
				generated, progString(prog), len(cachedKeys), cachedKeys, len(naiveD), naiveD)
		}
		if exA || exN {
			continue // incomplete enumerations are order-dependent
		}
		if fmt.Sprint(agendaKeys) != fmt.Sprint(naiveKeys) {
			t.Fatalf("model sets diverge on program #%d:\n%s\nagenda: %d models %v\nnaive:  %d models %v",
				generated, progString(prog), len(agendaKeys), agendaKeys, len(naiveKeys), naiveKeys)
		}
		// Parallel pinning: the worker pool must emit exactly the
		// sequential canonical model set at every pool size (delivery
		// order may differ; the set may not).
		for _, w := range []int{2, 8} {
			popt := opt
			popt.Workers = w
			parKeys, exP := canonicalModelSet(t, db, prog.Rules, popt, false)
			parRuns++
			if exP {
				parSkipped++
				continue
			}
			if fmt.Sprint(parKeys) != fmt.Sprint(naiveKeys) {
				t.Fatalf("parallel model set diverges at workers=%d on program #%d:\n%s\nparallel: %d models %v\nnaive:    %d models %v",
					w, generated, progString(prog), len(parKeys), parKeys, len(naiveKeys), naiveKeys)
			}
		}
		// Planner differential (PR 6): branch-trigger selection is
		// plan-independent, so disabling the join planner must leave the
		// canonical model set untouched, sequentially and in parallel.
		restore := logic.SetJoinPlanning(false)
		offKeys, exO := canonicalModelSet(t, db, prog.Rules, opt, false)
		popt := opt
		popt.Workers = 8
		offPar, exOP := canonicalModelSet(t, db, prog.Rules, popt, false)
		restore()
		offRuns += 2
		for _, ex := range []bool{exO, exOP} {
			if ex {
				offSkipped++
			}
		}
		if !exO && fmt.Sprint(offKeys) != fmt.Sprint(naiveKeys) {
			t.Fatalf("planner-off model set diverges on program #%d:\n%s\noff: %d models %v\non:  %d models %v",
				generated, progString(prog), len(offKeys), offKeys, len(naiveKeys), naiveKeys)
		}
		if !exOP && fmt.Sprint(offPar) != fmt.Sprint(naiveKeys) {
			t.Fatalf("planner-off parallel model set diverges on program #%d:\n%s\noff: %d models %v\non:  %d models %v",
				generated, progString(prog), len(offPar), offPar, len(naiveKeys), naiveKeys)
		}
		compared++
	}
	if compared < 180 {
		t.Fatalf("only %d/220 programs completed within budget; grow the budgets", compared)
	}
	t.Logf("compared %d/%d random programs", compared, generated)
	failOnSkips(t, "parallel", parSkipped, parRuns)
	failOnSkips(t, "planner-off", offSkipped, offRuns)
}

// failOnSkips fails a randomized differential arm in which more than a
// quarter of the runs were skipped (exhausted runs cannot be compared),
// so a regression that pushes every run over budget cannot pass
// vacuously.
func failOnSkips(t *testing.T, arm string, skipped, runs int) {
	t.Helper()
	t.Logf("%s arm: %d of %d runs skipped", arm, skipped, runs)
	if 4*skipped > runs {
		t.Fatalf("%s arm: %d of %d runs skipped; the property was barely checked", arm, skipped, runs)
	}
}

// extraD is a constant none of the test programs mentions: passed per
// run, it enlarges the witness pool without changing the frozen root.
var extraD = []logic.Term{logic.C("d")}

// TestAgendaMatchesNaiveOnWorkedExamples repeats the pinning on the
// paper's worked programs, including the query-constant-enlarged
// witness pool, and again on a second run of the same Compiled with
// the extra constant d, which starts from the first run's frozen root.
func TestAgendaMatchesNaiveOnWorkedExamples(t *testing.T) {
	const father = `
person(alice).
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).
`
	cases := []struct {
		name  string
		src   string
		extra []logic.Term
	}{
		{"father", father, nil},
		{"father+bob", father, []logic.Term{logic.C("bob")}},
		{"choice", "item(a). item(b). item(c).\nitem(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n", nil},
		{"coloring", "node(a). node(b). edge(a,b).\nnode(X) -> red(X) | green(X).\nedge(X,Y), red(X), red(Y) -> clash.\nedge(X,Y), green(X), green(Y) -> clash.\n", nil},
		{"no-models", "p(0).\np(X), not t(X) -> r(X).\nr(X) -> t(X).\n", nil},
		{"shared-nulls", "seed(a).\nseed(X) -> pair(Y,Z).\n", nil},
		{"empty-db-disjunctive-fact", "-> p(a) | q(a).\n", nil},
		{"empty-db-negation-only", "not q(a) -> p(a).\nnot p(a) -> q(a).\n", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := mustParseInternal(t, tc.src)
			db := prog.Database()
			opt := Options{ExtraConstants: tc.extra}
			c := mustCompile(t, db, prog.Rules, opt)
			agendaKeys, _ := compiledModelSet(t, c, nil)
			naiveKeys, _ := canonicalModelSet(t, db, prog.Rules, opt, true)
			if fmt.Sprint(agendaKeys) != fmt.Sprint(naiveKeys) {
				t.Fatalf("model sets diverge:\nagenda: %v\nnaive:  %v", agendaKeys, naiveKeys)
			}
			cachedKeys, _ := compiledModelSet(t, c, extraD)
			naiveD, _ := canonicalModelSet(t, db, prog.Rules, withExtras(opt, append(append([]logic.Term(nil), tc.extra...), extraD...)), true)
			if fmt.Sprint(cachedKeys) != fmt.Sprint(naiveD) {
				t.Fatalf("cached-root model set with d diverges:\nagenda: %v\nnaive:  %v", cachedKeys, naiveD)
			}
			if len(agendaKeys) == 0 && tc.name != "no-models" {
				t.Fatalf("expected at least one model")
			}
			for _, w := range []int{2, 8} {
				popt := opt
				popt.Workers = w
				parKeys, _ := canonicalModelSet(t, db, prog.Rules, popt, false)
				if fmt.Sprint(parKeys) != fmt.Sprint(naiveKeys) {
					t.Fatalf("parallel model set diverges at workers=%d:\nparallel: %v\nnaive:    %v", w, parKeys, naiveKeys)
				}
			}
		})
	}
}

func progString(p *logic.Program) string {
	var b strings.Builder
	for _, a := range p.Facts {
		fmt.Fprintf(&b, "%s.\n", a)
	}
	for _, r := range p.Rules {
		fmt.Fprintf(&b, "%s.\n", r)
	}
	return b.String()
}

func mustParseInternal(t *testing.T, src string) *logic.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

// countdownCtx reports context.Canceled from its n-th Err call on, so
// it cuts a run at a deterministic point of its cancellation checks:
// in the budget probe's chase, in the root's deterministic closure, or
// later in the search.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// runOutcome is what a sequential run reports: its canonical model
// set, the budget flag, the error (whose text names a budget's bound)
// and its effort, less the deterministic steps, which only the run
// building the frozen root takes.
func runOutcome(t *testing.T, c *Compiled, ctx context.Context) string {
	t.Helper()
	var keys []string
	st, exhausted, err := c.Enumerate(ctx, engine.Params{}, func(m *logic.FactStore) bool {
		keys = append(keys, canonicalModelKey(m))
		return true
	})
	sort.Strings(keys)
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, engine.ErrMemory) && !errors.Is(err, ErrBudget) {
		t.Fatalf("run error outside the taxonomy: %v", err)
	}
	st.Deterministic = 0
	return fmt.Sprintf("err=%v exhausted=%v stats=%+v %v", err, exhausted, st, keys)
}

// checkPublished fails unless every artifact c published equals the
// one a complete run published on ref.
func checkPublished(t *testing.T, c, ref *Compiled, what string) {
	t.Helper()
	if p := c.probed; p != nil && (ref.probed == nil || *p != *ref.probed) {
		t.Fatalf("%s: published budget probe %+v, a complete run publishes %+v", what, *p, ref.probed)
	}
	if fr := c.root; fr != nil {
		want := ref.root
		if want == nil || fr.dead != want.dead || fr.derived != want.derived || fr.store.Len() != want.store.Len() ||
			len(fr.agenda.det) != 0 || len(fr.agenda.ndet) != len(want.agenda.ndet) {
			t.Fatalf("%s: published a root that differs from a complete run's (%+v vs %+v)", what, fr, want)
		}
	}
}

// TestCachedRootsSurviveCutShortRuns pins that the per-program
// artifacts are published only when complete: a first run cancelled at
// any of its cancellation checks, or cut short by MaxAtoms or
// MaxMemory, leaves the next run on the same Compiled with exactly the
// output of a fresh Compiled's run, also when the root is dead.
func TestCachedRootsSurviveCutShortRuns(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, "edge(c%d,c%d).\n", i, i+1)
	}
	b.WriteString("pick(c1). pick(c2).\n" +
		"edge(X,Y) -> path(X,Y).\npath(X,Y), edge(Y,Z) -> path(X,Z).\n" +
		"pick(X), not skip(X) -> take(X).\npick(X), not take(X) -> skip(X).\n")
	progs := []*logic.Program{
		mustParseInternal(t, b.String()),
		// The root closure fires the constraint: a dead root.
		mustParseInternal(t, "p(a). q(a).\np(X) -> r(X).\n:- r(X), q(X).\np(X), not s(X) -> t(X).\n"),
	}
	rng := rand.New(rand.NewSource(2718))
	for len(progs) < 30 {
		// Weakly acyclic programs only: their probe finishes, where any
		// other program's would run to the 16,384-atom cap per run.
		if p := randomSearchProgram(rng); p != nil && classify.IsWeaklyAcyclic(p.Rules) {
			progs = append(progs, p)
		}
	}
	check := func(i int, name string, prog *logic.Program, opt Options, first context.Context) string {
		db := prog.Database()
		c := mustCompile(t, db, prog.Rules, opt)
		firstOut := runOutcome(t, c, first)
		ref := mustCompile(t, db, prog.Rules, Options{Workers: 1})
		runOutcome(t, ref, context.Background())
		checkPublished(t, c, ref, fmt.Sprintf("program %d, %s", i, name))
		got := runOutcome(t, c, context.Background())
		want := runOutcome(t, mustCompile(t, db, prog.Rules, opt), context.Background())
		if got != want {
			t.Fatalf("program %d, %s: the run after a cut-short run differs from a fresh Compiled's\ngot:  %s\nwant: %s\nprogram:\n%s",
				i, name, got, want, progString(prog))
		}
		return firstOut
	}
	for i, prog := range progs {
		// Cancel at every check of the first run, until it completes.
		for k := int64(0); ; k++ {
			out := check(i, fmt.Sprintf("cancel@%d", k), prog, Options{Workers: 1}, newCountdownCtx(k))
			if !strings.Contains(out, context.Canceled.Error()) {
				break
			}
		}
		for _, n := range []int{1, 10, 100, 250} {
			check(i, fmt.Sprintf("maxatoms=%d", n), prog, Options{Workers: 1, MaxAtoms: n}, context.Background())
		}
		for _, n := range []int64{20, 400, 3000} {
			check(i, fmt.Sprintf("maxmemory=%d", n), prog, Options{Workers: 1, MaxMemory: n}, context.Background())
		}
	}
}

// TestBudgetExtrasTermRandomized pins the identity behind the one
// budget probe per Compiled: on random weakly acyclic programs and
// random extra-constant sets, the probe with the extras (one $qconst
// atom each, which no rule body matches) is the extras-free probe plus
// one atom per extra, so the default budget a run derives from the
// published extras-free probe equals the one a per-extras probe gives.
func TestBudgetExtrasTermRandomized(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3141))
	pool := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c"), logic.C("d"), logic.C("e")}
	lifted := 0
	for n := 0; n < 60; {
		prog := randomSearchProgram(rng)
		if prog == nil || !classify.IsWeaklyAcyclic(prog.Rules) {
			continue
		}
		n++
		// A larger database lifts the budget off its floor of 64.
		for i := 0; i < 300; i++ {
			k := logic.C(fmt.Sprintf("k%d", rng.Intn(60)))
			if i%3 == 0 {
				prog.Facts = append(prog.Facts, logic.A([]string{"e", "f"}[rng.Intn(2)], k, logic.C(fmt.Sprintf("k%d", rng.Intn(60)))))
			} else {
				prog.Facts = append(prog.Facts, logic.A([]string{"p", "q", "r", "s"}[rng.Intn(4)], k))
			}
		}
		db := prog.Database()
		c := mustCompile(t, db, prog.Rules, Options{})
		free, err := chase.ProbeStableSearch(ctx, db, prog.Rules, nil, 0)
		if err != nil {
			t.Fatalf("program %d: extras-free probe: %v", n, err)
		}
		for trial := 0; trial < 4; trial++ {
			perm := rng.Perm(len(pool))
			extras := make([]logic.Term, rng.Intn(len(pool)+1))
			for i := range extras {
				extras[i] = pool[perm[i]]
			}
			with, err := chase.ProbeStableSearch(ctx, db, prog.Rules, extras, 0)
			if err != nil {
				t.Fatalf("program %d: probe with %v: %v", n, extras, err)
			}
			if with != free+len(extras) {
				t.Fatalf("program %d: probe with %v has %d atoms, want %d + %d\n%s",
					n, extras, with, free, len(extras), progString(prog))
			}
			got, _ := c.defaultBudget(ctx, len(extras))
			if got > 64 {
				lifted++
			}
			if want := max(2*(with-db.Len()), 64); got != want {
				t.Fatalf("program %d: budget with %v = %d, a per-extras probe gives %d\n%s",
					n, extras, got, want, progString(prog))
			}
		}
	}
	if lifted < 40 {
		t.Fatalf("only %d/240 budgets above the floor; grow the databases", lifted)
	}
}
