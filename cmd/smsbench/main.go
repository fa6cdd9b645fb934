// Command smsbench reproduces the paper's experiments E1–E15: the
// verdicts of the worked examples, the Figure 1 marking, the
// decidability and complexity results, and the Section 7.1 encodings.
// Each experiment is defined once, in the table below, and returns
// checked rows: the value the engine got beside the value it must
// equal, which is the paper's verdict or an independent oracle (brute
// force, the SAT oracle, or the other semantics). What is not a verdict
// — model listings, the SM formula, markings, timings and node counts —
// is printed and not checked. TestExperiments asserts every row,
// BenchmarkExperiments times each experiment, and this command prints
// them, all experiments or a comma-separated subset:
//
//	smsbench            # all
//	smsbench -run E1,E5
//
// Each row prints with a pass mark, ✓ or ✗. The exit status is 1 when a
// row differs or an experiment stops on an error, and 2 on a usage
// error. -workers sets the worker-pool size of the SO/operational
// searches (default 1 so experiment output stays reproducible; 0 =
// GOMAXPROCS). -timeout ends the run after a while: the interrupted
// experiment reports its partial effort, and the status is 1.
//
// To profile one experiment, profile its benchmark:
//
//	go test -run '^$' -bench 'Experiments/E7' -cpuprofile cpu.out ./cmd/smsbench
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"ntgd"
	"ntgd/internal/baget"
	"ntgd/internal/chase"
	"ntgd/internal/classify"
	"ntgd/internal/core"
	"ntgd/internal/efwfs"
	"ntgd/internal/encodings"
	"ntgd/internal/engine"
	"ntgd/internal/lp"
	"ntgd/internal/qbf"
	"ntgd/internal/soformula"
	"ntgd/internal/transform"
)

// An experiment reproduces one result of the paper.
type experiment struct {
	id, title string
	run       func(x *trial)
}

var experiments = []experiment{
	{"E1", "Examples 1/2/4 — father program, SO vs LP verdicts", runE1},
	{"E2", "Example 2 under the operational semantics of [3]", runE2},
	{"E3", "EFWFS (bounded family) on Examples 2 and 3", runE3},
	{"E4", "Section 3.2/3.3 — minimal models vs stable models", runE4},
	{"E5", "Figure 1 — stickiness marking", runE5},
	{"E6", "Theorem 1 — LP and SO coincide on Skolemized programs", runE6},
	{"E7", "Theorems 3/6 — WATGD¬ scaling vs positive chase", runE7},
	{"E8", "Section 5.3 — 2-QBF∃ reduction vs direct evaluation", runE8},
	{"E9", "Theorems 4/5 — sticky and guarded gadgets diverge", runE9},
	{"E10", "Lemma 13 — disjunction elimination preserves answers", runE10},
	{"E11", "Theorem 15 — DATALOG∨ vs WATGD¬ on 2-coloring saturation", runE11},
	{"E12", "Section 7.1 — 2-QBF∃ via WATGD¬ under brave semantics", runE12},
	{"E13", "Section 7.1 — certain k-colorability (CERT3COL-style)", runE13},
	{"E14", "Section 7.1 — consistent query answering (⊆-repairs)", runE14},
	{"E15", "Theorems 19/20 — LP vs SO model spaces", runE15},
}

// A row is one checked verdict: the value the engine got and the value
// it must equal.
type row struct {
	label     string
	got, want any
}

func (r row) ok() bool { return r.got == r.want }

// A trial is one run of an experiment: its context and worker count
// in, its rows out, and rows and notes printed to w as they come.
type trial struct {
	ctx     context.Context
	workers int
	w       io.Writer
	rows    []row
}

// abort carries the error that stops an experiment out of it;
// runExperiment recovers it.
type abort struct{ err error }

// runExperiment runs one experiment and returns its rows, with the
// error that stopped it early, if one did.
func runExperiment(ctx context.Context, e experiment, workers int, w io.Writer) (rows []row, err error) {
	x := &trial{ctx: ctx, workers: workers, w: w}
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(abort)
			if !ok {
				panic(r)
			}
			rows, err = x.rows, a.err
		}
	}()
	e.run(x)
	return x.rows, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, experiments))
}

func run(argv []string, stdout, stderr io.Writer, table []experiment) int {
	fs := flag.NewFlagSet("smsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runFlag := fs.String("run", "all", "comma-separated experiment ids (E1..E15) or 'all'")
	workers := fs.Int("workers", 1, "worker pool size for the SO/operational searches (1 = sequential, reproducible output order; 0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "end the run after this long, reporting the interrupted experiment's partial effort (0 = none)")
	if fs.Parse(argv) != nil {
		return 2
	}
	selected := table
	if *runFlag != "all" {
		selected = nil
		for _, id := range strings.Split(*runFlag, ",") {
			i := slices.IndexFunc(table, func(e experiment) bool { return e.id == strings.TrimSpace(id) })
			if i < 0 {
				fmt.Fprintf(stderr, "smsbench: unknown experiment %q\n", id)
				return 2
			}
			selected = append(selected, table[i])
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	differ := 0
	for _, e := range selected {
		fmt.Fprintf(stdout, "== %s: %s ==\n", e.id, e.title)
		rows, err := runExperiment(ctx, e, *workers, stdout)
		for _, r := range rows {
			if !r.ok() {
				differ++
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "smsbench: %s: %v\n", e.id, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	if differ > 0 {
		fmt.Fprintf(stderr, "smsbench: %d row(s) differ from the paper or their oracle\n", differ)
		return 1
	}
	return 0
}

// check records a row and prints it with its pass mark.
func (x *trial) check(label string, got, want any) {
	r := row{label, got, want}
	x.rows = append(x.rows, r)
	mark := "✓"
	if !r.ok() {
		mark = "✗"
	}
	fmt.Fprintf(x.w, "%s %s: %v (want %v)\n", mark, label, got, want)
}

// note prints what is not a verdict, indented under the rows.
func (x *trial) note(format string, args ...any) {
	lines := strings.Split(strings.TrimRight(fmt.Sprintf(format, args...), "\n"), "\n")
	for _, l := range lines {
		fmt.Fprintf(x.w, "    %s\n", l)
	}
}

// must stops the experiment on err.
func (x *trial) must(err error) {
	if err != nil {
		panic(abort{err})
	}
}

// mustRun stops the experiment on a run's error, reporting the run's
// partial effort: the experiments are sized to complete, so a
// truncated enumeration would corrupt their rows.
func (x *trial) mustRun(st engine.Stats, err error) {
	if err != nil {
		x.must(fmt.Errorf("%w (partial effort: nodes=%d models=%d)", err, st.Nodes, st.ModelsEmitted))
	}
}

func (x *trial) so(db *ntgd.FactStore, rules []*ntgd.Rule, opt core.Options) engine.Engine {
	opt.Workers = x.workers
	c, err := core.Compile(db, rules, opt)
	x.must(err)
	return c
}

func (x *trial) op(db *ntgd.FactStore, rules []*ntgd.Rule) engine.Engine {
	c, err := baget.Compile(db, rules, core.Options{Workers: x.workers})
	x.must(err)
	return c
}

func (x *trial) lp(db *ntgd.FactStore, rules []*ntgd.Rule) engine.Engine {
	c, err := lp.Compile(db, rules, lp.Options{})
	x.must(err)
	return c
}

func (x *trial) cautious(e engine.Engine, q ntgd.Query) bool {
	res, err := engine.CautiousEntails(x.ctx, e, engine.Params{}, q)
	x.mustRun(res.Stats, err)
	return res.Entailed
}

func (x *trial) brave(e engine.Engine, q ntgd.Query) bool {
	res, err := engine.BraveEntails(x.ctx, e, engine.Params{}, q)
	x.mustRun(res.Stats, err)
	return res.Entailed
}

func (x *trial) models(e engine.Engine) []*ntgd.FactStore {
	res, err := engine.CollectModels(x.ctx, e, engine.Params{}, 0)
	x.mustRun(res.Stats, err)
	return res.Models
}

// modelsBudgeted is models for runs that exhaust a budget on purpose
// (E9's divergence gadgets): ErrBudget passes, with Result.Exhausted
// marking the truncation.
func (x *trial) modelsBudgeted(e engine.Engine, maxModels int) *engine.Result {
	res, err := engine.CollectModels(x.ctx, e, engine.Params{}, maxModels)
	if !errors.Is(err, engine.ErrBudget) {
		x.mustRun(res.Stats, err)
	}
	return res
}

func verdict(v bool) string {
	if v {
		return "entailed"
	}
	return "not entailed"
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f ms", float64(d.Microseconds())/1000) }

const fatherSrc = `
person(alice).
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).
`

// E1 — Examples 1, 2, 4: the verdict matrix for the father program
// under SO vs LP.
func runE1(x *trial) {
	prog := ntgd.MustParse(fatherSrc + `
?- person(alice), not hasFather(alice,bob).
?- person(X), not abnormal(X).
?- person(X), abnormal(X).
`)
	db := prog.Database()
	so, lp := x.so(db, prog.Rules, core.Options{}), x.lp(db, prog.Rules)
	for i, q := range []struct {
		name   string
		so, lp bool // the paper's verdicts
	}{
		{"q1 = ¬hasFather(alice,bob)", false, true}, // SO refutes, LP wrongly entails
		{"q2 = ∃X person ∧ ¬abnormal", true, true},
		{"q3 = ∃X person ∧ abnormal", false, false},
	} {
		x.check(q.name+", SO", verdict(x.cautious(so, prog.Queries[i])), verdict(q.so))
		x.check(q.name+", LP", verdict(x.cautious(lp, prog.Queries[i])), verdict(q.lp))
	}
	// Without query constants the father is alice or a fresh null.
	models := x.models(so)
	x.check("SO stable models (no query constants)", len(models), 2)
	for _, m := range models {
		x.note("%s", m.CanonicalString())
	}
	bob := ntgd.StoreOf(
		ntgd.A("person", ntgd.C("alice")),
		ntgd.A("hasFather", ntgd.C("alice"), ntgd.C("bob")),
		ntgd.A("sameAs", ntgd.C("bob"), ntgd.C("bob")),
	)
	x.check("Example 4: J with hasFather(alice,bob) is stable", core.IsStableModel(db, prog.Rules, bob), true)
}

// E2 — the operational semantics of Baget et al. [3] on Example 2.
func runE2(x *trial) {
	prog := ntgd.MustParse(fatherSrc + "?- person(alice), not hasFather(alice,bob).")
	op := x.op(prog.Database(), prog.Rules)
	// The paper: unexpectedly entailed, since witnesses are fresh nulls only.
	x.check("q = ¬hasFather(alice,bob)", verdict(x.cautious(op, prog.Queries[0])), "entailed")
	for _, m := range x.models(op) {
		x.note("operational model: %s", m.CanonicalString())
	}
}

// E3 — EFWFS on Examples 2 and 3.
func runE3(x *trial) {
	prog := ntgd.MustParse(fatherSrc)
	q2 := ntgd.MustParse(fatherSrc + "?- person(alice), not hasFather(alice,bob).").Queries[0]
	q3 := ntgd.MustParse(fatherSrc + "?- person(alice), not abnormal(alice).").Queries[0]
	v2, err := efwfs.Entails(prog.Database(), prog.Rules, q2, efwfs.Options{FreshConstants: 1, MaxInstancesPerAssignment: 1})
	x.must(err)
	// The paper: not entailed, the intended answer.
	x.check("Example 2, q = ¬hasFather(alice,bob)", verdict(v2.Entailed), "not entailed")
	v3, err := efwfs.Entails(prog.Database(), prog.Rules, q3, efwfs.Options{FreshConstants: 2, MaxInstancesPerAssignment: 2})
	x.must(err)
	// The paper: unexpectedly not entailed.
	x.check("Example 3, q = ¬abnormal(alice)", verdict(v3.Entailed), "not entailed")
	if v3.CounterTrue != nil {
		x.note("counterexample WFS model: %s", v3.CounterTrue.CanonicalString())
	}
}

// E4 — MM[D,Σ] vs SM[D,Σ] on the Section 3.2 program.
func runE4(x *trial) {
	prog := ntgd.MustParse(`
p(0).
p(X), not t(X) -> r(X).
r(X) -> t(X).
`)
	db := prog.Database()
	j := ntgd.StoreOf(ntgd.A("p", ntgd.C("0")), ntgd.A("t", ntgd.C("0")))
	x.check("J = {p(0), t(0)} is a minimal model", core.IsMinimalModel(db, prog.Rules, j), true)
	x.check("J is a stable model", core.IsStableModel(db, prog.Rules, j), false)
	x.check("stable models of (D,Σ)", len(x.models(x.so(db, prog.Rules, core.Options{}))), 0)
	x.note("SM[D,Σ]:\n%s", soformula.SM(db, prog.Rules))
}

// E5 — Figure 1: the stickiness marking procedure.
func runE5(x *trial) {
	for _, s := range []struct {
		name, src string
		sticky    bool
	}{
		{"set (a)", "t(X,Y,Z) -> s(Y,W).\nr(X,Y), p(Y,Z) -> t(X,Y,W).\n", true},
		{"set (b)", "t(X,Y,Z) -> s(X,W).\nr(X,Y), p(Y,Z) -> t(X,Y,W).\n", false},
	} {
		rules := ntgd.MustParse(s.src).Rules
		m := classify.MarkVariables(rules)
		x.check(s.name+" is sticky", classify.IsSticky(rules), s.sticky)
		x.note("%s", m)
		x.note("violations: %v", m.Violations())
	}
}

// E6 — Theorem 1: SMS_LP = SMS_SO on Skolemized programs.
func runE6(x *trial) {
	rng := rand.New(rand.NewSource(23))
	const total = 30
	agree := 0
	for i := 0; i < total; i++ {
		src := randomNormalProgram(rng)
		prog := ntgd.MustParse(src)
		db := prog.Database()
		if sameModelSets(x.models(x.lp(db, prog.Rules)), x.models(x.so(db, prog.Rules, core.Options{}))) {
			agree++
		} else {
			x.note("disagreement on:\n%s", src)
		}
	}
	x.check("random existential-free programs, LP = SO", agree, total)
}

// E7 — Theorems 3/6: decidable, but exponential guess-and-check vs
// the PTIME positive chase.
func runE7(x *trial) {
	items := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "item(i%d).\n", i)
		}
		return b.String()
	}
	for n := 1; n <= 5; n++ {
		prog := ntgd.MustParse(items(n) + "item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n")
		start := time.Now()
		models := x.models(x.so(prog.Database(), prog.Rules, core.Options{}))
		// Each item is in or out: 2^n models.
		x.check(fmt.Sprintf("n=%d subset choice: stable models", n), len(models), 1<<n)
		x.note("ntgd: %s", ms(time.Since(start)))
	}
	for _, n := range []int{8, 32, 128, 512} {
		prog := ntgd.MustParse(items(n) + "item(X) -> tagged(X,Y).\n")
		start := time.Now()
		res, err := chase.RunCtx(x.ctx, prog.Database(), prog.Rules, chase.Options{})
		x.must(err)
		// One fresh null per item.
		x.check(fmt.Sprintf("n=%d positive chase: atoms", n), res.Instance.Len(), 2*n)
		x.note("chase: %s", ms(time.Since(start)))
	}
}

// E8 — the 2-QBF∃ reduction of Section 5.3 vs the direct evaluators.
func runE8(x *trial) {
	rng := rand.New(rand.NewSource(7))
	lit := func(v string) qbf.Lit { return qbf.Lit{Var: v} }
	nlit := func(v string) qbf.Lit { return qbf.Lit{Var: v, Neg: true} }
	instances := []qbf.Formula{
		// ∃x∀y: (x∧y) ∨ (x∧¬y) — satisfiable.
		{Exists: []string{"x"}, Forall: []string{"y"},
			Terms: []qbf.Term{{lit("x"), lit("y"), lit("y")}, {lit("x"), nlit("y"), nlit("y")}}},
	}
	for i := 0; i < 4; i++ {
		instances = append(instances, qbf.Random(rng, 1, 1, 2))
	}
	for _, f := range instances {
		inst, err := encodings.EncodeQBF(f)
		x.must(err)
		start := time.Now()
		enc := !x.cautious(x.so(inst.DB, inst.Rules, core.Options{}), inst.Query)
		brute := f.EvalBrute()
		x.check(fmt.Sprintf("%s: encoding = brute force", f), enc, brute)
		x.check(fmt.Sprintf("%s: SAT oracle = brute force", f), f.EvalSAT(), brute)
		x.note("encoding: %s", time.Since(start).Round(time.Millisecond))
	}
}

// E9 — the undecidability gadgets of Theorems 4 and 5: sticky (resp.
// guarded) sets outside WATGD¬ whose fresh-null chase grows without
// bound (the infinite-grid machinery of the proofs). Under the SO
// semantics finite stable models may still exist via constant reuse;
// the divergence is exhibited under the fresh-only witness policy.
func runE9(x *trial) {
	sticky := ntgd.MustParse(`
p(a). s(b).
p(X), s(Y) -> t(X,Y).
t(X,Y) -> u(Y,Z).
u(Y,Z) -> s(Z).
`)
	rep := classify.Classify(sticky.Rules)
	x.check("cartesian gadget is sticky", rep.Sticky, true)
	x.check("cartesian gadget is weakly acyclic", rep.WeaklyAcyclic, false)
	for _, budget := range []int{16, 32, 64} {
		res := x.modelsBudgeted(x.so(sticky.Database(), sticky.Rules, core.Options{
			MaxAtoms: budget, MaxNodes: 1 << 20,
			WitnessPolicy: core.WitnessFreshOnly,
		}), 1)
		x.check(fmt.Sprintf("fresh-only, atom budget %d: exhausted", budget), res.Exhausted, true)
		x.note("nodes=%d", res.Stats.Nodes)
	}
	guarded := ntgd.MustParse(`g(a,b). g(X,Y), not stop(Y) -> g(Y,Z).`)
	grep := classify.Classify(guarded.Rules)
	x.check("growing-guard gadget is guarded", grep.Guarded, true)
	x.check("growing-guard gadget is weakly acyclic", grep.WeaklyAcyclic, false)
	for _, budget := range []int{16, 32, 64} {
		res := x.modelsBudgeted(x.so(guarded.Database(), guarded.Rules, core.Options{
			MaxAtoms: budget, MaxNodes: 1 << 20,
			WitnessPolicy: core.WitnessFreshOnly,
		}), 1)
		x.check(fmt.Sprintf("fresh-only, atom budget %d: exhausted", budget), res.Exhausted, true)
		x.check(fmt.Sprintf("fresh-only, atom budget %d: models", budget), len(res.Models), 0)
		x.note("nodes=%d", res.Stats.Nodes)
	}
}

// E10 — Lemma 13 / Theorem 12: disjunction elimination.
func runE10(x *trial) {
	prog := ntgd.MustParse(`
node(a). node(b). edge(a,b).
node(X) -> red(X) | green(X).
edge(X,Y), red(X), red(Y) -> clash.
edge(X,Y), green(X), green(Y) -> clash.
`)
	elim, err := transform.EliminateDisjunction(prog.Database(), prog.Rules)
	x.must(err)
	x.note("rules: %d disjunctive -> %d normal", len(prog.Rules), len(elim.Rules))
	native := x.so(prog.Database(), prog.Rules, core.Options{})
	eliminated := x.so(elim.DB, elim.Rules, core.Options{})
	for _, qs := range []string{"?- clash.", "?- red(a).", "?- node(a), not clash."} {
		q := ntgd.MustParse(qs).Queries[0]
		x.check(qs+" eliminated = native", verdict(x.cautious(eliminated, q)), verdict(x.cautious(native, q)))
	}
}

// E11 — Theorems 15/16: DATALOG¬,∨ = WATGD¬.
func runE11(x *trial) {
	for _, tc := range []struct {
		name string
		src  string
		bad  bool // brave bad: the graph is not 2-colorable
	}{
		{"path a-b (2-colorable)", `
node(a). node(b). edge(a,b).
node(X) -> r(X) | g(X).
edge(X,Y), r(X), r(Y) -> w.
edge(X,Y), g(X), g(Y) -> w.
w, node(X) -> r(X).
w, node(X) -> g(X).
w -> bad.
`, false},
		{"triangle (not 2-colorable)", `
node(a). node(b). node(c). edge(a,b). edge(b,c). edge(a,c).
node(X) -> r(X) | g(X).
edge(X,Y), r(X), r(Y) -> w.
edge(X,Y), g(X), g(Y) -> w.
w, node(X) -> r(X).
w, node(X) -> g(X).
w -> bad.
`, true},
	} {
		prog := ntgd.MustParse(tc.src)
		db := prog.Database()
		q := ntgd.Query{Pos: []ntgd.Atom{ntgd.A("bad")}}
		w, err := transform.DatalogToWATGD(transform.DatalogQuery{Rules: prog.Rules, QueryPred: "bad"}, 0)
		x.must(err)
		qT := ntgd.Query{Pos: []ntgd.Atom{ntgd.A(w.QueryPred)}}
		x.check(tc.name+": native brave bad", x.brave(x.so(db, prog.Rules, core.Options{}), q), tc.bad)
		x.check(tc.name+": WATGD¬ brave bad", x.brave(x.so(db, w.Rules, core.Options{}), qT), tc.bad)
		x.check(tc.name+": translation weakly acyclic", classify.IsWeaklyAcyclic(w.Rules), true)
	}
}

// E12 — Section 7.1: 2-QBF via the brave query language WATGD¬_b.
func runE12(x *trial) {
	rng := rand.New(rand.NewSource(13))
	var formulas []qbf.Formula
	for i := 0; i < 4; i++ {
		formulas = append(formulas, qbf.Random(rng, 1, 1, 2))
	}
	// The random formulas are all false; ∃x (x ∧ x ∧ x) is true.
	x1 := qbf.Lit{Var: "x"}
	formulas = append(formulas, qbf.Formula{Exists: []string{"x"}, Terms: []qbf.Term{{x1, x1, x1}}})
	rules, q := encodings.QBFBraveQuery()
	for _, f := range formulas {
		db, err := encodings.QBFDatabase(f)
		x.must(err)
		x.check(fmt.Sprintf("%s: brave answer = brute force", f), x.brave(x.so(db, rules, core.Options{}), q), f.EvalBrute())
	}
}

// E13 — Section 7.1: certain k-colorability.
func runE13(x *trial) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		g := encodings.CertColGraph{K: 2}
		for v := 0; v < 3; v++ {
			g.Vertices = append(g.Vertices, fmt.Sprintf("v%d", v))
		}
		g.Vars = []string{"p"}
		for e := 0; e < 2; e++ {
			u, w := rng.Intn(3), rng.Intn(3)
			for w == u {
				w = rng.Intn(3)
			}
			g.Edges = append(g.Edges, encodings.LabeledEdge{
				U: g.Vertices[u], W: g.Vertices[w], Var: "p", Neg: rng.Intn(2) == 1})
		}
		bad := x.brave(x.so(g.Database(), g.DatalogProgram(), core.Options{}), g.BadQuery())
		x.check(fmt.Sprintf("instance %d: certain = brute force", i), !bad, g.BruteForce())
	}
}

// E14 — Section 7.1: consistent query answering.
func runE14(x *trial) {
	prog := ntgd.MustParse(`
mgr(sales, ann).
mgr(sales, bob).
mgr(hr, eve).
neq(ann,bob). neq(bob,ann).
:- mgr(D, X), mgr(D, Y), neq(X, Y).
mgr(D, X) -> emp(X).
`)
	inst := &encodings.CQAInstance{DB: prog.Database()}
	for _, r := range prog.Rules {
		if r.IsConstraint() {
			inst.Denials = append(inst.Denials, r)
		} else {
			inst.TGDs = append(inst.TGDs, r)
		}
	}
	repairs, err := inst.BruteForceRepairs()
	x.must(err)
	x.note("repairs: %d", len(repairs))
	opt := core.Options{Workers: x.workers}
	for _, qs := range []string{"?- emp(eve).", "?- emp(ann).", "?- mgr(sales,X), emp(X)."} {
		q := ntgd.MustParse(qs).Queries[0]
		enc, err := inst.CertainEncoded(q, opt)
		x.must(err)
		brute, err := inst.CertainBrute(q, opt)
		x.must(err)
		x.check(qs+" encoding = brute force", enc, brute)
	}
}

// E15 — Theorems 19/20: the expressiveness gap between LP and SO.
func runE15(x *trial) {
	prog := ntgd.MustParse(fatherSrc)
	db := prog.Database()
	// Under SO the father is any member of the witness pool: alice, a
	// fresh null, and bob when he is a query constant.
	withBob := x.so(db, prog.Rules, core.Options{ExtraConstants: []ntgd.Term{ntgd.C("bob")}})
	x.check("SO stable models, witness pool incl. bob", len(x.models(withBob)), 3)
	x.check("SO stable models, no extra constants", len(x.models(x.so(db, prog.Rules, core.Options{}))), 2)
	// Skolemization collapses the witness space to one Skolem term.
	x.check("LP stable models", len(x.models(x.lp(db, prog.Rules))), 1)
}

func sameModelSets(a, b []*ntgd.FactStore) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[string]bool{}
	for _, m := range a {
		set[m.CanonicalString()] = true
	}
	for _, m := range b {
		if !set[m.CanonicalString()] {
			return false
		}
	}
	return true
}

func randomNormalProgram(rng *rand.Rand) string {
	preds := []string{"p0", "p1", "p2", "p3"}
	consts := []string{"c0", "c1", "c2"}
	var out string
	for i := 0; i < 1+rng.Intn(3); i++ {
		out += fmt.Sprintf("%s(%s).\n", preds[rng.Intn(len(preds))], consts[rng.Intn(len(consts))])
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		body := fmt.Sprintf("%s(X)", preds[rng.Intn(len(preds))])
		if rng.Intn(2) == 0 {
			body += fmt.Sprintf(", not %s(X)", preds[rng.Intn(len(preds))])
		}
		out += fmt.Sprintf("%s -> %s(X).\n", body, preds[rng.Intn(len(preds))])
	}
	return out
}
