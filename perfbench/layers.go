package main

import (
	"context"
	"sort"
	"strings"
	"time"

	"ntgd"
	"ntgd/internal/asp"
	"ntgd/internal/chase"
	"ntgd/internal/classify"
	"ntgd/internal/core"
	"ntgd/internal/engine"
	"ntgd/internal/logic"
	"ntgd/internal/lp"
)

// metricDef is one metric of BENCHMARK.json. moves lists, for a
// per-layer metric, the end-to-end metrics it should move, each as
// metric@workload.
type metricDef struct {
	name, unit, better string
	moves              []string
}

// endToEndMetrics are printed by every untraced run (see the package
// doc for their definitions).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", nil},
	{"op_p50_ms", "ms", "lower", nil},
	{"op_tail_ms", "ms", "lower", nil},
	{"ops_per_s", "1/s", "higher", nil},
	{"cpu_ms_per_op", "ms", "lower", nil},
	{"heap_peak_mb", "MB", "lower", nil},
}

// perLayerMetrics are printed by every traced run. Per-call times cover
// the set-up and the ops of the traced pass; per-op counts and shares
// cover its ops. Each group says where it should read flat.
var perLayerMetrics = []metricDef{
	// server: shares of the request round trip spent in each server
	// phase, replayed in-process. 0 on search, compile and bulkdb, which
	// bypass the daemon.
	{"server.decode_pct", "%", "lower", []string{"op_p50_ms@serve"}},
	{"server.canonicalize_pct", "%", "lower", []string{"op_p50_ms@serve"}},
	{"server.emit_pct", "%", "lower", []string{"op_p50_ms@serve"}},
	{"server.http_pct", "%", "lower", []string{"op_p50_ms@serve"}},
	{"server.cache_hit_ratio", "ratio", "higher", []string{"op_tail_ms@serve"}},
	{"server.compiles", "count", "lower", []string{"op_tail_ms@serve"}},
	// parser, classify: flat on search, whose programs parse during
	// set-up.
	{"parser.parse_ms", "ms", "lower", []string{"op_p50_ms@compile", "op_p50_ms@serve"}},
	{"classify.classify_ms", "ms", "lower", []string{"op_p50_ms@compile"}},
	// chase: the budget probe the SO engine runs on the first query of
	// each constant set. Flat on search.
	{"chase.budget_ms", "ms", "lower", []string{"op_p50_ms@bulkdb", "op_p50_ms@compile"}},
	{"chase.budget_miss_ratio", "ratio", "lower", []string{"op_p50_ms@bulkdb"}},
	// core: the stable-model search. Flat on serve and bulkdb, whose
	// queries take few nodes.
	{"core.compile_ms", "ms", "lower", []string{"op_p50_ms@compile"}},
	{"core.nodes_per_op", "count", "lower", []string{"op_p50_ms@search", "cpu_ms_per_op@search"}},
	{"core.branches_per_op", "count", "lower", []string{"op_p50_ms@search"}},
	{"core.det_steps_per_op", "count", "lower", []string{"op_p50_ms@search"}},
	{"core.candidates_per_op", "count", "lower", []string{"op_p50_ms@search"}},
	{"core.stability_checks_per_op", "count", "lower", []string{"op_p50_ms@search", "cpu_ms_per_op@search"}},
	{"core.stable_ratio", "ratio", "higher", []string{"op_p50_ms@search"}},
	{"core.models_per_op", "count", "lower", []string{"op_tail_ms@search"}},
	{"core.us_per_node", "us", "lower", []string{"op_p50_ms@search", "cpu_ms_per_op@search"}},
	// ground: LP grounding. Flat on search, whose LP instances are small.
	{"ground.ground_ms", "ms", "lower", []string{"op_tail_ms@bulkdb", "op_p50_ms@compile"}},
	{"ground.atoms", "count", "lower", []string{"op_tail_ms@bulkdb"}},
	{"ground.rules", "count", "lower", []string{"op_tail_ms@bulkdb"}},
	// logic: the fact store. Flat on compile, whose databases are small.
	{"logic.db_load_ms", "ms", "lower", []string{"op_tail_ms@bulkdb", "setup_s@bulkdb"}},
	{"logic.facts_per_s", "1/s", "higher", []string{"op_tail_ms@bulkdb", "setup_s@bulkdb"}},
	{"logic.probe_us", "us", "lower", []string{"op_p50_ms@bulkdb"}},
	// engine: the Solver query call.
	{"engine.run_ms", "ms", "lower", []string{"op_p50_ms@search", "op_p50_ms@compile", "op_p50_ms@bulkdb", "op_p50_ms@serve"}},
	// runtime: from the untraced pass.
	{"runtime.alloc_mb_per_op", "MB", "lower", []string{"cpu_ms_per_op@search", "cpu_ms_per_op@compile", "cpu_ms_per_op@bulkdb", "cpu_ms_per_op@serve"}},
	{"runtime.gc_per_op", "count", "lower", []string{"cpu_ms_per_op@serve", "heap_peak_mb@serve"}},
	{"runtime.gc_cpu_frac", "ratio", "lower", []string{"cpu_ms_per_op@search", "cpu_ms_per_op@serve"}},
	// bench: the validity of the measurement itself; it should move
	// nothing. gen_lag_p99_ms is how late the load generator ran.
	{"bench.gen_lag_p99_ms", "ms", "lower", nil},
	{"bench.trace_overhead_pct", "%", "lower", nil},
}

// database is a bulk-loaded fact base shared by several compiles: an
// ntgd.Database untraced, or the frozen root store that Database wraps,
// built with the same bulk write, when traced.
type database struct {
	db   *ntgd.Database
	root *logic.FactStore
}

func loadDatabase(tr *tracer, facts []ntgd.Atom) (*database, error) {
	if tr == nil {
		db := ntgd.NewDatabase()
		if err := db.AddFacts(facts...); err != nil {
			return nil, err
		}
		db.Freeze()
		return &database{db: db}, nil
	}
	id := tr.begin("logic.db_load")
	root := logic.NewFactStore()
	root.AddAll(facts)
	tr.end(id)
	tr.add("logic.facts", float64(len(facts)))
	return &database{root: root}, nil
}

func parse(tr *tracer, src string) (*ntgd.Program, error) {
	id := tr.begin("parser.parse")
	p, err := ntgd.Parse(src)
	tr.end(id)
	return p, err
}

// prog is one compiled program: the public ntgd.Solver untraced, or,
// traced, the engine built by the layer calls ntgd.Compile makes, each
// wrapped in a span.
type prog struct {
	solver *ntgd.Solver

	eng   engine.Engine
	root  *logic.FactStore
	rules []*logic.Rule
	sem   ntgd.Semantics
	// probed mirrors the SO engine's budget cache: the constant sets
	// whose chase-derived budget it has already derived.
	probed map[string]bool
}

func compile(tr *tracer, p *ntgd.Program, sem ntgd.Semantics, db *database, opt ntgd.Options) (*prog, error) {
	if tr == nil {
		co := ntgd.CompileOptions{Semantics: sem, Options: opt}
		if db != nil {
			co.Database = db.db
		}
		s, err := ntgd.Compile(p, co)
		if err != nil {
			return nil, err
		}
		return &prog{solver: s}, nil
	}

	id := tr.begin("parser.validate")
	err := p.Validate()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("logic.db_load")
	var root *logic.FactStore
	if db != nil {
		root = db.root.Snapshot()
		root.AddAll(p.Facts)
	} else {
		root = logic.StoreOf(p.Facts...)
	}
	tr.end(id)
	tr.add("logic.facts", float64(len(p.Facts)))

	var eng engine.Engine
	switch sem {
	case ntgd.SO:
		id = tr.begin("core.compile")
		eng, err = core.Compile(root, p.Rules, opt)
		tr.end(id)
	case ntgd.LP:
		id = tr.begin("ground.ground")
		var c *lp.Compiled
		c, err = lp.Compile(root, p.Rules, lp.Options{Solve: asp.SolveOptions{MaxNodes: opt.MaxNodes}})
		tr.end(id)
		if err == nil {
			eng = c
			tr.add("ground.calls", 1)
			tr.add("ground.atoms", float64(c.Grounding().Prog.NAtoms))
			tr.add("ground.rules", float64(len(c.Grounding().Prog.Rules)))
		}
	}
	if err != nil {
		return nil, err
	}
	eng = engine.Guard(eng, engine.GuardConfig{Gate: engine.NewGate(opt.MaxConcurrentRuns), WallClock: opt.MaxWallClock})
	id = tr.begin("classify.classify")
	classify.Classify(p.Rules)
	tr.end(id)

	// Measurement only: one full join of every rule body against the
	// root, the probe pattern the engine's triggers and the chase run.
	for _, r := range p.Rules {
		pos, neg := logic.SplitLiterals(r.Body)
		if len(pos) == 0 {
			continue
		}
		id = tr.beginExtra("logic.probe")
		visits := 0
		logic.FindHoms(pos, neg, root, logic.Subst{}, func(logic.Subst) bool {
			visits++
			return visits < 1<<16
		})
		tr.end(id)
	}
	return &prog{eng: eng, root: root, rules: p.Rules, sem: sem, probed: map[string]bool{}}, nil
}

// probeBudget runs, as a separate measurement-only call, the chase
// budget probe the SO engine is about to run inside its first query
// with this constant set.
func (p *prog) probeBudget(ctx context.Context, tr *tracer, consts []logic.Term) {
	if p.sem != ntgd.SO {
		return
	}
	keys := make([]string, 0, len(consts))
	seen := map[string]bool{}
	var extras []logic.Term
	for _, c := range consts {
		if k := c.Key(); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
			extras = append(extras, c)
		}
	}
	sort.Strings(keys)
	key := strings.Join(keys, "|")
	tr.add("chase.queries", 1)
	if p.probed[key] {
		return
	}
	p.probed[key] = true
	tr.add("chase.misses", 1)
	id := tr.beginExtra("chase.budget")
	chase.BudgetForStableSearchCtx(ctx, p.root, p.rules, extras, 0)
	tr.end(id)
}

func countStats(tr *tracer, st ntgd.Stats) {
	tr.add("core.nodes", float64(st.Nodes))
	tr.add("core.branches", float64(st.Branches))
	tr.add("core.det", float64(st.Deterministic))
	tr.add("core.candidates", float64(st.Completed))
	tr.add("core.checks", float64(st.StabilityChecks))
	tr.add("core.unstable", float64(st.StabilityFailed))
	tr.add("core.models", float64(st.ModelsEmitted))
}

func (p *prog) entails(ctx context.Context, tr *tracer, q ntgd.Query, mode ntgd.Mode) (ntgd.QAResult, error) {
	if tr == nil {
		return p.solver.Entails(ctx, q, mode)
	}
	p.probeBudget(ctx, tr, q.Constants())
	id := tr.begin("engine.run")
	var res ntgd.QAResult
	var err error
	if mode == ntgd.Brave {
		res, err = engine.BraveEntails(ctx, p.eng, engine.Params{}, q)
	} else {
		res, err = engine.CautiousEntails(ctx, p.eng, engine.Params{}, q)
	}
	tr.end(id)
	countStats(tr, res.Stats)
	return res, err
}

func (p *prog) answers(ctx context.Context, tr *tracer, q ntgd.Query, mode ntgd.Mode) (ntgd.AnswersResult, error) {
	if tr == nil {
		return p.solver.AnswerSet(ctx, q, mode)
	}
	p.probeBudget(ctx, tr, q.Constants())
	id := tr.begin("engine.run")
	tuples, ok, st, exhausted, err := engine.Answers(ctx, p.eng, engine.Params{}, q, mode == ntgd.Brave)
	tr.end(id)
	countStats(tr, st)
	return ntgd.AnswersResult{Tuples: tuples, Complete: ok, Exhausted: exhausted, Stats: st}, err
}

func (p *prog) collect(ctx context.Context, tr *tracer, maxModels int) (*ntgd.Result, error) {
	if tr == nil {
		return p.solver.Collect(ctx, maxModels)
	}
	p.probeBudget(ctx, tr, nil)
	id := tr.begin("engine.run")
	res, err := engine.CollectModels(ctx, p.eng, engine.Params{}, maxModels)
	tr.end(id)
	countStats(tr, res.Stats)
	return res, err
}

// layerInputs is what a traced run measured.
type layerInputs struct {
	tr *tracer
	// ops and opTime cover the traced pass's ops; extraTime is the part
	// of opTime spent in measurement-only spans.
	ops               int
	opTime, extraTime time.Duration
	// untracedOps, untracedTime and rt cover the untraced pass.
	untracedOps  int
	untracedTime time.Duration
	rt           rtStats
	lagP99       time.Duration
	// cacheHits, cacheMisses and compiles are the daemon's program-cache
	// counters over the untraced pass (serve only).
	cacheHits, cacheMisses, compiles int64
}

// layerMetrics derives every per-layer metric.
func layerMetrics(in layerInputs) map[string]metric {
	all := totals(in.tr.spans, func(span) bool { return true })
	opSpans := totals(in.tr.spans, func(s span) bool { return s.Op >= 0 })
	c := in.tr.counts
	ops := float64(max(in.ops, 1))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	total := func(t map[string]*nameTotals, name string) time.Duration {
		if nt := t[name]; nt != nil {
			return nt.total
		}
		return 0
	}

	roundtrip := float64(total(opSpans, "server.roundtrip"))
	replay := float64(total(opSpans, "server.replay") - replayExtra(in.tr.spans))
	share := func(name string) float64 { return 100 * ratio(float64(total(opSpans, name)), roundtrip) }
	runTime := total(all, "engine.run")

	v := map[string]float64{
		"server.decode_pct":       share("server.decode"),
		"server.canonicalize_pct": share("server.canonicalize"),
		"server.emit_pct":         share("server.emit"),
		"server.http_pct":         100 * ratio(roundtrip-replay, roundtrip),
		"server.cache_hit_ratio":  ratio(float64(in.cacheHits), float64(in.cacheHits+in.cacheMisses)),
		"server.compiles":         float64(in.compiles),

		"parser.parse_ms":      perCall(all, "parser.parse"),
		"classify.classify_ms": perCall(all, "classify.classify"),

		"chase.budget_ms":         perCall(all, "chase.budget"),
		"chase.budget_miss_ratio": ratio(c["chase.misses"], c["chase.queries"]),

		"core.compile_ms":              perCall(all, "core.compile"),
		"core.nodes_per_op":            c["core.nodes"] / ops,
		"core.branches_per_op":         c["core.branches"] / ops,
		"core.det_steps_per_op":        c["core.det"] / ops,
		"core.candidates_per_op":       c["core.candidates"] / ops,
		"core.stability_checks_per_op": c["core.checks"] / ops,
		"core.stable_ratio":            ratio(c["core.checks"]-c["core.unstable"], c["core.checks"]),
		"core.models_per_op":           c["core.models"] / ops,
		"core.us_per_node":             ratio(float64(runTime)/float64(time.Microsecond), c["core.nodes"]),

		"ground.ground_ms": perCall(all, "ground.ground"),
		"ground.atoms":     ratio(c["ground.atoms"], c["ground.calls"]),
		"ground.rules":     ratio(c["ground.rules"], c["ground.calls"]),

		"logic.db_load_ms":  perCall(all, "logic.db_load"),
		"logic.facts_per_s": ratio(c["logic.facts"], total(all, "logic.db_load").Seconds()),
		"logic.probe_us":    1000 * perCall(all, "logic.probe"),

		"engine.run_ms": perCall(all, "engine.run"),

		"runtime.alloc_mb_per_op": float64(in.rt.allocs) / (1 << 20) / float64(max(in.untracedOps, 1)),
		"runtime.gc_per_op":       float64(in.rt.gcs) / float64(max(in.untracedOps, 1)),
		"runtime.gc_cpu_frac":     ratio(in.rt.gcCPU, in.rt.totalCPU),

		"bench.gen_lag_p99_ms": ms(in.lagP99),
		"bench.trace_overhead_pct": 100 * (ratio(float64(in.opTime-in.extraTime), ops)/
			ratio(float64(in.untracedTime), float64(max(in.untracedOps, 1))) - 1),
	}
	out := make(map[string]metric, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		val, ok := v[d.name]
		if !ok {
			panic("perfbench: no value for per-layer metric " + d.name)
		}
		out[d.name] = metric{Value: val, Unit: d.unit}
	}
	return out
}

// replayExtra is the time measurement-only spans took inside serve's
// in-process replays.
func replayExtra(spans []span) time.Duration {
	inReplay := make([]bool, len(spans))
	var d time.Duration
	for _, s := range spans {
		if s.Parent >= 0 && (spans[s.Parent].Name == "server.replay" || inReplay[s.Parent]) {
			inReplay[s.ID] = true
			if s.Extra {
				d += s.dur()
			}
		}
	}
	return d
}

// extraTime is the time measurement-only spans took inside timed ops.
func extraTime(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Extra && s.Op >= 0 {
			d += s.dur()
		}
	}
	return d
}
