// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct":true,"attempted":412,"failed":0,
//	 "metrics":{"op_p50_ms":{"value":21.7,"unit":"ms"}, ...}}
//
// run.sh builds it from the enclosing source tree and runs it from the
// tree's root:
//
//	bash perfbench/run.sh --workload search --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload serve --seed 7 --seconds 20 --trace 1
//	python3 perfbench/spread.py --runs 10 --seconds 20   # medians and quartiles
//
// # Workloads
//
// Inputs come from a generator seeded by --seed; the code under test
// sees only the generated inputs. Each workload stresses a different
// layer, so that an optimisation of one layer shows on one workload and
// reads flat on another.
//
//   - search (closed loop, 1 caller, library default Workers =
//     GOMAXPROCS): distinct instances, each queried once — 2-QBF∃
//     encodings (Section 5.3, cautious error), certain-2-colourability
//     graphs (Section 7.1, brave bad) and padded subset-choice programs
//     under SO and LP (complete enumeration). The generator fixes the
//     mix of kinds, sizes and verdicts per block of 20 instances, so
//     every seed runs the same amount of work of each kind; two of every
//     20 are unsatisfiable QBFs with two existential variables, the
//     hardest refutations of the reduction (~850 ms each on the
//     reference machine), which take about 70% of the op time. Nearly
//     all the time goes to the core search, the stability sessions and
//     the SAT solver. Instances are distinct so that memoizing answers
//     cannot pass for speed. Instances are compiled a window of four
//     blocks at a time, outside the timed ops: the set-up compiles the
//     first window, and each block's first op slides it on, so the live
//     heap holds a few blocks' solvers rather than the run's.
//   - compile (closed loop, 1 caller): every op takes fresh program text
//     (weakly acyclic, 20–60 rules, 50–500 facts, existentials, negation
//     and disjunction) through ntgd.Parse, then ntgd.Compile and
//     Solver.Collect(ctx, 1) under SO and under LP. This is the one-shot
//     ntgdctl path and the daemon's cache-miss path: parser, classify,
//     core.Compile, grounding and the first-run budget probe do the work
//     and the search is small. search skips this path entirely.
//   - bulkdb (closed loop, 1 caller): a database of ~1.1×10⁴ edge/emp
//     facts behind two solvers, SO with existential-free Datalog joins and
//     LP with stratified negation and an existential. 90% of ops are
//     reads whose constants follow Zipf(1.1) over 1000 entities, so some
//     hit the per-constant budget cache and most miss it; 10% are writes
//     that build a new ntgd.Database version (AddFacts + Freeze) and
//     recompile both solvers. The logic store is a large bulk-written
//     root probed by joins, the opposite of search's many tiny snapshot
//     layers. The database stays below the SO engine's default atom
//     budget (16384 atoms including the database), past which every SO
//     query fails.
//   - serve (open loop, then closed loop): the in-process daemon
//     (server.New with ntgdd's default flag values) on a loopback
//     listener. Four open-loop segments, together three quarters of
//     --seconds, follow a seeded Poisson schedule at a fixed 200 requests
//     per second, about 0.3× the daemon's capacity on the reference
//     machine; nproc sender goroutines share nproc keep-alive
//     connections, and every request is timed from its due time. After
//     each open-loop segment a capacity segment re-sends that segment's
//     requests from the same nproc senders back to back, a closed loop,
//     for a sixteenth of --seconds. The mix: entails/answers on six small
//     hot programs, a 64-model solve, 4-query batches, entails on a
//     program with 1000 inline facts, solves against a POST /v1/db
//     handle of 5000 facts, and fresh programs that miss the
//     compiled-program cache (in the capacity segments they hit it). The
//     server layer dominates and engine work is small; admission stays at
//     the daemon default (unlimited).
//
// # Metrics
//
// End-to-end (--trace 0), for every workload:
//
//	setup_s        s    median of --setups set-ups of the system before the
//	                    first timed op (input generation excluded)
//	op_p50_ms      ms   median op latency
//	op_tail_ms     ms   the median over the run's four quarters (serve: its
//	                    four open-loop segments) of each quarter's tail
//	                    latency: p95 for search, compile and bulkdb, p98
//	                    for serve. For compile, bulkdb and serve these are
//	                    the highest percentiles with ten ops of a quarter
//	                    beyond them on the reference machine; for search,
//	                    p95 falls inside the two-existential refutations,
//	                    two ops of a quarter (stderr gives the counts)
//	ops_per_s      1/s  correct ops per second of op time (closed loops);
//	                    for serve, the daemon's capacity: the median, over
//	                    the capacity segments' 20 windows, of the requests
//	                    answered correctly per second of the window
//	cpu_ms_per_op  ms   process user+sys CPU per op
//	heap_peak_mb   MB   the median over the run's seconds of each second's
//	                    peak /gc/heap/live:bytes (a GC runs first)
//
// Closed loops time ops only: input preparation and answer checks run
// between ops with the clocks stopped. serve's open loop times requests
// from their due times, so a late sender counts against the latency, and
// its latency, CPU and heap metrics cover the open-loop segments only.
// Open-loop latency, the generator's lateness included, is what users
// of a two-core daemon see: the load generator shares the machine, and
// bench.gen_lag_p99_ms reports how late it ran.
//
// Errors and wrong answers are counted in the result's "failed" field
// and make "correct" false. Every answer is checked outside the timed
// region against an oracle that does not share the engine's design:
// QBF verdicts against qbf.Formula.EvalBrute, colourings against
// CertColGraph.BruteForce, subset-choice model counts against 2ⁿ,
// compile's first models against the Definition 1 checker (an LP model
// on the Skolemized program, which by Theorem 1 makes it, on
// existential-free programs, an SO model of the program itself), bulkdb
// answers against a direct Go evaluation of the rules, and serve
// responses against the answers of in-process Solvers.
//
// Per-layer (--trace 1) metrics come from a traced pass over the same
// ops; layers.go lists them with the end-to-end metric each should move.
//
// # Tracing
//
// --trace 1 first runs the ops untraced for half of --seconds, then sets
// the system up again and replays exactly those ops through the same
// public layer calls that ntgd.Compile and the Solver make (Parse and
// Validate, logic store load, classify.Classify, core.Compile or
// lp.Compile, the engine's query algorithms), each wrapped in a span
// {name, op, id, parent, start, end}. For serve, the traced pass sends
// the same requests to a fresh daemon with each round trip as a span,
// then replays every request body in-process (decode,
// server.Canonicalize, cached engine call, emit); server.http_pct is the
// part of the round trip the replay does not account for. Replaying
// after the run keeps the replays' CPU time out of the round trips.
// Spans are kept in memory and written at
// exit to --trace-out as one JSON array; a span marked "extra" is a
// measurement-only call (the chase budget probe the engine repeats
// inside its first run for a constant set, the store probes) and is not
// part of the op's own work. Standard error gets each span name's self
// time: its duration minus that of its direct children. The end-to-end
// numbers always come from an untraced run; bench.trace_overhead_pct
// compares the two passes.
//
// Out of scope: spans inside the engine (per-phase attribution belongs
// in engine.Stats), and the older measurement paths — smsbench's JSON
// mode, cmd/ntgdbench, scripts/bench.sh, scripts/bench_record.sh and the
// BENCH_n.json trajectory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	setups   int
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced pass instead of the end-to-end metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file written by --trace 1 (default .bench_build/spans/<workload>-<seed>.json)")
	fs.IntVar(&cfg.setups, "setups", 5, "set-ups per run; setup_s is their median")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 || cfg.setups < 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --trace 0|1, --seconds > 0 and --setups >= 1\n", workloadNames())
		return 2
	}
	cfg.trace = trace == 1
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	}

	var rep *report
	var err error
	if cfg.trace {
		rep, err = w.traced(context.Background(), cfg, stderr)
	} else {
		rep, err = w.measure(context.Background(), cfg, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// report is what one run measured.
type report struct {
	attempted, failed int
	metrics           map[string]metric
}

// workload runs one named workload: measure for the end-to-end
// metrics, traced for the per-layer ones.
type workload struct {
	measure func(context.Context, config, io.Writer) (*report, error)
	traced  func(context.Context, config, io.Writer) (*report, error)
}

var workloads = map[string]workload{
	"search":  closedWorkload(newSearch, 0.95),
	"compile": closedWorkload(newCompile, 0.95),
	"bulkdb":  closedWorkload(newBulkDB, 0.95),
	"serve":   {measure: measureServe, traced: tracedServe},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
