// Command ntgdctl is the command-line interface to the library:
//
//	ntgdctl classify file.ntgd          # WA / sticky / guarded report
//	ntgdctl solve [-sem so|lp|op] [-n N] [-timeout 5s] [-wall 5s] [-workers N] file.ntgd
//	ntgdctl query [-sem so|lp|op] [-mode cautious|brave] [-timeout 5s] [-wall 5s] [-workers N] file.ntgd
//	ntgdctl chase file.ntgd             # restricted chase (positive TGDs)
//	ntgdctl ground file.ntgd            # Skolemize + ground, print program
//	ntgdctl formula [-mm] file.ntgd     # print SM[D,Σ] (or MM[D,Σ])
//
// Programs use the surface syntax documented in the README; queries
// (“?- …”) inside the file are answered by the query subcommand.
//
// Exit codes (solve and query) follow the library's error taxonomy so
// scripts and services can dispatch without parsing messages:
//
//	0  success (complete enumeration / all queries answered)
//	1  load or run error outside the taxonomy
//	2  usage error
//	3  budget exhausted (search nodes or atoms, -wall wall-clock, or
//	   the LP grounding's atoms or term size)
//	4  timed out or cancelled (-timeout, the caller's context)
//	5  memory watermark exceeded (-max-mem)
//	6  internal engine fault (a recovered panic; stack on stderr)
//
// Codes 3-6 from a run still print the partial stats accumulated so far
// on stderr; a compile error prints only its cause. The other
// subcommands use 0/1/2 only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ntgd"
	"ntgd/internal/chase"
	"ntgd/internal/engine"
	"ntgd/internal/ground"
)

// Exit codes of the taxonomy-aware subcommands (solve, query).
const (
	exitOK       = 0
	exitError    = 1
	exitUsage    = 2
	exitBudget   = 3
	exitTimeout  = 4
	exitMemory   = 5
	exitInternal = 6
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind an exit code, with output streams
// injected so the exit-code contract is testable in-process.
func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) < 1 {
		return usage(stderr)
	}
	cmd, args := argv[0], argv[1:]
	switch cmd {
	case "classify":
		return cmdClassify(args, stdout, stderr)
	case "solve":
		return cmdSolve(args, stdout, stderr)
	case "query":
		return cmdQuery(args, stdout, stderr)
	case "chase":
		return cmdChase(args, stdout, stderr)
	case "ground":
		return cmdGround(args, stdout, stderr)
	case "formula":
		return cmdFormula(args, stdout, stderr)
	default:
		return usage(stderr)
	}
}

func usage(stderr io.Writer) int {
	fmt.Fprintf(stderr, `usage: ntgdctl <command> [flags] <file>

commands:
  classify   syntactic classification (weak-acyclicity, stickiness, guardedness)
  solve      enumerate stable models
  query      answer the queries in the file
  chase      run the restricted chase (positive TGDs only)
  ground     Skolemize and ground, print the ground program
  formula    print the second-order formula SM[D,Σ] (-mm for MM[D,Σ])
`)
	return exitUsage
}

// fail reports an error outside the taxonomy.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "ntgdctl:", err)
	return exitError
}

// failCompile reports a compile error under its taxonomy exit code: a
// grounding past its budget is a budget, like a search past its own.
func failCompile(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "ntgdctl:", err)
	code, _ := classifyErr(err)
	return code
}

// newFlagSet builds a subcommand flag set that reports parse errors to
// stderr and returns instead of exiting the process.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func loadProgram(fs *flag.FlagSet, stderr io.Writer) (*ntgd.Program, int) {
	if fs.NArg() != 1 {
		return nil, usage(stderr)
	}
	prog, err := ntgd.ParseFile(fs.Arg(0))
	if err != nil {
		return nil, fail(stderr, err)
	}
	return prog, exitOK
}

func semFromFlag(s string) (ntgd.Semantics, error) {
	switch s {
	case "so":
		return ntgd.SO, nil
	case "lp":
		return ntgd.LP, nil
	case "op", "operational", "baget":
		return ntgd.Operational, nil
	default:
		return 0, fmt.Errorf("unknown semantics %q (want so, lp, or op)", s)
	}
}

func cmdClassify(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("classify", stderr)
	marking := fs.Bool("marking", false, "print the stickiness marking")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	prog, code := loadProgram(fs, stderr)
	if prog == nil {
		return code
	}
	rep := ntgd.Classify(prog)
	fmt.Fprint(stdout, rep.String())
	if *marking {
		fmt.Fprintln(stdout, "\nstickiness marking:")
		fmt.Fprint(stdout, rep.Marking.String())
	}
	return exitOK
}

// solveContext builds the run context from a -timeout flag value
// (0 = no deadline).
func solveContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.Background(), func() {}
}

// classifyErr maps a terminal run error to its exit code and a short
// cause for the partial-stats line.
func classifyErr(err error) (int, string) {
	switch {
	case errors.Is(err, ntgd.ErrInternal):
		return exitInternal, "internal engine fault"
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return exitTimeout, "timed out"
	case errors.Is(err, ntgd.ErrMemory):
		return exitMemory, "memory watermark exceeded"
	case errors.Is(err, ntgd.ErrWallClock):
		return exitBudget, "wall-clock budget exhausted"
	case errors.Is(err, ntgd.ErrBudget):
		return exitBudget, "search budget exhausted"
	default:
		return exitError, err.Error()
	}
}

// reportRunError prints the cause and the partial stats, plus the
// recovered stack for internal faults, and returns the exit code.
func reportRunError(stderr io.Writer, err error, st ntgd.Stats) int {
	code, cause := classifyErr(err)
	fmt.Fprintf(stderr, "ntgdctl: %s; partial stats: nodes=%d branches=%d models=%d\n",
		cause, st.Nodes, st.Branches, st.ModelsEmitted)
	var ie *engine.InternalError
	if errors.As(err, &ie) {
		fmt.Fprintf(stderr, "ntgdctl: recovered panic: %v\n%s", ie.Value, ie.Stack)
	}
	return code
}

func cmdSolve(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("solve", stderr)
	sem := fs.String("sem", "so", "semantics: so, lp, or op")
	n := fs.Int("n", 0, "stop after N models (0 = all)")
	maxAtoms := fs.Int("max-atoms", 0, "bound on the atoms a search branch derives above the database (0 = auto)")
	maxMem := fs.Int64("max-mem", 0, "memory watermark in bytes of retained tuples and clause literals (0 = none)")
	timeout := fs.Duration("timeout", 0, "abort after this long, printing partial results (0 = none)")
	wall := fs.Duration("wall", 0, "per-run wall-clock budget, reported as a budget rather than a timeout (0 = none)")
	workers := fs.Int("workers", 1, "search worker pool size (1 = sequential, deterministic output order; 0 = GOMAXPROCS)")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	prog, code := loadProgram(fs, stderr)
	if prog == nil {
		return code
	}
	semv, err := semFromFlag(*sem)
	if err != nil {
		return fail(stderr, err)
	}
	s, err := ntgd.Compile(prog, ntgd.CompileOptions{
		Semantics: semv,
		Options: ntgd.Options{
			MaxModels: *n, MaxAtoms: *maxAtoms, Workers: *workers,
			MaxMemory: *maxMem, MaxWallClock: *wall,
		},
	})
	if err != nil {
		return failCompile(stderr, err)
	}
	ctx, cancel := solveContext(*timeout)
	defer cancel()
	count := 0
	code = exitOK
	for m, err := range s.Models(ctx) {
		if err != nil {
			code = reportRunError(stderr, err, s.Stats())
			break
		}
		count++
		fmt.Fprintf(stdout, "model %d: { %s }\n", count, m.CanonicalString())
	}
	fmt.Fprintf(stdout, "%d stable model(s)", count)
	if s.Exhausted() {
		fmt.Fprintf(stdout, " (enumeration may be incomplete)")
	}
	fmt.Fprintln(stdout)
	return code
}

func cmdQuery(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("query", stderr)
	sem := fs.String("sem", "so", "semantics: so, lp, or op")
	mode := fs.String("mode", "cautious", "cautious or brave")
	maxMem := fs.Int64("max-mem", 0, "memory watermark in bytes of retained tuples and clause literals (0 = none)")
	timeout := fs.Duration("timeout", 0, "abort after this long, printing partial results (0 = none)")
	wall := fs.Duration("wall", 0, "per-run wall-clock budget, reported as a budget rather than a timeout (0 = none)")
	workers := fs.Int("workers", 1, "search worker pool size (1 = sequential, deterministic output order; 0 = GOMAXPROCS)")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	prog, code := loadProgram(fs, stderr)
	if prog == nil {
		return code
	}
	if len(prog.Queries) == 0 {
		return fail(stderr, fmt.Errorf("no queries (\"?- ...\") in the file"))
	}
	semv, err := semFromFlag(*sem)
	if err != nil {
		return fail(stderr, err)
	}
	m := ntgd.Cautious
	if *mode == "brave" {
		m = ntgd.Brave
	}
	// One compiled Solver answers every query in the file.
	s, err := ntgd.Compile(prog, ntgd.CompileOptions{
		Semantics: semv,
		Options:   ntgd.Options{Workers: *workers, MaxMemory: *maxMem, MaxWallClock: *wall},
	})
	if err != nil {
		return failCompile(stderr, err)
	}
	ctx, cancel := solveContext(*timeout)
	defer cancel()
	code = exitOK
	for _, q := range prog.Queries {
		if q.IsBoolean() {
			v, err := s.Entails(ctx, q, m)
			if err != nil {
				code = reportRunError(stderr, err, s.Stats())
				fmt.Fprintf(stdout, "%s  %s: unknown\n", q, m)
				continue
			}
			fmt.Fprintf(stdout, "%s  %s: %v\n", q, m, v.Entailed)
			if v.Witness != nil {
				fmt.Fprintf(stdout, "  witness model: { %s }\n", v.Witness.CanonicalString())
			}
			continue
		}
		tuples, complete, err := s.Answers(ctx, q, m)
		if err != nil {
			code = reportRunError(stderr, err, s.Stats())
			fmt.Fprintf(stdout, "%s  %s answers: unknown\n", q, m)
			continue
		}
		fmt.Fprintf(stdout, "%s  %s answers:", q, m)
		for _, t := range tuples {
			fmt.Fprintf(stdout, " %s", t)
		}
		if !complete {
			fmt.Fprintf(stdout, "  (incomplete)")
		}
		fmt.Fprintln(stdout)
	}
	return code
}

func cmdChase(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("chase", stderr)
	oblivious := fs.Bool("oblivious", false, "use the oblivious chase")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	prog, code := loadProgram(fs, stderr)
	if prog == nil {
		return code
	}
	opt := chase.Options{}
	if *oblivious {
		opt.Variant = chase.Oblivious
	}
	res, err := chase.Run(prog.Database(), prog.Rules, opt)
	if err != nil {
		return fail(stderr, err)
	}
	for _, a := range res.Instance.Sorted() {
		fmt.Fprintln(stdout, a)
	}
	fmt.Fprintf(stdout, "%% %d atoms, %d applications, %d nulls, %d rounds\n",
		res.Instance.Len(), res.Applications, res.NullsInvented, res.Rounds)
	return exitOK
}

func cmdGround(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("ground", stderr)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	prog, code := loadProgram(fs, stderr)
	if prog == nil {
		return code
	}
	sk := ground.Skolemize(prog.Rules)
	g, err := ground.Ground(prog.Database(), sk, ground.Options{})
	if err != nil {
		return fail(stderr, err)
	}
	// The grounding keeps no atom names; print with the original atoms.
	g.Prog.Names = make([]string, g.Base.Len())
	for i, a := range g.Base.Atoms() {
		g.Prog.Names[i] = a.String()
	}
	fmt.Fprint(stdout, g.Prog.String())
	fmt.Fprintf(stdout, "%% %d atoms, %d ground rules\n", g.Base.Len(), len(g.Prog.Rules))
	return exitOK
}

func cmdFormula(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("formula", stderr)
	mm := fs.Bool("mm", false, "print MM[D,Σ] (circumscription) instead of SM[D,Σ]")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	prog, code := loadProgram(fs, stderr)
	if prog == nil {
		return code
	}
	if *mm {
		fmt.Fprintln(stdout, ntgd.MMFormula(prog))
	} else {
		fmt.Fprintln(stdout, ntgd.SMFormula(prog))
	}
	return exitOK
}
