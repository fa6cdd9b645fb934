package ntgd

import (
	"context"
	"fmt"
	"iter"
	"sync"

	"ntgd/internal/asp"
	"ntgd/internal/classify"
	"ntgd/internal/core"
	"ntgd/internal/engine"
	"ntgd/internal/lp"
)

// CompileOptions configures Compile.
type CompileOptions struct {
	// Semantics selects which stable model semantics interprets the
	// program (SO, the default, is the paper's new semantics).
	Semantics Semantics
	// Options carries the search knobs. Under SO and Operational every
	// field applies — including Options.Workers, which sizes the
	// parallel branch-exploration pool (0 = GOMAXPROCS, 1 =
	// sequential). Under LP the pipeline honors MaxModels and
	// MaxNodes (the witness space is fixed by Skolemization, so
	// WitnessPolicy, ExtraConstants, and Workers do not apply, and
	// MaxAtoms is replaced by the grounder's own bounds).
	Options Options
	// Gate, when non-nil, is a shared admission gate: every run of this
	// Solver acquires a slot from it, and several Solvers compiled with
	// the same Gate share one concurrency bound. Long-lived hosts
	// serving many compiled programs (the ntgdd daemon) use this to
	// bound total load rather than per-program load. When nil, a
	// private gate is derived from Options.MaxConcurrentRuns (0 = no
	// gate). Refusal surfaces as ErrAdmission either way.
	Gate *Gate
	// Database, when non-nil, supplies a pre-loaded fact base: the
	// compiled program's root database becomes a copy-on-write snapshot
	// of the (frozen) Database, with the program's own facts added on
	// the snapshot layer. Compiling many programs against one Database
	// shares the interned, packed, indexed root across all of them
	// instead of rebuilding it per Compile. An unfrozen Database is
	// frozen by Compile. A Database is the one way to pass pre-loaded
	// facts; without one, the program's own facts form the root.
	Database *Database
}

// Gate is a counting admission semaphore bounding concurrent
// enumerations, with bounded deadline-aware admission: on a
// bounded-queue gate, a caller arriving with the waiter queue at its
// bound, or whose deadline must expire before a slot can free
// (estimated from the gate's EWMA of run times), is refused
// immediately instead of parking. Construct one with NewGate
// (unbounded queue — every excess caller parks until its context
// ends, never refused up front) or NewGateQueue (bounded) and share
// it across CompileOptions.Gate to bound the combined load of several
// Solvers. Snapshot exposes occupancy, queue depth, the EWMA, and shed
// counters by reason; SetQueueBound adjusts the queue bound at runtime
// (the daemon's memory brownout shrinks and restores it).
type Gate = engine.Gate

// GateStats is a point-in-time view of a Gate (see Gate.Snapshot).
type GateStats = engine.GateStats

// AdmissionError is the concrete refusal error of a Gate: it matches
// errors.Is(err, ErrAdmission) and carries the shed reason and a
// machine-readable RetryAfter hint.
type AdmissionError = engine.AdmissionError

// Shed reasons recorded on AdmissionError.Reason.
const (
	ShedQueueFull = engine.ShedQueueFull
	ShedDeadline  = engine.ShedDeadline
	ShedExpired   = engine.ShedExpired
)

// NewGate returns a gate admitting up to n concurrent runs with an
// unbounded waiter queue, or nil (admit everything) when n <= 0. A
// queued run whose context ends before a slot frees is refused with an
// ErrAdmission-matching error.
func NewGate(n int) *Gate { return engine.NewGate(n) }

// NewGateQueue returns a gate admitting up to slots concurrent runs
// with at most maxQueue parked waiters: excess arrivals are refused
// immediately (no parking) with an *AdmissionError carrying a
// RetryAfter hint. maxQueue < 0 leaves the queue unbounded, 0 refuses
// whenever every slot is busy.
func NewGateQueue(slots, maxQueue int) *Gate { return engine.NewGateQueue(slots, maxQueue) }

// Solver is a compiled program under one semantics: validation,
// syntactic classification, Skolemization and grounding artifacts (LP),
// and per-rule search metadata (SO/Operational) are computed once by
// Compile; the database's consequences — the chase-derived budget
// probe and the deterministic closure the search starts from
// (SO/Operational), the frozen well-founded core (LP) — once by the
// first run that needs them. Every enumeration and query runs against
// the shared artifacts. All entry points take a
// context.Context: cancellation or a deadline aborts the search
// mid-flight with the partial Stats accumulated so far, and the Solver
// remains reusable afterwards.
//
// A Solver is safe for concurrent use: any number of goroutines may
// run Models, Entails, Answers, and Consistent against one Solver at
// once. Runs share only immutable compiled artifacts and internally
// synchronized state (the per-program budget probe, frozen run root and
// well-founded core, each published once complete, and the cumulative
// Stats); each run owns its search state outright, layering
// copy-on-write snapshots over the frozen root. Within one
// call the search itself may also run parallel — Options.Workers sizes
// a worker pool that explores independent branch subtrees concurrently
// (see Models for the ordering guarantee), and
// Options.MaxConcurrentRuns bounds how many runs are admitted at once.
//
// The Solver is also hardened for long-lived hosts: every terminal
// error is errors.Is-matchable against the taxonomy ErrBudget (node or
// wall-clock budget), ErrMemory (watermark), ErrAdmission (gate), and
// ErrInternal (a recovered engine panic, carrying the stack); in each
// case the workers are joined, partial Stats are recorded, and the
// Solver remains reusable.
type Solver struct {
	prog   *Program
	sem    Semantics
	opt    Options
	report *Report
	eng    engine.Engine

	mu        sync.Mutex
	stats     Stats
	exhausted bool
}

// Compile validates the program, classifies it syntactically, and
// compiles it under the chosen semantics. The returned Solver amortizes
// that work across any number of Models, Entails, Answers, and
// Consistent calls.
func Compile(p *Program, opt CompileOptions) (*Solver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	db := rootDatabase(p, opt)
	var eng engine.Engine
	var err error
	switch opt.Semantics {
	case SO:
		eng, err = core.Compile(db, p.Rules, opt.Options)
	case Operational:
		// The operational semantics of [3] is the SO search with every
		// existential witnessed by a fresh null.
		o := opt.Options
		o.WitnessPolicy = core.WitnessFreshOnly
		eng, err = core.Compile(db, p.Rules, o)
	case LP:
		// MaxModels is enforced by Solver.Models' own counter (the
		// engine contract is visitor-driven), so only the node budget
		// reaches the pipeline.
		eng, err = lp.Compile(db, p.Rules, lp.Options{
			Solve: asp.SolveOptions{MaxNodes: opt.Options.MaxNodes},
		})
	default:
		err = fmt.Errorf("ntgd: unknown semantics %v", opt.Semantics)
	}
	if err != nil {
		return nil, err
	}
	// The robustness layer wraps every semantics uniformly: admission
	// gating, the wall-clock watchdog, and panic isolation (recovered
	// engine panics become typed ErrInternal; a panicking visitor is
	// re-raised only after the engine has unwound and joined its
	// workers). A caller-supplied Gate takes precedence so several
	// Solvers can share one admission bound.
	gate := opt.Gate
	if gate == nil {
		gate = engine.NewGate(opt.Options.MaxConcurrentRuns)
	}
	eng = engine.Guard(eng, engine.GuardConfig{
		Gate:      gate,
		WallClock: opt.Options.MaxWallClock,
	})
	return &Solver{
		prog:   p,
		sem:    opt.Semantics,
		opt:    opt.Options,
		report: classify.Classify(p.Rules),
		eng:    eng,
	}, nil
}

// MustCompile compiles and panics on error; intended for tests and
// examples.
func MustCompile(p *Program, opt CompileOptions) *Solver {
	s, err := Compile(p, opt)
	if err != nil {
		panic(err)
	}
	return s
}

// record folds one run's effort into the solver's cumulative stats.
func (s *Solver) record(st Stats, exhausted bool) {
	s.mu.Lock()
	s.stats.Add(st)
	s.exhausted = exhausted
	s.mu.Unlock()
}

// Models streams the stable models of the program. Breaking out of the
// range loop releases the search immediately; cancelling ctx (or its
// deadline expiring) aborts mid-search, yielding the context error as
// the final element. A budget hit yields ErrBudget the same way, a
// memory-watermark hit ErrMemory, a refused admission ErrAdmission,
// and a recovered engine panic ErrInternal. In every case Stats
// reports the partial effort and the Solver remains reusable for
// further calls. Options.MaxModels, when set, bounds the number of
// models yielded.
//
// Misuse hardening: the returned sequence may be ranged over more than
// once (each invocation is an independent run), and a panic in the
// loop body propagates to the caller — as range-over-func semantics
// require — only after the search workers have been stopped and
// joined, so neither leaks goroutines nor wedges the pool. Stats from
// a run aborted by a loop-body panic are not recorded.
//
// Ordering: with Options.Workers == 1 the stream is the deterministic
// sequential depth-first order; with a larger pool (the default is
// GOMAXPROCS) sibling subtrees are explored concurrently and a
// complete enumeration yields the same canonical model set in a
// scheduling-dependent order. Models are always delivered on the
// caller's goroutine, whatever the pool size.
func (s *Solver) Models(ctx context.Context) iter.Seq2[*FactStore, error] {
	return func(yield func(*FactStore, error) bool) {
		stopped := false
		n := 0
		stats, exhausted, err := s.eng.Enumerate(ctx, engine.Params{}, func(m *FactStore) bool {
			n++
			if !yield(m, nil) {
				stopped = true
				return false
			}
			if s.opt.MaxModels > 0 && n >= s.opt.MaxModels {
				stopped = true
				return false
			}
			return true
		})
		s.record(stats, exhausted)
		if err != nil && !stopped {
			yield(nil, err)
		}
	}
}

// Collect materializes up to maxModels stable models (0 = all, subject
// to Options.MaxModels when that is smaller) and returns them together
// with the run's own Stats — unlike Solver.Stats, which is cumulative
// across every call, Result.Stats covers exactly this run. On a
// terminal error (budget, memory, admission, cancellation, internal
// fault) the partial Result is returned alongside the error with
// Result.Exhausted set. Hosts that serve per-request effort reports
// (the ntgdd daemon) use this instead of ranging Models.
func (s *Solver) Collect(ctx context.Context, maxModels int) (*Result, error) {
	if s.opt.MaxModels > 0 && (maxModels == 0 || maxModels > s.opt.MaxModels) {
		maxModels = s.opt.MaxModels
	}
	res, err := engine.CollectModels(ctx, s.eng, engine.Params{}, maxModels)
	s.record(res.Stats, res.Exhausted)
	return res, err
}

// Entails answers a Boolean query under the solver's semantics and the
// given reasoning mode. The query's constants extend the witness pool
// where the semantics allows it (SO).
func (s *Solver) Entails(ctx context.Context, q Query, mode Mode) (QAResult, error) {
	var res QAResult
	var err error
	if mode == Brave {
		res, err = engine.BraveEntails(ctx, s.eng, engine.Params{}, q)
	} else {
		res, err = engine.CautiousEntails(ctx, s.eng, engine.Params{}, q)
	}
	s.record(res.Stats, res.Exhausted)
	return res, err
}

// Answers computes the certain (Cautious) or possible (Brave) answers
// of an n-ary query under the solver's semantics. ok is false when the
// answer set is ill-defined (cautious answering over an empty stable
// model set) or the enumeration was incomplete.
func (s *Solver) Answers(ctx context.Context, q Query, mode Mode) ([]AnswerTuple, bool, error) {
	tuples, ok, stats, exhausted, err := engine.Answers(ctx, s.eng, engine.Params{}, q, mode == Brave)
	s.record(stats, exhausted)
	return tuples, ok, err
}

// AnswersResult is the outcome of Solver.AnswerSet: the tuples of an
// n-ary query together with the run's own effort report.
type AnswersResult struct {
	// Tuples are the certain (Cautious) or possible (Brave) answers.
	Tuples []AnswerTuple
	// Complete is false when the answer set is ill-defined (cautious
	// answering over an empty stable model set) or the enumeration was
	// incomplete.
	Complete bool
	// Exhausted reports a possibly incomplete enumeration.
	Exhausted bool
	// Stats is this run's effort (not the Solver's cumulative total).
	Stats Stats
}

// AnswerSet is Answers extended with the run's own Stats and Exhausted
// flag, for hosts that report per-request effort (the ntgdd daemon).
// On a terminal error the partial AnswersResult accompanies it.
func (s *Solver) AnswerSet(ctx context.Context, q Query, mode Mode) (AnswersResult, error) {
	tuples, ok, stats, exhausted, err := engine.Answers(ctx, s.eng, engine.Params{}, q, mode == Brave)
	s.record(stats, exhausted)
	return AnswersResult{Tuples: tuples, Complete: ok, Exhausted: exhausted, Stats: stats}, err
}

// Consistent reports whether the program has at least one stable model
// under the solver's semantics. A found model makes the positive
// verdict definitive even if a budget was hit afterwards.
func (s *Solver) Consistent(ctx context.Context) (bool, error) {
	ok, stats, exhausted, err := engine.Consistent(ctx, s.eng, engine.Params{})
	s.record(stats, exhausted)
	return ok, err
}

// Stats returns the cumulative search effort across every completed
// call made on this Solver, including runs aborted by cancellation or
// a budget. It is safe to call while other calls are in flight; a run
// still in flight contributes once it completes.
func (s *Solver) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Exhausted reports whether the most recently completed call's
// enumeration was possibly incomplete: a budget or watermark was hit,
// the context was cancelled, or the run failed internally. It is safe
// to call while other calls are in flight ("most recent" then means
// the latest run to complete).
func (s *Solver) Exhausted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exhausted
}

// Classification returns the syntactic classification (weak-acyclicity,
// stickiness, guardedness) computed at compile time.
func (s *Solver) Classification() *Report { return s.report }

// Semantics returns the semantics the program was compiled under.
func (s *Solver) Semantics() Semantics { return s.sem }

// Program returns the compiled program.
func (s *Solver) Program() *Program { return s.prog }

// ensure the engines satisfy the shared interface.
var (
	_ engine.Engine = (*core.Compiled)(nil)
	_ engine.Engine = (*lp.Compiled)(nil)
)
