// Package engine defines the uniform evaluation interface behind the
// public ntgd.Solver: one Engine contract that two engines implement.
// The SO search (internal/core) serves the paper's SO-based semantics
// and, under its fresh-only witness policy, the operational chase
// semantics of Baget et al.; the LP pipeline (internal/lp) serves the
// Skolemized-LP approach. A compiled engine holds every artifact
// derivable from the program alone (validation, budgets,
// Skolemization, grounding), so repeated enumeration and query
// answering amortize that work, and every run is context-aware:
// cancellation or a deadline aborts mid-search with the partial Stats
// accumulated so far.
//
// The generic query-answering algorithms (cautious/brave entailment,
// n-ary answers, consistency) live here too, written once against the
// Engine interface instead of per semantics. Compiling an engine and
// running these algorithms on it is the one way callers reach core and
// lp.
package engine

import (
	"context"
	"errors"

	"ntgd/internal/logic"
)

// ErrBudget is reported (alongside partial results) when an engine's
// search budget was hit before the enumeration completed. Both engines
// normalize their internal budget errors to this value.
var ErrBudget = errors.New("ntgd: search budget exhausted; enumeration may be incomplete")

// Params carries the per-call knobs of an enumeration run. Everything
// else (budgets, witness policy, grounding bounds) is fixed when the
// engine is compiled.
type Params struct {
	// ExtraConstants extends the witness pool for this run, typically
	// with the constants of the query being answered. Engines whose
	// witness space is fixed at compile time (the LP pipeline) ignore
	// it.
	ExtraConstants []logic.Term
}

// Stats is the uniform search-effort report shared by all engines.
// Engines fill the fields that apply to them and leave the rest zero.
type Stats struct {
	// Nodes counts search nodes visited.
	Nodes int64
	// Branches counts non-deterministic branch points (SO/operational).
	Branches int64
	// Deterministic counts forced trigger applications (SO/operational).
	// The database's deterministic closure is computed once per
	// compiled program, so its steps count only in the run that builds
	// the frozen run root; later runs start above it.
	Deterministic int64
	// Completed counts fixpoint candidates reached (SO/operational).
	Completed int64
	// StabilityChecks counts full stability validations.
	StabilityChecks int64
	// StabilityFailed counts candidates rejected as unstable.
	StabilityFailed int64
	// ModelsEmitted counts stable models delivered to the visitor.
	ModelsEmitted int64
	// Conflicts counts propagation conflicts (LP pipeline).
	Conflicts int64
}

// Add accumulates another run's effort into s.
func (s *Stats) Add(o Stats) {
	s.Nodes += o.Nodes
	s.Branches += o.Branches
	s.Deterministic += o.Deterministic
	s.Completed += o.Completed
	s.StabilityChecks += o.StabilityChecks
	s.StabilityFailed += o.StabilityFailed
	s.ModelsEmitted += o.ModelsEmitted
	s.Conflicts += o.Conflicts
}

// Engine is a compiled program under one stable model semantics. An
// Engine is safe for sequential reuse: enumeration runs share the
// compiled artifacts but mutate nothing visible across calls.
type Engine interface {
	// Semantics names the semantics ("so", "lp", "operational").
	Semantics() string
	// Enumerate streams the stable models to visit (return false to
	// stop early, which is not an error). It reports the run's effort,
	// whether the enumeration is possibly incomplete (a budget was hit
	// or ctx was cancelled), and the terminal error: nil, ErrBudget, or
	// ctx.Err(). Each delivered store is owned by the caller.
	Enumerate(ctx context.Context, p Params, visit func(*logic.FactStore) bool) (Stats, bool, error)
}

// Result holds a collected enumeration outcome.
type Result struct {
	Models []*logic.FactStore
	Stats  Stats
	// Exhausted is true when a budget was hit or the context was
	// cancelled, in which case the enumeration may be incomplete
	// (additional stable models may exist).
	Exhausted bool
}

// CollectModels materializes up to maxModels stable models (0 = all).
// On budget exhaustion or cancellation the partial Result is returned
// alongside the error.
func CollectModels(ctx context.Context, e Engine, p Params, maxModels int) (*Result, error) {
	res := &Result{}
	stats, exhausted, err := e.Enumerate(ctx, p, func(m *logic.FactStore) bool {
		res.Models = append(res.Models, m)
		return maxModels == 0 || len(res.Models) < maxModels
	})
	res.Stats = stats
	res.Exhausted = exhausted
	return res, err
}
