// Package lp implements the classical "LP approach" to stable model
// semantics for NTGDs (Section 3.1): existential head variables are
// eliminated by Skolemization, the resulting normal program is
// grounded over its derivable Herbrand base, and the standard stable
// model semantics for (ground) normal logic programs is applied.
//
// The paper's Theorem 1 shows that on Skolemized programs this
// coincides with the new SO-based semantics of internal/core, while
// Examples 2 and 4 show that applying it to NTGDs with genuine
// existentials loses the intended models (the Skolem term f(alice) can
// never equal bob). Both facts are exercised by the test suite.
package lp

import (
	"context"
	"errors"
	"sync"

	"ntgd/internal/asp"
	"ntgd/internal/engine"
	"ntgd/internal/ground"
	"ntgd/internal/logic"
)

// Options configures the pipeline. The grounding runs under
// ground.Options' default bounds.
type Options struct {
	// Solve configures stable model enumeration.
	Solve asp.SolveOptions
}

// Compiled is the LP pipeline compiled for one program: rules
// Skolemized and the resulting normal program grounded over its
// derivable Herbrand base, once. Enumeration runs replay the ground
// program through the ASP solver without re-grounding. When the ground
// program's well-founded model is total (a stratified program, say),
// it is the only stable model: a run emits it without searching, as a
// snapshot of the frozen store of its true atoms. Compiled holds the
// database it was compiled against (through its grounding), and every
// store it builds is a copy-on-write layer over it. Compiled implements
// the engine.Engine interface and is safe for concurrent use.
type Compiled struct {
	g *ground.Grounding
	// solve carries the ground program's well-founded model (solve.WFS),
	// computed once at compile instead of once per run, or nil when it
	// is undefined (disjunctions or constraints). It seeds every solve,
	// and every stable model contains its true atoms.
	solve asp.SolveOptions

	mu sync.Mutex
	// core is the frozen store of the well-founded true atoms, a
	// snapshot of the database with the true derived atoms on its own
	// layer, built by the first run that materializes a model and
	// published only once complete; every run's models are snapshots
	// of it.
	core *logic.FactStore
}

// Compile Skolemizes and grounds the program. The grounding (and with
// it the witness space — Skolem terms only) is fixed here; later
// per-query constants cannot change it, which is exactly the
// Skolemization weakness the paper's Examples 2 and 4 exhibit.
func Compile(db *logic.FactStore, rules []*logic.Rule, opt Options) (*Compiled, error) {
	sk := ground.Skolemize(rules)
	g, err := ground.Ground(db, sk, ground.Options{})
	if err != nil {
		return nil, err
	}
	// Validated once here: asp.SolveCtx does not validate.
	if err := g.Prog.Validate(); err != nil {
		return nil, err
	}
	solveOpt := opt.Solve
	solveOpt.WFS = nil
	if wfs, err := asp.WellFounded(g.Prog); err == nil {
		solveOpt.WFS = wfs
	}
	return &Compiled{g: g, solve: solveOpt}, nil
}

// modelStores returns the model materializer of one run. Every model is
// a layer over the database (see ground.Grounding.ModelStore). With a
// well-founded model, each model is a snapshot of the Compiled's frozen
// store of the well-founded true atoms plus the model's other atoms, so
// all models share their common part instead of each holding a full
// copy. Every stable model contains the true atoms, so a model of the
// same size is exactly them.
func (c *Compiled) modelStores() func(asp.Model) *logic.FactStore {
	wfs := c.solve.WFS
	if wfs == nil {
		return c.g.ModelStore
	}
	var core *logic.FactStore
	var rest []int
	return func(m asp.Model) *logic.FactStore {
		if core == nil {
			core = c.wfsCore()
		}
		s := core.Snapshot()
		if len(m) == len(wfs.True) {
			return s
		}
		rest = rest[:0]
		for _, id := range m {
			if !wfs.IsTrue(id) {
				rest = append(rest, id)
			}
		}
		s.AddFrom(c.g.Base, rest)
		return s
	}
}

// wfsCore returns the frozen store of the well-founded true atoms,
// building it when none is published. A run that panics while building
// it publishes nothing; concurrent first runs may each build one, and
// the first to finish is kept.
func (c *Compiled) wfsCore() *logic.FactStore {
	c.mu.Lock()
	core := c.core
	c.mu.Unlock()
	if core != nil {
		return core
	}
	core = c.g.ModelStore(c.solve.WFS.True)
	c.mu.Lock()
	if c.core == nil {
		c.core = core
	}
	core = c.core
	c.mu.Unlock()
	return core
}

// Semantics implements engine.Engine.
func (c *Compiled) Semantics() string { return "lp" }

// Grounding exposes the intermediate ground program.
func (c *Compiled) Grounding() *ground.Grounding { return c.g }

// Enumerate streams the LP-stable models over the original vocabulary
// (atoms may contain Skolem function terms), implementing
// engine.Engine. Params.ExtraConstants is ignored: the witness space
// was fixed by Skolemization at compile time.
func (c *Compiled) Enumerate(ctx context.Context, _ engine.Params, visit func(*logic.FactStore) bool) (engine.Stats, bool, error) {
	var emitted int64
	store := c.modelStores()
	stats, err := asp.SolveCtx(ctx, c.g.Prog, c.solve, func(m asp.Model) bool {
		emitted++
		return visit(store(m))
	})
	es := engine.Stats{
		Nodes:           stats.Nodes,
		Conflicts:       stats.Conflicts,
		StabilityChecks: stats.Checks,
		ModelsEmitted:   emitted,
	}
	exhausted := false
	if errors.Is(err, asp.ErrBudget) {
		err = engine.ErrBudget
		exhausted = true
	} else if err != nil && ctx.Err() != nil {
		exhausted = true
	}
	return es, exhausted, err
}
