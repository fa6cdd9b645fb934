package core

// This file holds the run-scoped machinery of one enumeration: the
// state shared by every worker of the pool (cumulative counters, the
// global stop flag, the deduplicating model sink) and the fork-join
// worker pool that explores independent branch subtrees concurrently.
//
// Parallelism model. The search tree's branch children are mutually
// independent: PR 2 made every child an O(1) copy-on-write snapshot of
// its parent's fact store plus its own agenda, so sibling subtrees
// share nothing they write. The pool exploits exactly that: whenever a
// worker creates a branch child and a pool slot is free, the child
// subtree is handed to a fresh worker goroutine (idle capacity steals
// the work); otherwise the worker descends inline, preserving plain
// depth-first order. Per-node behavior is untouched — branch-trigger
// selection order, witness-pool construction, and the deterministic
// closure are identical to the sequential search, which is what makes
// the canonical model set invariant (see below).
//
// Safety rests on a freeze discipline, not on store locks: a state's
// layer stops growing before its children are snapshotted, and the
// goroutine spawn that hands a child to a worker establishes the
// happens-before edge covering every earlier write to the parent
// chain. See the concurrency notes on logic.FactStore. The only
// mutable state shared between workers is in this file (atomics and
// the mutex-guarded sink) plus the lazily cached trigger key, which is
// an atomic pointer (see triggerKey).
//
// Determinism. A complete run (no cancellation, no budget, no visitor
// stop) explores exactly the same set of search nodes for every worker
// count, so the canonical stable-model set is bit-identical to the
// sequential search. Only the delivery order — and, for models whose
// canonical keys collide across different subtrees, which concrete
// null labeling is delivered first — depends on scheduling; Workers ==
// 1 additionally guarantees the exact sequential order.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ntgd/internal/engine"
	"ntgd/internal/failpoint"
	"ntgd/internal/logic"
)

// run is the state of one enumeration shared by every worker: the
// compiled artifacts (read-only for the duration of the run), the
// pool, the deduplicating model sink, and the cumulative counters.
type run struct {
	*ruleSet
	db *logic.FactStore
	// rootLen is the length of the run root's store: the indices below
	// it hold D plus, once the run starts from (or has built) the frozen
	// root, lfp(Det, D). Every candidate contains them, so the stability
	// session fixes them true and modelKey skips them.
	rootLen int
	opt     Options
	// atomBound names where opt.MaxAtoms came from, for the ErrBudget
	// text.
	atomBound string
	// syms is the Symbols table every store of the run shares.
	syms *logic.Symbols
	// hasNulls records whether the database or the witness-pool extras
	// contain labeled nulls, which rules out modelKey's null-free path.
	hasNulls bool
	// building is the root state while this run builds the frozen root
	// (nil otherwise): dfs hands it to publish once its deterministic
	// closure is complete or dead.
	building *state
	publish  func(*frozenRoot)
	// naive switches trigger detection to the full-rescan oracle
	// (findTriggerNaive); used by the differential tests only, and
	// always sequential.
	naive bool
	// ctx cancels the search; it is checked at every node alongside
	// MaxNodes.
	ctx context.Context

	// nodes is the shared node counter: it is both the Nodes stat and
	// the MaxNodes budget, so the budget is global across workers.
	nodes atomic.Int64
	// stop asks every worker to unwind: set on visitor stop, node
	// budget exhaustion, and cancellation.
	stop atomic.Bool
	// exhausted records the first budget hit (budgetNodes, or
	// budgetAtoms on some branch); unlike stop it does not end the
	// search by itself — a MaxAtoms hit only kills its branch.
	exhausted atomic.Int32
	// mem is the run's retained-allocation proxy — facts added on any
	// branch plus stability-clause literals — compared against the
	// MaxMemory watermark; memHit records that the watermark tripped,
	// which stops the whole run (see chargeMem).
	mem    atomic.Int64
	memHit atomic.Bool

	// tokens is the pool: capacity Workers-1 (the root worker holds an
	// implicit slot), nil for a sequential run. A worker forks a branch
	// child only when a token is free, bounding live goroutines.
	tokens chan struct{}
	wg     sync.WaitGroup
	// models carries stability-checked, deduplicated models from the
	// workers to the caller goroutine, which owns the visitor — user
	// code must never run on a pool goroutine. nil for a sequential
	// run, where the single worker calls the visitor in place.
	models chan *logic.FactStore
	// done is closed when the visitor stops the enumeration, releasing
	// workers blocked on a models send.
	done chan struct{}

	mu sync.Mutex
	// seen deduplicates models by canonical key across all workers.
	// Marking happens after the stability check, just before delivery,
	// exactly as in the sequential search.
	seen map[string]bool
	// visit is the sequential-mode visitor (parallel mode delivers via
	// the models channel instead).
	visit func(*logic.FactStore) bool
	// stats accumulates finished workers' local counters.
	stats Stats
	// ctxErr records the first cancellation cause.
	ctxErr error
	// intErr records the first worker panic, recovered at the worker
	// boundary and typed *engine.InternalError (see runWorker). It
	// outranks ctxErr in finalStats: an internal fault carries the
	// stack a host needs, while cancellation is ambient.
	intErr error
	// stopped records that the visitor ended the enumeration (which is
	// not an error, unlike ctxErr).
	stopped bool
	// emitted counts models delivered to the visitor. Sequential mode
	// writes it from the single worker; parallel mode only from the
	// caller goroutine draining the models channel.
	emitted int64
}

// resolveWorkers picks the pool size: 0 defaults to GOMAXPROCS, and
// the naive differential oracle is always sequential.
func resolveWorkers(w int, naive bool) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if naive || w < 1 {
		w = 1
	}
	return w
}

// The budgets a run can exhaust, as recorded in run.exhausted.
const (
	budgetAtoms int32 = 1 + iota
	budgetNodes
)

// exhaust records a budget hit; the first bound hit is the one the
// ErrBudget text names.
func (r *run) exhaust(which int32) { r.exhausted.CompareAndSwap(0, which) }

// budgetError is the run's ErrBudget, naming the bound that was hit.
func (r *run) budgetError() error {
	if r.exhausted.Load() == budgetNodes {
		return fmt.Errorf("%w: the search visited more than %d nodes (Options.MaxNodes)", ErrBudget, r.opt.MaxNodes)
	}
	return fmt.Errorf("%w: a branch derived more than %d atoms above the database (%s)", ErrBudget, r.opt.MaxAtoms, r.atomBound)
}

// publishRoot hands the building run's root state to the Compiled
// once its deterministic closure is complete (or dead: a constraint
// fired). The state's store is frozen from here on — the root state
// only snapshots it — so later runs may snapshot it concurrently. The
// run's own root prefix grows to the closure before any stability
// session or model key reads it.
func (r *run) publishRoot(st *state, dead bool) {
	fr := &frozenRoot{store: st.A, derived: st.A.Len() - r.db.Len(), dead: dead}
	if !dead {
		fr.agenda = st.agenda.clone()
		r.rootLen = st.A.Len()
	}
	r.publish(fr)
}

// cancelWith records the first cancellation cause and stops the pool.
func (r *run) cancelWith(err error) {
	r.mu.Lock()
	if r.ctxErr == nil {
		r.ctxErr = err
	}
	r.mu.Unlock()
	r.stop.Store(true)
}

// failWith records a recovered panic (first fault wins) as a typed
// internal error and stops the pool. The stack is captured here, at the
// recovery point, so it still shows the panic origin.
func (r *run) failWith(v any) {
	ie := engine.NewInternalError(v)
	r.mu.Lock()
	if r.intErr == nil {
		r.intErr = ie
	}
	r.mu.Unlock()
	r.stop.Store(true)
}

// chargeMem adds n bytes to the run's retained-allocation watermark
// (packed-tuple bytes for facts, litBytes per stability literal) and
// trips the memory watermark once the total passes MaxMemory. Tripping
// stops the whole run (not just a branch): the watermark measures
// retained growth across all branches, which killing one subtree
// cannot undo.
func (r *run) chargeMem(n int64) {
	if r.opt.MaxMemory <= 0 || n <= 0 {
		return
	}
	if r.mem.Add(n) > r.opt.MaxMemory {
		r.memHit.Store(true)
		r.stop.Store(true)
	}
}

// runWorker is the recovery boundary of every search worker — the
// sequential search, the parallel root, and each forked subtree alike:
// a panic anywhere under dfs (trigger machinery, stability sessions,
// the SAT solver, store snapshots) is recovered here, converted to a
// typed internal error, and turned into a pool-wide stop, so the
// remaining workers unwind cleanly, the pool joins, and the Compiled
// engine stays reusable. Partial worker stats survive the fault.
func (r *run) runWorker(st *state) {
	w := &searcher{run: r}
	defer func() {
		if v := recover(); v != nil {
			r.failWith(v)
		}
		r.mergeStats(w.stats)
		if c := r.opt.stabCounts; c != nil {
			c.add(w.stabLayers, w.stabWindows, w.stabForks, w.stabMaxVars)
		}
	}()
	failpoint.Inject(failpoint.CoreFork)
	w.dfs(st)
}

// safeVisit shields the pool from a panicking visitor in parallel mode:
// the panic is recovered on the caller goroutine (where the visitor
// runs), recorded as an internal fault, and treated as a stop so the
// workers drain and join. (The public Solver layer re-raises visitor
// panics instead — engine.Guard intercepts them before they reach the
// engine — so this path serves direct core callers, whose plain
// callback contract allows a typed error.) Sequential mode needs no
// shield: the visitor runs under runWorker's recovery.
func (r *run) safeVisit(visit func(*logic.FactStore) bool, m *logic.FactStore) (ok bool) {
	defer func() {
		if v := recover(); v != nil {
			r.failWith(v)
			ok = false
		}
	}()
	return visit(m)
}

// mergeStats folds a finished worker's local counters into the run.
func (r *run) mergeStats(st Stats) {
	r.mu.Lock()
	r.stats.Add(st)
	r.mu.Unlock()
}

// seenKey reports whether a canonical model key was already emitted.
func (r *run) seenKey(key string) bool {
	r.mu.Lock()
	ok := r.seen[key]
	r.mu.Unlock()
	return ok
}

// emit delivers a stability-checked model. Two workers may reach the
// same canonical key concurrently (each paying its own stability
// check); the seen map is re-checked under the lock so exactly one
// wins — the same first-wins dedup the sequential search performs,
// which keeps the emitted canonical model set identical. Reports
// false when the enumeration should stop.
func (r *run) emit(key string, m *logic.FactStore) bool {
	// The failpoint sits before the critical section: a fault must
	// never unwind while holding run.mu.
	failpoint.Inject(failpoint.CoreSink)
	r.mu.Lock()
	if r.seen[key] || r.stopped {
		stopped := r.stopped
		r.mu.Unlock()
		return !stopped
	}
	r.seen[key] = true
	r.mu.Unlock()
	if r.models == nil {
		// Sequential: the single worker runs on the caller goroutine
		// and may call the visitor directly.
		r.emitted++
		if !r.visit(m) {
			r.stopped = true
			r.stop.Store(true)
			return false
		}
		return true
	}
	select {
	case r.models <- m:
		return !r.stop.Load()
	case <-r.done:
		return false
	}
}

// consume runs on the caller goroutine, feeding the visitor from the
// models channel until the pool drains. After the visitor stops, the
// loop keeps discarding queued models so blocked workers wind down;
// the channel is closed once every worker has exited.
func (r *run) consume(visit func(*logic.FactStore) bool) {
	for m := range r.models {
		r.mu.Lock()
		stopped := r.stopped
		r.mu.Unlock()
		if stopped {
			continue
		}
		r.emitted++
		if !r.safeVisit(visit, m) {
			r.mu.Lock()
			r.stopped = true
			r.mu.Unlock()
			r.stop.Store(true)
			close(r.done)
		}
	}
}

// explore runs a branch child subtree: inline (plain depth-first
// order) unless a pool slot is free, in which case the subtree is
// handed to a fresh worker goroutine and explored concurrently with
// its siblings. Forked subtrees report failure through the shared
// stop flag rather than the return value.
//
// Before a fork, the session chain the child shares with its parent is
// encoded, so every layer both goroutines reach is frozen: each worker
// then only reads it, loading the chain's clauses into its own solver
// for its checks, and the fork copies nothing. The encoding happens
// before the goroutine spawn, on the parent's goroutine, so the spawn's
// happens-before edge covers it.
func (s *searcher) explore(child *state) bool {
	r := s.run
	if r.stop.Load() {
		return false
	}
	if r.tokens != nil {
		select {
		case r.tokens <- struct{}{}:
			if child.sess != nil {
				s.encodeChain(child.sess)
				s.stabForks++
			}
			r.wg.Add(1)
			go func() {
				defer func() {
					<-r.tokens
					r.wg.Done()
				}()
				r.runWorker(child)
			}()
			return true
		default:
		}
	}
	return s.dfs(child)
}

// finalStats assembles the run's Stats after every worker has joined,
// along with the terminal fault: a recovered internal panic outranks a
// cancellation cause (nil when neither occurred).
func (r *run) finalStats() (Stats, error) {
	r.mu.Lock()
	st := r.stats
	err := r.intErr
	if err == nil {
		err = r.ctxErr
	}
	r.mu.Unlock()
	st.Nodes = r.nodes.Load()
	st.ModelsEmitted = r.emitted
	return st, err
}

// execute runs the search from the root state with the given pool
// size, delivering models to visit on the caller's goroutine, and
// returns the uniform (Stats, exhausted, error) triple of
// engine.Engine.Enumerate.
func (r *run) execute(root *state, workers int, visit func(*logic.FactStore) bool) (Stats, bool, error) {
	if workers <= 1 {
		r.visit = visit
		r.runWorker(root)
	} else {
		r.tokens = make(chan struct{}, workers-1)
		r.models = make(chan *logic.FactStore, workers)
		r.done = make(chan struct{})
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.runWorker(root)
		}()
		go func() {
			// Close the sink only after the root worker and every
			// forked subtree have exited; consume then terminates and
			// no goroutine outlives the enumeration.
			r.wg.Wait()
			close(r.models)
		}()
		r.consume(visit)
	}
	// Terminal-state resolution, in decreasing severity: a recovered
	// internal fault, then cancellation, then the memory watermark, then
	// a node/atom budget — each with the partial stats accumulated so
	// far and Exhausted set (the enumeration may be incomplete).
	stats, termErr := r.finalStats()
	if termErr != nil {
		return stats, true, termErr
	}
	if r.memHit.Load() {
		return stats, true, engine.ErrMemory
	}
	if r.exhausted.Load() != 0 {
		return stats, true, r.budgetError()
	}
	return stats, false, nil
}
