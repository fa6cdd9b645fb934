// Package core implements the paper's primary contribution: the new
// approach to stable model semantics for normal (possibly disjunctive)
// tuple-generating dependencies, defined via the second-order formula
// SM[D,Σ] (Definition 1) rather than via Skolemization. It provides:
//
//   - enumeration of the stable models SMS(D,Σ) by a chase-with-choices
//     search justified by Lemma 7 (M⁺ = T∞_{Σ,M}(D): every stable model
//     is obtained by "executing" Σ from D using M as an oracle for the
//     negative literals);
//   - the stability check of Proposition 11 (no J with D ⊆ J ⊊ M⁺
//     models the τ_{p▷s}-transformed program), encoded in CNF and
//     decided by internal/sat;
//   - a Compiled engine that internal/engine's cautious, brave,
//     answers and consistency algorithms (SMS-QAns, Sections 3.4 and
//     7.1) run against.
//
// The key semantic point (Examples 2 and 4) is that an existential head
// variable may be witnessed by any domain element — including a
// constant such as Bob — not only by a fresh null as under
// Skolemization or the operational semantics of Baget et al. The engine
// therefore draws witnesses from the current domain plus the query's
// constants plus fresh nulls (Options.WitnessPolicy = WitnessAnyDomain);
// since NTGDs are constant-free and query answers are invariant under
// isomorphisms fixing the query constants, this restricted pool is
// complete for certain-answer computation. Setting WitnessFreshOnly
// reproduces the operational semantics of Baget et al. [3].
//
// The immediate consequence operator T_{Σ,I} of Section 5.1 and its
// fixpoint T∞ live in the package's tests, which check Lemma 7 with
// them.
package core

import (
	"context"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ntgd/internal/chase"
	"ntgd/internal/classify"
	"ntgd/internal/engine"
	"ntgd/internal/logic"
)

// WitnessPolicy selects how existential head variables are witnessed
// during the stable model search.
type WitnessPolicy int

const (
	// WitnessAnyDomain draws witnesses from the current domain, the
	// extra constants, and fresh nulls — the paper's SO semantics.
	WitnessAnyDomain WitnessPolicy = iota
	// WitnessFreshOnly always invents fresh nulls. It realizes the
	// operational, chase-based semantics of Baget, Garreau, Mugnier
	// and Rocher ("Revisiting chase termination for existential rules
	// and their extension to nonmonotonic negation", NMR 2014),
	// reference [3] of the paper: a (possibly infinite) set of atoms M
	// is a stable model of (D ∧ Σ) if it is obtained by a complete and
	// sound chase of Σ⁺ from D — every applicable unblocked TGD is
	// eventually applied, no applied TGD has a negative literal in M,
	// and every existential variable is witnessed by a freshly invented
	// null, never by a constant. That last point is what the paper
	// criticizes (Section 1, Example 2): with fresh-only witnesses no
	// stable model contains hasFather(alice, bob), so
	// ¬hasFather(alice, bob) is (unexpectedly) entailed. Compiled's
	// Semantics reports "operational" under this policy.
	WitnessFreshOnly
)

func (w WitnessPolicy) String() string {
	if w == WitnessFreshOnly {
		return "fresh-only"
	}
	return "any-domain"
}

// Options configures the stable model search.
type Options struct {
	// MaxAtoms bounds the atoms a search branch derives above the
	// database; the database itself never counts against it. 0 derives
	// the bound once per compiled program from the oblivious chase of
	// Σ⁺ (the budget probe): twice the atoms the probe derives above the
	// database plus twice the run's extra constants, at least 64. This
	// is sound where Σ is weakly acyclic (Proposition 9), and the probe
	// then runs to its end; for other programs the probe and the
	// default stop at 16,384 derived atoms.
	MaxAtoms int
	// MaxNodes bounds the number of search nodes (0 = 8M).
	MaxNodes int64
	// WitnessPolicy selects the witness pool (see the type).
	WitnessPolicy WitnessPolicy
	// ExtraConstants extends the witness pool, typically with the
	// constants of the query being answered.
	ExtraConstants []logic.Term
	// MaxModels bounds the models a run delivers (0 = all). It is
	// enforced by the Solver layer: Solver.Models stops its stream and
	// Solver.Collect its result after this many models. The search
	// itself does not read it, so Compiled.Enumerate and the entailment
	// and answer queries, which need every model, ignore it.
	MaxModels int
	// Workers bounds the worker pool of the search: sibling branch
	// subtrees are explored concurrently by up to Workers goroutines,
	// each on its own store snapshot and trigger agenda. 0 defaults to
	// runtime.GOMAXPROCS(0); 1 forces the sequential depth-first
	// search. The canonical stable-model set is identical for every
	// setting (see parallel.go); enumeration order is deterministic
	// only when the effective worker count is 1.
	Workers int
	// MaxWallClock bounds each run's wall-clock time (0 = unbounded).
	// It is enforced by the Solver layer (engine.Guard drives the run
	// through the search's cancellation paths via a derived deadline);
	// expiry surfaces as engine.ErrWallClock, which matches ErrBudget
	// under errors.Is, with partial Stats and Exhausted preserved.
	MaxWallClock time.Duration
	// MaxMemory caps a run's retained-allocation watermark, in bytes of
	// interned tuples (0 = unbounded): every fact added on any branch
	// is charged at its packed-tuple size — 4 bytes for the predicate
	// id plus 4 per argument id (see logic.FactStore.TupleBytes) — and
	// every stability-clause literal at the size of its slot in the
	// session layer that encodes it. A check's SAT solver is scratch,
	// reused by the next check, and is not charged. The frozen run root
	// (the database's deterministic closure, see Compiled) is charged
	// only to the run that builds it; later runs start from it for free.
	// Unlike MaxAtoms — a per-branch candidate bound whose overflow
	// only kills the branch — the watermark measures cumulative growth
	// across the whole run, and tripping it stops the run with
	// engine.ErrMemory (partial Stats preserved, Exhausted set).
	MaxMemory int64
	// MaxConcurrentRuns bounds how many enumerations may run
	// concurrently against one compiled Solver (0 = unlimited). It is
	// enforced by the Solver layer through an admission gate: excess
	// runs queue instead of oversubscribing the pool, and a queued run
	// whose context ends is refused with engine.ErrAdmission.
	MaxConcurrentRuns int

	// stabOracle, when non-nil, cross-checks every session-based
	// stability verdict against the full-rebuild oracle
	// (stableAgainstSubsetsNaive) and counts mismatches. Package-private:
	// only the differential tests set it.
	stabOracle *atomic.Int64
	// stabCounts, when non-nil, receives the number of stability
	// session layers the run allocated, of session windows it encoded,
	// of session forks it made, and the most variables any check's
	// solver held, merged per worker on exit. Package-private: only the
	// session tests set it.
	stabCounts *stabCounts
}

// stabCounts is the tally behind Options.stabCounts.
type stabCounts struct{ layers, windows, forks, maxVars atomic.Int64 }

// add merges one worker's tally.
func (c *stabCounts) add(layers, windows, forks, maxVars int64) {
	c.layers.Add(layers)
	c.windows.Add(windows)
	c.forks.Add(forks)
	for {
		cur := c.maxVars.Load()
		if maxVars <= cur || c.maxVars.CompareAndSwap(cur, maxVars) {
			return
		}
	}
}

// Stats reports search effort. It is the engine-uniform report shared
// with the other semantics (see internal/engine).
type Stats = engine.Stats

// Result holds an enumeration outcome (see engine.Result: Exhausted is
// true when a budget was hit or the context was cancelled, in which
// case the enumeration may be incomplete).
type Result = engine.Result

// ErrBudget is reported (alongside partial results) when a budget was
// hit. It is the engine-uniform budget error shared by all semantics.
var ErrBudget = engine.ErrBudget

// Compiled is the SO semantics compiled for one program: rules
// validated and per-rule search metadata precomputed. It implements the
// engine.Engine interface and is safe for concurrent use.
//
// Two artifacts depend only on the program and its database, so the
// first run that completes each publishes it for every later run: the
// extras-free budget probe (see Options.MaxAtoms) and the frozen run
// root — D plus lfp(Det, D), the closure of the deterministic rules
// (ruleDet), with the agenda that closure left behind. Every stable
// model contains the root (Lemma 7: the deterministic rules are Horn,
// so every model of Σ over D is closed under them), and query
// constants cannot change it because those rules have no existential
// variables. A run that panics, is cancelled or hits a budget while
// building either artifact publishes nothing, so the next run builds it
// again; concurrent first runs may each build one, and the first to
// finish is kept. The rule metadata and compiled joins (ruleSet) are
// built at compile and shared read-only by every run: a BodyPlans is
// safe for concurrent use and compiles once per Symbols table.
// Everything else a run mutates — its store snapshots layered over the
// root, trigger agendas and stability sessions — is created per call
// (see enumerate and the freeze discipline in parallel.go).
type Compiled struct {
	*ruleSet
	db  *logic.FactStore
	opt Options
	// weaklyAcyclic records classify.IsWeaklyAcyclic(rules): the budget
	// probe then terminates (Proposition 9) and runs uncapped.
	weaklyAcyclic bool
	// dbHasNulls records whether the database holds labeled nulls; the
	// root closure adds none (deterministic rules have no existentials).
	dbHasNulls bool

	mu sync.Mutex
	// probed is the published extras-free budget probe (nil until one
	// completes).
	probed *budgetProbe
	// root is the published frozen run root (nil until one completes).
	root *frozenRoot
}

// probeCap bounds the atoms the budget probe may derive above the
// database when Σ is not weakly acyclic, and with it the default
// MaxAtoms of such programs.
const probeCap = 1 << 14

// budgetProbe is the outcome of the extras-free budget probe: the atoms
// the oblivious chase of Σ⁺ derived above the database, or capped when
// a program that is not weakly acyclic reached probeCap first.
type budgetProbe struct {
	derived int
	capped  bool
}

// frozenRoot is the run root every non-naive run starts from: store
// holds D plus lfp(Det, D) and is never written again, and agenda is
// what the closure left (no deterministic triggers, the branching
// triggers it discovered, the store fully swept). derived counts the
// closure's atoms above D. dead records that a constraint fired during
// the closure, at derived atoms, so the program has no models.
type frozenRoot struct {
	store   *logic.FactStore
	agenda  agenda
	derived int
	dead    bool
}

// Compile validates the rules and precomputes everything the search
// needs that does not depend on the individual run: per-rule
// determinism flags, trigger-key variable orders, and whether Σ is
// weakly acyclic. The budget probe and the frozen run root are built
// by the first run that needs them.
func Compile(db *logic.FactStore, rules []*logic.Rule, opt Options) (*Compiled, error) {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 8 << 20
	}
	c := &Compiled{ruleSet: newRuleSet(rules), db: db, opt: opt, weaklyAcyclic: classify.IsWeaklyAcyclic(rules)}
	db.EachAtomIn(0, db.Len(), func(_ int, a logic.Atom) bool {
		c.dbHasNulls = a.HasNull()
		return !c.dbHasNulls
	})
	return c, nil
}

// Semantics names the engine ("so", or "operational" under the
// fresh-only witness policy of Baget et al.).
func (c *Compiled) Semantics() string {
	if c.opt.WitnessPolicy == WitnessFreshOnly {
		return "operational"
	}
	return "so"
}

// defaultBudget returns the default MaxAtoms of a run whose witness
// pool adds extras constants, and the name of that bound for the
// ErrBudget text. The extras term is exact: a per-run probe would add
// one $qconst atom per extra constant, and no rule body matches one.
func (c *Compiled) defaultBudget(ctx context.Context, extras int) (int, string) {
	p := c.probe(ctx)
	b := max(2*(p.derived+extras), 64)
	if p.capped || (!c.weaklyAcyclic && b > probeCap) {
		return probeCap, "the default cap for programs that are not weakly acyclic"
	}
	return b, "the default from the budget probe"
}

// probe returns the extras-free budget probe, running it under
// the caller's context when none is published. A probe cut short by
// ctx is used by this run only (it is about to see ctx.Err() itself)
// and is not published.
func (c *Compiled) probe(ctx context.Context) budgetProbe {
	c.mu.Lock()
	p := c.probed
	c.mu.Unlock()
	if p != nil {
		return *p
	}
	limit := 0 // weakly acyclic: the oblivious chase terminates
	if !c.weaklyAcyclic {
		limit = c.db.Len() + probeCap
	}
	size, err := chase.ProbeStableSearch(ctx, c.db, c.rules, nil, limit)
	switch {
	case ctx.Err() != nil:
		return budgetProbe{capped: true}
	case err != nil:
		p = &budgetProbe{capped: true}
	default:
		p = &budgetProbe{derived: size - c.db.Len()}
	}
	c.mu.Lock()
	if c.probed == nil {
		c.probed = p
	}
	c.mu.Unlock()
	return *p
}

// frozen returns the published run root, or nil.
func (c *Compiled) frozen() *frozenRoot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.root
}

// publishRoot keeps the first complete run root.
func (c *Compiled) publishRoot(fr *frozenRoot) {
	c.mu.Lock()
	if c.root == nil {
		c.root = fr
	}
	c.mu.Unlock()
}

// mergeExtras unions the compile-time extra constants with a run's,
// deduplicating by term key.
func mergeExtras(base, extra []logic.Term) []logic.Term {
	if len(extra) == 0 {
		return base
	}
	have := make(map[string]bool, len(base)+len(extra))
	out := make([]logic.Term, 0, len(base)+len(extra))
	for _, c := range base {
		if !have[c.Key()] {
			have[c.Key()] = true
			out = append(out, c)
		}
	}
	for _, c := range extra {
		if !have[c.Key()] {
			have[c.Key()] = true
			out = append(out, c)
		}
	}
	return out
}

// Enumerate streams the stable models to visit (return false to stop,
// which is not an error), implementing engine.Engine. The search
// checks ctx at every node alongside the node budget; on cancellation
// it returns ctx.Err() with the partial stats, and the Compiled engine
// remains reusable for further runs.
func (c *Compiled) Enumerate(ctx context.Context, p engine.Params, visit func(*logic.FactStore) bool) (Stats, bool, error) {
	return c.enumerate(ctx, p, visit, false)
}

func (c *Compiled) enumerate(ctx context.Context, p engine.Params, visit func(*logic.FactStore) bool, naive bool) (st Stats, ex bool, err error) {
	// Recovery boundary for the run's setup path (the budget probe's
	// chase, the root snapshot, rule-body planning), which executes on
	// the caller goroutine before any worker exists. Panics inside the
	// search itself — including a panicking visitor, which runs under
	// a worker (sequential) or under safeVisit (parallel) — are
	// recovered at the worker boundary instead (run.runWorker). Either
	// way the Compiled engine stays reusable: all mutable state was
	// owned by the failed run.
	defer func() {
		if v := recover(); v != nil {
			st, ex, err = Stats{}, true, engine.NewInternalError(v)
		}
	}()
	opt := c.opt
	opt.ExtraConstants = mergeExtras(c.opt.ExtraConstants, p.ExtraConstants)
	atomBound := "Options.MaxAtoms"
	if opt.MaxAtoms <= 0 {
		opt.MaxAtoms, atomBound = c.defaultBudget(ctx, len(opt.ExtraConstants))
	}
	r := &run{
		ruleSet:   c.ruleSet,
		db:        c.db,
		rootLen:   c.db.Len(),
		opt:       opt,
		atomBound: atomBound,
		naive:     naive,
		ctx:       ctx,
		syms:      c.db.Symbols(),
		seen:      make(map[string]bool),
		hasNulls:  c.dbHasNulls,
	}
	for _, t := range opt.ExtraConstants {
		if t.HasNull() {
			r.hasNulls = true
		}
	}
	root := &state{}
	// The naive oracle always starts from D; every other run starts from
	// the frozen root, or builds it in its own root node (dfs).
	fr := c.frozen()
	switch {
	case naive || fr == nil:
		root.A = c.db.Snapshot()
		if !naive {
			r.building, r.publish = root, c.publishRoot
		}
	case fr.dead || fr.derived > opt.MaxAtoms:
		// The closure decides the run at its root node, exactly as
		// re-deriving it would: no models, or a branch over the budget.
		rootOnly := Stats{Nodes: 1}
		if err := ctx.Err(); err != nil {
			return rootOnly, true, err
		}
		if fr.derived > opt.MaxAtoms {
			r.exhaust(budgetAtoms)
			return rootOnly, true, r.budgetError()
		}
		return rootOnly, false, nil
	default:
		root.A = fr.store.Snapshot()
		root.agenda = fr.agenda.clone()
		r.rootLen = fr.store.Len()
	}
	return r.execute(root, resolveWorkers(opt.Workers, naive), visit)
}

// enumStableModelsNaive runs the search with the full-rescan trigger
// detection (findTriggerNaive) instead of the delta-driven agenda. It
// is kept package-private as the differential-test oracle pinning the
// agenda-based search: both must emit exactly the same canonical model
// set (exploration order, and therefore stats, may differ).
func enumStableModelsNaive(db *logic.FactStore, rules []*logic.Rule, opt Options, visit func(*logic.FactStore) bool) (Stats, bool, error) {
	return enumStableModels(db, rules, opt, visit, true)
}

// enumStableModels compiles the program and runs one search; naive
// selects the trigger-detection strategy (delta-driven agenda vs full
// rescan).
func enumStableModels(db *logic.FactStore, rules []*logic.Rule, opt Options, visit func(*logic.FactStore) bool, naive bool) (Stats, bool, error) {
	c, err := Compile(db, rules, opt)
	if err != nil {
		return Stats{}, false, err
	}
	return c.enumerate(context.Background(), engine.Params{}, visit, naive)
}

// state is one node of the search: the derived atoms A (a copy-on-write
// snapshot layer over the parent node's store), the negative
// assumptions made when firing rules through their negative literals
// (mustOut: atoms that must never be derived), the positive promises
// made when deferring a trigger (mustIn: atoms that must eventually be
// derived), the deferred trigger keys (naive oracle only: the agenda
// never meets a deferred trigger again, see refreshAgenda), and the
// trigger agenda.
//
// A state shares everything with its parent until it writes, and a
// write never touches the parent's arrays: the store is a snapshot
// layer, the agenda is copied by clone, and the assumption sets — a
// handful of keys along a path — are short slices extended only by
// extend, which copies.
type state struct {
	A        *logic.FactStore
	mustIn   []logic.FactKey
	mustOut  []logic.FactKey
	deferred []string
	nullCtr  int
	agenda   agenda
	// sess is the stability-session layer of the state's nearest branch
	// point at or above it (see stability.go): a child shares its
	// parent's, and branch gives the state its own. nil until the first
	// branch point (and always nil in naive mode, which uses the
	// full-rebuild oracle instead).
	sess *stabSession
}

func (st *state) clone() *state {
	c := *st
	c.A = st.A.Snapshot()
	c.agenda = st.agenda.clone()
	return &c
}

// extend returns set with k appended, in a new array: the full slice
// expression makes append copy, so states sharing set never see k.
func extend[T any](set []T, k T) []T { return append(set[:len(set):len(set)], k) }

// holds reports whether the assumption set holds the packed key.
func holds(set []logic.FactKey, key []byte) bool {
	for _, k := range set {
		if string(k) == string(key) {
			return true
		}
	}
	return false
}

// agenda is the per-state queue of candidate triggers. It is seeded
// once from the root (scanned = 0 forces a full sweep) and thereafter
// refreshed from store deltas only: atoms with index >= scanned have
// not yet been swept for new triggers. Because snapshot layers keep
// store indices global, both the queues and the high-water mark remain
// valid across state.clone — a child only ever sweeps its own delta.
// Entries are re-validated when popped (see triggerActive); triggers
// are shared immutably between states, so cloning copies two pointer
// slices.
type agenda struct {
	det     []*trigger // deterministic triggers, in discovery order
	ndet    []*trigger // branching triggers, in discovery order
	scanned int        // store length already swept for triggers
	seeded  bool       // the root full sweep has run (scanned alone
	// cannot encode this: an empty database also has scanned == 0, yet
	// rules with empty positive bodies still need the root sweep)
}

func (a agenda) clone() agenda {
	return agenda{
		det:     append([]*trigger(nil), a.det...),
		ndet:    append([]*trigger(nil), a.ndet...),
		scanned: a.scanned,
		seeded:  a.seeded,
	}
}

// searcher is one worker of the pool: the compiled artifacts and the
// run-wide sink/counters are promoted from the embedded run (shared by
// every worker); stats, the join scratch and the key buffers are
// worker-local. A sequential enumeration is simply a run with a single
// worker and no pool.
type searcher struct {
	*run
	// stats is the worker-local effort, merged into run.stats when the
	// worker exits (Nodes and ModelsEmitted are tracked on the run
	// itself: the node counter doubles as the global MaxNodes budget,
	// and emission is owned by the sink).
	stats    Stats
	join     logic.Scratch // the worker's join frames
	keyBuf   []byte        // reused by triggerKey
	probeBuf []byte        // reused for the packed keys of probes and adds
	partsBuf []string      // reused by modelKey
	// stab holds the worker-local scratch buffers of the stability
	// session encoder and solver (stability.go).
	stab stabScratch
	// stabLayers, stabWindows and stabForks count the session layers
	// this worker allocated, the windows it encoded and the forks it
	// made, and stabMaxVars is the most variables one of its checks
	// loaded, reported through Options.stabCounts when the worker exits.
	stabLayers, stabWindows, stabForks, stabMaxVars int64
}

// ruleSet is a program's rules with everything the hot trigger paths
// precompute per rule, shared read-only by every run and worker.
type ruleSet struct {
	rules []*logic.Rule
	// ruleDet[i] reports whether rules[i] fires without branching:
	// single disjunct, no negation, no existential head variables.
	ruleDet []bool
	// rulePosPreds[i] lists the distinct positive-body predicates of
	// rules[i]: a delta sweep (agenda refresh or stability-session
	// window) can skip the rule outright when none of them occurs in
	// the window, because every new homomorphism must seed from a
	// window atom matching a positive body atom.
	rulePosPreds [][]string
	// plans[i] is rules[i] compiled for the join kernel, its body
	// joins checking the negative literals: the trigger domain Vars,
	// in which triggers hold their term ids and build compact keys, the
	// existential variables, and the body and head joins the agenda
	// refreshes, the trigger checks and the stability-session sweeps of
	// every run and worker share (BodyPlans is safe for concurrent use;
	// each worker joins with its own Scratch).
	plans []*logic.RulePlans
}

// newRuleSet precomputes the per-rule facts the hot trigger paths need.
func newRuleSet(rules []*logic.Rule) *ruleSet {
	n := len(rules)
	s := &ruleSet{
		rules:        rules,
		ruleDet:      make([]bool, n),
		rulePosPreds: make([][]string, n),
		plans:        make([]*logic.RulePlans, n),
	}
	for i, r := range rules {
		s.plans[i] = logic.CompileRule(r, true)
		// A rule needs no branching when it has a single disjunct, no
		// negation, and no existential head variables — or when it is a
		// negation-free constraint, whose only effect is to kill the
		// branch (a constraint with negation still branches: it can be
		// deferred through its negative literals).
		if r.IsConstraint() {
			s.ruleDet[i] = !r.HasNegation()
		} else {
			s.ruleDet[i] = len(r.Heads) == 1 && !r.HasNegation() && len(s.plans[i].Exist[0]) == 0
		}
		preds := make([]string, 0, 4)
		for _, a := range s.plans[i].Pos {
			dup := false
			for _, p := range preds {
				if p == a.Pred {
					dup = true
					break
				}
			}
			if !dup {
				preds = append(preds, a.Pred)
			}
		}
		s.rulePosPreds[i] = preds
	}
	return s
}

// predsIntersect reports whether the two small predicate lists share an
// element.
func predsIntersect(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// trigger is an active trigger: a rule, a homomorphism of its positive
// body into A whose negative body instances are absent from A, such
// that no head disjunct is satisfied and the trigger has not been
// deferred. The homomorphism is an id tuple: the interned term bound to
// each variable of the rule's RulePlans.Vars, in order — the body slots
// of the rule's join frames. Triggers are immutable once enqueued
// (states share them).
type trigger struct {
	ruleIdx int
	ids     []uint32
	// key caches the compact identity, filled lazily by triggerKey. It
	// is an atomic pointer because cloned agendas share triggers across
	// sibling subtrees: two workers may race to fill the cache, but
	// both compute the same bytes, so either store may win.
	key atomic.Pointer[string]
}

// triggerKey returns a compact identity for the trigger: the rule index
// followed by the canonical keys of the homomorphism's bindings in the
// rule's fixed variable order, assembled in a reused buffer from the
// keys the Symbols table rendered once per term — byte-identical to
// rendering each bound term with Term.AppendKey, so the branching order
// does not depend on how the trigger was found.
func (s *searcher) triggerKey(t *trigger) string {
	if k := t.key.Load(); k != nil {
		return *k
	}
	buf := strconv.AppendInt(s.keyBuf[:0], int64(t.ruleIdx), 10)
	buf = s.syms.AppendKeys(buf, '|', t.ids)
	s.keyBuf = buf
	k := string(buf)
	t.key.Store(&k)
	return k
}

// refreshAgenda sweeps the store delta (atoms with index >= scanned)
// for new triggers of every rule and appends them to the state's
// queues. FindHomsFrom enumerates exactly the body homomorphisms using
// at least one delta atom, so across the life of a state each candidate
// trigger is discovered once: a homomorphism lying entirely in old
// atoms was enqueued (or filtered) by an earlier sweep of this state or
// an ancestor, and the filters — a satisfied head disjunct, a negative
// body instance already derived — are permanent along a branch because
// the store only grows. A deferred trigger needs no filter: nextBranch
// removed it from the agenda its deferral children clone, and no later
// sweep along the branch finds its homomorphism again.
func (s *searcher) refreshAgenda(st *state) {
	n := st.A.Len()
	if st.agenda.seeded && st.agenda.scanned >= n {
		return
	}
	from := st.agenda.scanned
	seeded := st.agenda.seeded
	st.agenda.seeded = true
	// For a delta sweep, collect the window's predicates once: rules
	// with no positive body predicate in the window cannot gain a new
	// trigger, so their homomorphism searches are skipped outright.
	// (The root sweep must run every rule — including empty-positive-
	// body rules, which no delta ever covers.)
	var winPreds []string
	if seeded {
		winPreds = s.stab.preds[:0]
		seen := s.stab.predSeen
		if seen == nil {
			seen = make(map[string]bool)
			s.stab.predSeen = seen
		}
		st.A.EachAtomIn(from, n, func(_ int, a logic.Atom) bool {
			if !seen[a.Pred] {
				seen[a.Pred] = true
				winPreds = append(winPreds, a.Pred)
			}
			return true
		})
		for _, p := range winPreds {
			delete(seen, p)
		}
		s.stab.preds = winPreds[:0]
	}
	for i := range s.rules {
		if seeded && !predsIntersect(s.rulePosPreds[i], winPreds) {
			continue
		}
		idx, heads, nb := i, s.plans[i].Heads, len(s.plans[i].Vars)
		s.plans[idx].Body.FindHomsFrom(&s.join, st.A, from, nil, func(m *logic.Match) bool {
			ids := m.IDs()[:nb]
			// Satisfied heads need no action.
			for _, hp := range heads {
				if hp.Exists(&s.join, st.A, ids) {
					return true
				}
			}
			t := &trigger{ruleIdx: idx, ids: append([]uint32(nil), ids...)}
			if s.ruleDet[idx] {
				st.agenda.det = append(st.agenda.det, t)
			} else {
				st.agenda.ndet = append(st.agenda.ndet, t)
			}
			return true
		})
	}
	st.agenda.scanned = n
}

// triggerActive re-validates an agenda entry at pop time: since its
// discovery the trigger may have been retired — a head disjunct
// satisfied by later additions, or a negative body instance derived.
// Both conditions are monotone along a branch, so an inactive entry is
// dropped permanently.
func (s *searcher) triggerActive(st *state, t *trigger) bool {
	body, npos := s.plans[t.ruleIdx].Body, len(s.plans[t.ruleIdx].Pos)
	for j := range s.plans[t.ruleIdx].Neg {
		key, ok := body.AppendKey(st.A, s.probeBuf[:0], npos+j, t.ids, false)
		s.probeBuf = key[:0]
		if _, in := st.A.IndexOfKey(key); ok && in {
			return false
		}
	}
	for _, hp := range s.plans[t.ruleIdx].Heads {
		if hp.Exists(&s.join, st.A, t.ids) {
			return false
		}
	}
	return true
}

// nextDet pops the next active deterministic trigger from the state's
// agenda after sweeping the store delta; nil means the deterministic
// closure is complete. Deterministic triggers pop in discovery order:
// the closure is confluent (monotone additions, no branching), so their
// order cannot change the fixpoint. In naive mode it delegates to the
// full-rescan oracle instead.
func (s *searcher) nextDet(st *state) *trigger {
	if s.naive {
		return s.findTriggerNaive(st, true)
	}
	s.refreshAgenda(st)
	ag := &st.agenda
	for len(ag.det) > 0 {
		t := ag.det[0]
		ag.det = ag.det[1:]
		if s.triggerActive(st, t) {
			return t
		}
	}
	return nil
}

// nextBranch selects and removes the branching trigger of a state whose
// deterministic closure is complete (nextDet returned nil, so the
// agenda is swept); nil means the state reached a fixpoint. In naive
// mode it delegates to the full-rescan oracle instead.
//
// Branching triggers are selected by lowest rule index first, ties
// broken by smallest canonical trigger key — branching order is not
// neutral, because witness pools are drawn from the domain at branch
// time, so a different trigger order can reach a different (equally
// sound) subset of the stable models. The key tie-break makes the
// selection independent of hom emission order, which the join
// planner reorders freely: the agenda, the full-rescan oracle, and
// every planner setting branch on exactly the same trigger at every
// node, so the canonical model set is invariant across all of them.
func (s *searcher) nextBranch(st *state) *trigger {
	if s.naive {
		return s.findTriggerNaive(st, false)
	}
	ag := &st.agenda
	best := -1
	for i := 0; i < len(ag.ndet); {
		t := ag.ndet[i]
		if best >= 0 {
			b := ag.ndet[best]
			if t.ruleIdx > b.ruleIdx ||
				(t.ruleIdx == b.ruleIdx && s.triggerKey(t) >= s.triggerKey(b)) {
				i++ // cannot beat the current pick; leave unvalidated
				continue
			}
		}
		if !s.triggerActive(st, t) {
			ag.ndet = append(ag.ndet[:i], ag.ndet[i+1:]...)
			continue // retired permanently (monotone conditions)
		}
		best = i
		i++
	}
	if best < 0 {
		return nil
	}
	t := ag.ndet[best]
	ag.ndet = append(ag.ndet[:best], ag.ndet[best+1:]...)
	return t
}

// findTriggerNaive is the pre-agenda trigger detection, kept as the
// differential-test oracle: it re-runs a full homomorphism sweep of
// the deterministic rules (det) or the branching rules (!det) against
// the whole store on every call. A deterministic pick is the first
// active trigger in rule order (the closure is confluent); like the
// agenda, the branching pick is the lowest rule index with an active
// trigger and, within it, the smallest canonical trigger key, so its
// selection is independent of hom emission order — the oracle
// enumerates every active trigger of the winning rule to find the
// minimum, which the agenda gets for free from its queue scan.
func (s *searcher) findTriggerNaive(st *state, det bool) *trigger {
	for i, r := range s.rules {
		if s.ruleDet[i] != det {
			continue
		}
		rule, idx := r, i
		var found *trigger
		logic.FindHoms(rule.PosBody(), rule.NegBody(), st.A, logic.Subst{}, func(h logic.Subst) bool {
			// Satisfied heads need no action.
			for d := range rule.Heads {
				if logic.ExistsHom(rule.Heads[d], nil, st.A, h) {
					return true
				}
			}
			t := &trigger{ruleIdx: idx, ids: s.idsOf(idx, h)}
			if len(st.deferred) > 0 && slices.Contains(st.deferred, s.triggerKey(t)) {
				return true
			}
			if det {
				found = t
				return false // confluent closure: any active trigger will do
			}
			if found == nil || s.triggerKey(t) < s.triggerKey(found) {
				found = t
			}
			return true
		})
		if found != nil {
			return found
		}
	}
	return nil
}

// idsOf converts a body homomorphism of rules[ri] found by the naive
// oracle into a trigger's id tuple.
func (s *searcher) idsOf(ri int, h logic.Subst) []uint32 {
	ids := make([]uint32, len(s.plans[ri].Vars))
	for i, v := range s.plans[ri].Vars {
		ids[i] = s.syms.Intern(h[v])
	}
	return ids
}

// dfs explores the state; returns false if the search should stop
// globally (visitor stop, budget, or cancellation — all recorded in
// the shared run so sibling workers unwind too).
func (s *searcher) dfs(st *state) bool {
	if s.stop.Load() {
		return false
	}
	if s.nodes.Add(1) > s.opt.MaxNodes {
		s.exhaust(budgetNodes)
		s.stop.Store(true)
		return false
	}
	if err := s.ctx.Err(); err != nil {
		s.cancelWith(err)
		return false
	}
	// Deterministic closure: fire forced triggers without branching.
	// The closure of one node can run thousands of applications without
	// re-entering dfs, so the pool-wide stop flag (visitor stop, memory
	// watermark, a sibling's fault, the Solver's wall-clock watchdog)
	// is observed every iteration and the context periodically.
	for i := 0; ; i++ {
		if s.stop.Load() {
			return false
		}
		if i&63 == 63 {
			if err := s.ctx.Err(); err != nil {
				s.cancelWith(err)
				return false
			}
		}
		t := s.nextDet(st)
		if t == nil {
			break
		}
		s.stats.Deterministic++
		if !s.applyTo(st, t, 0, t.ids) {
			if st == s.building && s.rules[t.ruleIdx].IsConstraint() {
				s.publishRoot(st, true)
			}
			return true // dead branch
		}
	}
	if st == s.building {
		s.publishRoot(st, false)
	}
	t := s.nextBranch(st)
	if t == nil {
		return s.complete(st)
	}
	return s.branch(st, t)
}

// branch handles a non-deterministic trigger: one child per
// (disjunct, witness tuple) plus one deferral child per negative body
// literal instance. st is frozen from here on — children only snapshot
// it — so sibling subtrees may be explored concurrently (see explore).
func (s *searcher) branch(st *state, t *trigger) bool {
	s.stats.Branches++
	if !s.naive {
		// The state's own session layer owes the window of its frozen
		// store, which every child shares. The window is encoded only
		// if a candidate check or a fork below needs it.
		st.sess = new(stabSession).above(st.sess, st.A)
		s.stabLayers++
	}
	rule, nb := s.rules[t.ruleIdx], len(t.ids)
	for d := range rule.Heads {
		exist := s.plans[t.ruleIdx].Exist[d]
		for _, mu := range s.witnessTuples(st, exist) {
			child := st.clone()
			// The head's frame: the trigger's body ids, then one witness id
			// per existential variable, with fresh placeholders turned into
			// sequentially numbered nulls. Placeholder j+1 first appears
			// only after placeholder j, so first appearances number them.
			vals := make([]uint32, nb+len(exist))
			copy(vals, t.ids)
			var fresh []uint32
			for k, w := range mu {
				if w.fresh == 0 {
					vals[nb+k] = w.id
					continue
				}
				if w.fresh > len(fresh) {
					child.nullCtr++
					fresh = append(fresh, s.syms.Intern(logic.N("n"+strconv.Itoa(child.nullCtr))))
				}
				vals[nb+k] = fresh[w.fresh-1]
			}
			if s.applyTo(child, t, d, vals) {
				if !s.explore(child) {
					return false
				}
			}
		}
	}
	// Deferral branches: assume one negative body instance will be in
	// the final model, blocking the trigger.
	negBody := s.plans[t.ruleIdx].Neg
	if len(negBody) == 0 {
		return true
	}
	body, npos := s.plans[t.ruleIdx].Body, len(s.plans[t.ruleIdx].Pos)
	var seenNeg []logic.FactKey
	for j := range negBody {
		key, _ := body.AppendKey(st.A, s.probeBuf[:0], npos+j, t.ids, true)
		s.probeBuf = key[:0]
		if holds(seenNeg, key) || holds(st.mustOut, key) {
			continue // a repeated instance, or one assumed absent
		}
		k := logic.FactKey(key)
		seenNeg = append(seenNeg, k)
		child := st.clone()
		if !holds(child.mustIn, key) {
			child.mustIn = extend(child.mustIn, k)
		}
		if s.naive {
			// The full rescan finds the trigger again; the agenda
			// removed it for good in nextBranch.
			child.deferred = extend(child.deferred, s.triggerKey(t))
		}
		if !s.explore(child) {
			return false
		}
	}
	return true
}

// witness is one existential variable's witness in a tuple: the
// interned id of a domain term or extra constant, or, when fresh > 0,
// fresh placeholder number fresh (a null invented per branch child).
type witness struct {
	id    uint32
	fresh int
}

// witnessTuples enumerates the witness assignments for the existential
// variables: every tuple over the current domain ∪ extra constants ∪
// fresh placeholders (canonically ordered: placeholder j+1 may appear
// only if placeholder j appears earlier), or a single all-fresh tuple
// under WitnessFreshOnly. Tuples are positional over exist.
func (s *searcher) witnessTuples(st *state, exist []string) [][]witness {
	if len(exist) == 0 {
		return [][]witness{nil}
	}
	if s.opt.WitnessPolicy == WitnessFreshOnly {
		mu := make([]witness, len(exist))
		for i := range mu {
			mu[i] = witness{fresh: i + 1}
		}
		return [][]witness{mu}
	}
	// The pool is the store's incrementally maintained term set; extra
	// constants are deduplicated by one domain lookup each instead of a
	// scan of the pool (plus a scan of the few extras appended so far,
	// in case ExtraConstants itself repeats a term).
	pool := st.A.DomainIDs()
	nDom := len(pool)
	for _, c := range s.opt.ExtraConstants {
		id := st.A.Symbols().Intern(c)
		if st.A.HasDomainID(id) {
			continue
		}
		dup := false
		for _, p := range pool[nDom:] {
			if p == id {
				dup = true
				break
			}
		}
		if !dup {
			pool = append(pool, id)
		}
	}
	var out [][]witness
	mu := make([]witness, len(exist))
	var rec func(i, freshUsed int)
	rec = func(i, freshUsed int) {
		if i == len(exist) {
			out = append(out, append([]witness(nil), mu...))
			return
		}
		for _, v := range pool {
			mu[i] = witness{id: v}
			rec(i+1, freshUsed)
		}
		// Reuse an already-introduced fresh placeholder…
		for f := 1; f <= freshUsed; f++ {
			mu[i] = witness{fresh: f}
			rec(i+1, freshUsed)
		}
		// …or introduce the next one (canonical order).
		if freshUsed < len(exist) {
			mu[i] = witness{fresh: freshUsed + 1}
			rec(i+1, freshUsed+1)
		}
	}
	rec(0, 0)
	return out
}

// applyTo fires the trigger choosing the given disjunct under the head
// frame vals (the trigger's body ids, then the disjunct's witnesses):
// head atoms are added to A by packed key and the negative body
// instances recorded as permanent negative assumptions. It reports
// false when the state became inconsistent (or a budget was hit).
func (s *searcher) applyTo(st *state, t *trigger, disjunct int, vals []uint32) bool {
	rule := s.rules[t.ruleIdx]
	if rule.IsConstraint() {
		return false
	}
	if s.opt.MaxMemory > 0 {
		// Charge the packed bytes of every fact this application retains
		// against the run's memory watermark, whichever way the function
		// returns.
		before := st.A.TupleBytes()
		defer func() { s.chargeMem(st.A.TupleBytes() - before) }()
	}
	body, npos := s.plans[t.ruleIdx].Body, len(s.plans[t.ruleIdx].Pos)
	for j := range s.plans[t.ruleIdx].Neg {
		key, _ := body.AppendKey(st.A, s.probeBuf[:0], npos+j, t.ids, true)
		s.probeBuf = key[:0]
		if _, in := st.A.IndexOfKey(key); in || holds(st.mustIn, key) {
			return false // derived already, or promised by a deferral
		}
		if !holds(st.mustOut, key) {
			st.mustOut = extend(st.mustOut, logic.FactKey(key))
		}
	}
	head := s.plans[t.ruleIdx].Heads[disjunct]
	for k := range rule.Heads[disjunct] {
		key, _ := head.AppendKey(st.A, s.probeBuf[:0], k, vals, true)
		s.probeBuf = key[:0]
		if holds(st.mustOut, key) {
			return false // banned
		}
		st.A.AddKey(key)
	}
	if st.A.Len()-s.db.Len() > s.opt.MaxAtoms {
		s.exhaust(budgetAtoms)
		return false
	}
	return true
}

// complete validates a fixpoint state and, if it passes the paper's
// stability condition, emits the model through the run's deduplicating
// sink. The stability check — the dominant per-model cost — runs
// outside the sink lock, so workers validate candidate models
// concurrently. The session path relies on the agenda invariant that a
// fixpoint state passing the mustIn/mustOut checks is a model of Σ
// (every body homomorphism was discovered by some sweep and either
// fired, had a head disjunct satisfied, or was deferred with its
// promised negative instance now derived); the naive oracle keeps the
// explicit logic.IsModel check, so the differential suites would
// surface any violation as a model-set mismatch.
func (s *searcher) complete(st *state) bool {
	s.stats.Completed++
	for _, k := range st.mustIn {
		if !st.A.HasFactKey(k) {
			return true // a deferral promise was never fulfilled
		}
	}
	for _, k := range st.mustOut {
		if st.A.HasFactKey(k) {
			return true // a negative assumption was violated
		}
	}
	if s.naive && !logic.IsModel(s.rules, st.A) {
		return true
	}
	key := s.modelKey(st)
	if s.seenKey(key) {
		return true
	}
	s.stats.StabilityChecks++
	var stable bool
	switch {
	case s.naive:
		stable = stableAgainstSubsetsNaive(s.db, s.rules, st.A)
	case st.A.Len() == s.rootLen:
		// No J with root ⊆ J ⊊ M exists, and every J the condition
		// ranges over contains the root (see stability.go).
		stable = true
	default:
		stable = s.stableSession(s.encodeLeaf(st), st.A)
	}
	if !s.naive && s.opt.stabOracle != nil && stable != stableAgainstSubsetsNaive(s.db, s.rules, st.A) {
		s.opt.stabOracle.Add(1)
	}
	if !stable {
		s.stats.StabilityFailed++
		return true
	}
	// The emitted store is an O(1) snapshot of the leaf: the leaf layer
	// and its frozen ancestors are never written again (complete is
	// terminal for the state, and parent layers froze when their
	// children were snapshotted), so the chain may be shared with the
	// caller instead of flattened into a deep copy.
	return s.emit(key, st.A.Snapshot())
}

// modelKey returns the run's dedup key of a candidate. A candidate
// with nulls (invented along its path, or from the database or the
// extras) gets canonicalModelKey(st.A). A null-free candidate is keyed
// by the sorted renders of its atoms above the run root alone: every
// candidate of the run shares the root prefix, so those atoms identify
// it. st.nullCtr counts the nulls invented along the path.
func (s *searcher) modelKey(st *state) string {
	if s.hasNulls || st.nullCtr > 0 {
		return canonicalModelKey(st.A)
	}
	n := st.A.Len()
	parts := s.partsBuf[:0]
	for i := s.rootLen; i < n; i++ {
		parts = append(parts, st.A.AtomAt(i).String())
	}
	sort.Strings(parts)
	s.partsBuf = parts[:0]
	return strings.Join(parts, ";")
}

// canonicalModelKey renders the model with nulls renamed by first
// occurrence in a null-masked atom ordering, so that models differing
// only in null invention order collapse. (This is a practical
// canonicalization, not a full graph canonization: ties between
// null-masked atoms are broken by the concrete null names, so two
// isomorphic models can still receive different keys.)
func canonicalModelKey(m *logic.FactStore) string {
	atoms := append([]logic.Atom(nil), m.Atoms()...)
	masked := make([]string, len(atoms))
	for i, a := range atoms {
		masked[i] = maskNulls(a)
	}
	idx := make([]int, len(atoms))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		if masked[idx[i]] != masked[idx[j]] {
			return masked[idx[i]] < masked[idx[j]]
		}
		return atoms[idx[i]].Key() < atoms[idx[j]].Key()
	})
	ren := map[string]string{}
	var parts []string
	for _, i := range idx {
		a := atoms[i]
		renamed := renameCanonical(a, ren)
		parts = append(parts, renamed.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

func maskNulls(a logic.Atom) string {
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		if t.Kind == logic.Null {
			b.WriteByte('*')
		} else {
			b.WriteString(t.String())
		}
	}
	b.WriteByte(')')
	return b.String()
}

func renameCanonical(a logic.Atom, ren map[string]string) logic.Atom {
	args := make([]logic.Term, len(a.Args))
	for i, t := range a.Args {
		if t.Kind == logic.Null {
			n, ok := ren[t.Name]
			if !ok {
				n = "c" + strconv.Itoa(len(ren)+1)
				ren[t.Name] = n
			}
			args[i] = logic.N(n)
		} else {
			args[i] = t
		}
	}
	return logic.Atom{Pred: a.Pred, Args: args}
}

// IsStableModel checks Definition 1 directly for a candidate
// interpretation (given by its positive part): M must contain D, be a
// model of Σ, and admit no J with D ⊆ J ⊊ M⁺ satisfying the
// τ_{p▷s}-transform (checked via SAT; Proposition 11).
func IsStableModel(db *logic.FactStore, rules []*logic.Rule, m *logic.FactStore) bool {
	if !db.SubsetOf(m) {
		return false
	}
	if !logic.IsModel(rules, m) {
		return false
	}
	return stableAgainstSubsets(db, rules, m)
}
