// Package ntgd is a faithful, from-scratch implementation of
//
//	Mario Alviano, Michael Morak, Andreas Pieris.
//	"Stable Model Semantics for Tuple-Generating Dependencies
//	Revisited." PODS 2017.
//
// The paper proposes a new stable model semantics for normal
// tuple-generating dependencies (NTGDs — TGDs whose bodies may use
// default negation) that applies directly to rules with existentially
// quantified variables, without Skolemization, via the
// Ferraris–Lee–Lifschitz second-order characterization of stable
// models. This library implements that semantics operationally,
// together with every baseline and construction the paper discusses:
//
//   - the new SO-based semantics (query answering, model enumeration,
//     the Proposition 11 stability check) — ntgd.Compile with
//     Semantics SO;
//   - the classical LP approach (Skolemization + grounding + ground
//     ASP solving, Section 3.1) — Semantics LP;
//   - the operational chase-based semantics of Baget et al. [3] —
//     Semantics Operational;
//   - the bounded equality-friendly well-founded semantics of [21] —
//     internal/efwfs via ntgd.EFWFSEntails;
//   - the decidability paradigms (weak-acyclicity, stickiness with the
//     Figure 1 marking procedure, guardedness) — ntgd.Classify;
//   - the chase for positive TGDs — ntgd.Chase;
//   - the SM[D,Σ]/MM[D,Σ] second-order formulas — ntgd.SMFormula,
//     ntgd.MMFormula;
//   - the disjunction elimination of Lemma 13 and the DATALOG¬,∨ →
//     WATGD¬ translation of Theorems 15/16 — ntgd.EliminateDisjunction,
//     ntgd.DatalogToWATGD;
//   - the declarative encodings of Sections 5.3 and 7.1 (2-QBF,
//     certain k-colorability, consistent query answering) —
//     internal/encodings, surfaced through cmd/smsbench.
//
// # Surface syntax
//
// Programs are written in a Datalog-style syntax; head variables
// absent from the body are existentially quantified:
//
//	person(alice).
//	person(X) -> hasFather(X,Y).
//	hasFather(X,Y) -> sameAs(Y,Y).
//	hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).
//	?- person(X), not abnormal(X).
//
// # Quick start
//
// Compile a program once into a Solver session, then stream models and
// answer queries against the compiled artifacts:
//
//	prog, err := ntgd.Parse(src)
//	solver, err := ntgd.Compile(prog, ntgd.CompileOptions{Semantics: ntgd.SO})
//	for m, err := range solver.Models(ctx) {
//		if err != nil { ... }         // ErrBudget or ctx.Err()
//		fmt.Println(m.CanonicalString())
//	}
//	verdict, err := solver.Entails(ctx, prog.Queries[0], ntgd.Cautious)
//
// See the examples/ directory for runnable programs and cmd/smsbench
// for the paper-reproduction experiments (E1–E15). Each experiment is
// one table entry whose rows pair the engine's value with the paper's
// verdict or an independent oracle; cmd/smsbench's TestExperiments
// asserts every row, and the command prints them.
//
// # Solver sessions
//
// ntgd.Compile performs everything derivable from the program alone
// exactly once — validation, syntactic classification, per-rule search
// metadata (SO/Operational), and the Skolemization + grounding pipeline
// (LP) — and returns a Solver bound to one Semantics. What the program
// derives from its database is computed once too, by the first run
// that needs it, and every later run starts from it: under
// SO/Operational one budget probe (the oblivious chase of Σ⁺ sizing
// Options.MaxAtoms, a bound on the atoms a branch derives above the
// database) and the frozen run root, the database plus the closure of
// its existential-free Horn rules (Lemma 7), which every stable model
// contains; under LP the store of the well-founded true atoms every
// model shares. When the ground program's well-founded model is total
// (a stratified program, say), it is the only stable model, and an LP
// run hands out a snapshot of that store without searching. Such an
// artifact is published only when complete, so a run that is
// cancelled, panics or hits a budget while building it leaves the next
// run to build it again. All three semantics run behind one internal
// engine interface, so Models, Entails, Answers, and Consistent behave
// uniformly: the same options plumbing, the same Stats and Exhausted
// reporting, the same budget error (ErrBudget, whose text names the
// bound that was hit).
//
// Solver.Models returns an iter.Seq2 stream: models are delivered as
// the search finds them, breaking out of the range loop releases the
// search immediately, and cancelling the context (or letting its
// deadline expire) aborts mid-search, yielding the context error as
// the stream's final element. Solver.Stats reports the cumulative
// search effort — including runs cut short — and the Solver remains
// reusable after a cancellation or budget hit. Per-query witness-pool
// extension (the query's constants, Example 2's bob) is handled
// automatically by Entails and Answers.
//
// # Robustness
//
// A Solver is built for long-lived concurrent hosts. It is safe for
// concurrent use — any number of goroutines may run Models, Entails,
// Answers, and Consistent against one compiled Solver; runs share only
// immutable artifacts and internally synchronized caches, and
// Options.MaxConcurrentRuns bounds how many are admitted at once.
// Every terminal error matches exactly one class of a small taxonomy
// under errors.Is: ErrBudget (node, atom, or — via ErrWallClock, which
// is itself a budget — Options.MaxWallClock exhaustion; under LP also
// a grounding past its atom or term-size bound, which fails Compile),
// ErrMemory (the Options.MaxMemory retained-allocation watermark:
// bytes of packed tuples added across all branches plus
// stability-clause literals), ErrAdmission
// (the gate refused a run because its context ended while queued; the
// context cause is wrapped), and ErrInternal (an engine panic,
// recovered at the worker boundary and converted to a typed
// *engine.InternalError carrying the panic value and stack). In every
// case the search workers are stopped and joined, partial Stats are
// recorded, and the Solver remains reusable. Misuse is hardened the
// same way: the Models sequence may be ranged more than once (each
// invocation is an independent run), and a panic in the range loop
// body propagates to the caller — as range-over-func semantics
// require — only after the workers have been joined. The
// internal/failpoint package (built with -tags failpoint, a no-op
// otherwise) injects panics at the engine's riskiest seams, and a
// chaos suite drives every site to pin these guarantees.
//
// # Serving
//
// The ntgdd daemon (cmd/ntgdd, implemented by internal/server) puts a
// long-lived HTTP/JSON front end over the Solver stack:
//
//	go run ./cmd/ntgdd -addr 127.0.0.1:8377 -max-runs 16 &
//	curl -s http://127.0.0.1:8377/v1/solve -d '{"program":"p(a). p(X) -> q(X)."}'
//
// POST /v1/solve, /v1/entails, /v1/answers, and /v1/consistent carry a
// program plus a query; /v1/batch runs many queries against one
// compiled program in a single round trip. Programs are compiled once
// and cached by canonical hash — facts and rules are sorted and
// deduplicated, so submissions differing only in whitespace, comments,
// or ordering share one entry, and the canonical text quotes every name
// that would not lex back as itself, so different programs never do —
// with single-flight compilation and LRU eviction; uploaded fact bases
// sit in a second instance of the same cache. Every request runs under
// a deadline (timeout_ms, clamped by the server), client disconnects
// cancel the run through the same context plumbing as Models(ctx), and
// one shared admission Gate
// (CompileOptions.Gate) bounds concurrent engine runs across all
// cached programs. The error taxonomy above maps onto distinct HTTP
// statuses mirroring the ntgdctl exit-code contract: 422 budget,
// 429 admission, 504 timeout, 507 memory, 500 internal — every error
// body carrying the partial Stats of the interrupted run. /healthz and
// /statz expose liveness and cumulative cache/engine counters, and
// SIGTERM drains gracefully. The repository benchmark (perfbench, its
// serve workload) measures the daemon end to end; see examples/server
// for a runnable quickstart.
//
// # Overload
//
// Under sustained overload the daemon sheds load instead of queueing
// it. The admission Gate (ntgd.NewGateQueue) bounds not just the
// in-flight runs but the waiting line behind them, and refuses — in
// microseconds, not after a deadline expires — any request that
// arrives to a full queue or whose estimated wait (queue length ×
// an exponentially-weighted moving average of recent run times)
// already exceeds its deadline. Shedding is an opt-in of the bounded
// queue (cmd/ntgdd -max-queued): an unbounded gate keeps the
// historical parking behavior exactly. A refusal is an *ntgd.AdmissionError
// carrying the shed reason (ShedQueueFull, ShedDeadlineHopeless,
// ShedQueuedExpired) and a RetryAfter hint; the server surfaces it as
// 429 with a Retry-After header and retry_after_ms in the body —
// every 429/503 the daemon emits carries that guidance. Oversized
// request bodies are a distinct non-retryable class: 413
// request_too_large. A memory watchdog (-mem-soft/-mem-hard) samples
// the live heap and browns the daemon out under pressure: past the
// soft watermark it evicts the program and database caches and halves
// the admission queue; past the hard watermark it refuses API work
// outright with 503 + Retry-After until the heap recedes. /statz
// reports the gate's queue depth, per-reason shed counters, the run
// time EWMA, and the current pressure level.
//
// The ntgdclient package is the matching client: it retries exactly
// the transient statuses (429, 503, 504, and transport errors) with
// capped exponential backoff and full jitter, never sleeping less
// than the server's Retry-After hint and never exceeding a per-call
// retry budget; deterministic failures (400, 404, 413, 422, 500, 507)
// surface immediately as *ntgdclient.APIError. cmd/ntgdbench measures
// the policy end to end — open-loop load at 1x/2x/4x measured capacity
// against a shedding and a parking daemon, one JSON line per point —
// to show that shedding preserves goodput where parking collapses; see
// examples/ntgdclient for a runnable quickstart.
//
// # Storage
//
// Fact stores are interned and packed (internal/logic). Every
// predicate name and ground term resolves once, per store chain,
// to a dense uint32 id in a shared logic.Symbols table; a ground fact
// is a FactKey — the predicate id followed by one id per argument,
// 4 bytes each — and the indexes (per-predicate lists, posting lists,
// the incremental domain) hold packed ids, not strings or terms.
// Membership probes, joins, and canonical ordering all reduce to
// integer comparisons, and the memory watermark charges exactly the
// packed bytes (TupleBytes).
//
// Every layer of a snapshot chain, root included, keeps its own atoms
// in one packed index: the keys in one contiguous blob under an
// open-addressed table, plus open-addressed posting-list and domain
// tables. A layer allocates its index on its first write, so a
// snapshot that never writes costs one small struct. Add inserts into
// the writing layer's index incrementally, and reads merge the layers.
// AddAll on a root bulk-loads the batch: one interner lock for the
// whole batch, dedup against the pre-reserved key table, and posting
// lists built by counting sort over the dense ids. A batch that is
// small next to the symbol table goes through Add instead.
// BenchmarkBulkLoad compares the two paths on a 10⁶-fact base.
// Pre-loaded fact bases are passed as an ntgd.Database, built once and
// shared across compiles. A randomized differential suite and
// FuzzStorage pin every build path to the per-fact reference build.
//
// # Evaluation engine
//
// Every verdict funnels through homomorphism search over fact stores
// (internal/logic), which is indexed, incremental, and runs on interned
// ids:
//
//   - FactStore maintains, besides the per-predicate index, a
//     (predicate, argument-position, ground-term) posting-list index,
//     updated on every Add. The join probes it whenever a body-atom
//     position is bound by the match built so far — the smallest
//     matching list supplies the candidates instead of a scan of the
//     predicate — and a body atom that is fully bound reduces to a
//     single hash probe.
//
//   - One kernel performs every join (internal/logic/join.go). A
//     logic.BodyPlans compiles its body once per Symbols table:
//     variables become dense slots of a reusable frame of term ids,
//     predicates and ground terms become ids, and non-ground function
//     terms stay structural patterns. Candidates are matched on the id
//     words of the stores' packed keys (after a key-width check, since
//     one predicate name may carry two arities), bound atoms build
//     their probe keys from ids without the Symbols lock, and a warm
//     join allocates nothing: its frames live in the caller's
//     logic.Scratch, one per worker. logic.CompileRule lays a rule out
//     once for every engine: the body over the sorted positive-body
//     variables, each head disjunct over those followed by its
//     existential variables. Hot callers take a logic.Match —
//     slot ids, terms on demand, and the store index each body atom
//     matched: the trigger agenda keeps triggers as id tuples, head
//     and negative checks run compiled patterns with the trigger's ids
//     pre-bound, the stability encoder and the grounder read body
//     indices from the match, and the chase and the grounder add head
//     instances by packed key. The package-level FindHoms, FindHomsFrom
//     and ExistsHom keep their Subst signatures as thin adapters over
//     the same kernel.
//
//   - Fixpoint computations are delta-driven (semi-naive): every atom
//     has a stable store index, so "the atoms derived last round" is an
//     index window, and FindHomsFrom enumerates exactly the
//     homomorphisms that use at least one window atom. The chase
//     (internal/chase), the grounder's derivable base
//     (internal/ground), and the T∞ operator (internal/core) all seed
//     their rounds this way, turning O(rounds × store) re-scans into
//     O(new facts) work. Since each homomorphism is found in exactly
//     one round, the grounder records every ground rule at its match
//     and grounds in that one join pass. The same discipline drives the propositional
//     well-founded fixpoint (internal/asp) via occurrence lists and
//     counters, and the circumscription subset checks (internal/core)
//     via rule instances materialized once and replayed as bitmask
//     operations.
//
//   - Join order is planned, not written: before enumeration, the body
//     atoms are reordered by a greedy selectivity planner
//     (internal/logic/plan.go) — atoms fully bound by the pre-bound
//     slots and earlier atoms are pushed ahead of all joins (each is
//     one hash probe), then atoms are picked by class (bound variable
//     join, ground-argument indexed scan, unconstrained scan) and,
//     within a class, by smallest current candidate estimate. A plan
//     fixes per step which slots it binds and which arguments key its
//     candidates. Long-lived callers (the trigger agenda, the stability
//     sessions, the chase) hold one logic.BodyPlans per rule body or
//     head disjunct, whose plans are cached by delta seed and bound-slot
//     mask, shared across parallel workers via lock-free lookups, and
//     re-planned only when a predicate's fact count grows past a
//     threshold. In a delta search
//     the seed atom always stays first, so the exactly-once window
//     semantics is untouched. Hom emission order is explicitly NOT
//     part of the contract — consumers that need plan-independent
//     determinism impose their own order (the search orders branching
//     triggers by canonical trigger key; see internal/core), and
//     fuzz + differential suites pin planner-on against planner-off
//     and the naive oracle.
//
// The stable model search itself (internal/core) is incremental along
// both axes that dominate its cost:
//
//   - Branching uses copy-on-write store snapshots: FactStore.Snapshot
//     returns an O(1) child layer that shares the parent's atoms and
//     indexes and records only its own additions, with every read —
//     hash probes, posting lists, Domain, canonical rendering — merged
//     transparently across the layer chain. Store indices stay global
//     across a chain, so delta windows survive branching. Chains deeper
//     than a fixed cap flatten into a fresh root; the store's domain
//     (its constant/null term set) is maintained incrementally by Add.
//   - Trigger detection is agenda-driven: each search node carries a
//     queue of candidate triggers, seeded once at the root and extended
//     per node by sweeping only the store delta (FindHomsFrom above the
//     node's high-water mark). Entries are re-validated when popped —
//     a satisfied head disjunct, a derived negative body instance, or a
//     deferral retires a trigger permanently, since all three are
//     monotone along a branch.
//   - Branch exploration is parallel: because every branch child is an
//     isolated snapshot with its own agenda, independent sibling
//     subtrees are explored by a bounded worker pool
//     (Options.Workers; 0 = GOMAXPROCS, 1 = sequential). Idle workers
//     pick up branch children as they are created; a shared
//     deduplicating sink delivers models on the caller's goroutine.
//     Per-node branch-trigger selection order — which is part of the
//     semantics, since witness pools are drawn from the domain at
//     branch time — is unchanged, so a complete enumeration emits a
//     canonical model set bit-identical to the sequential search;
//     only Workers == 1 additionally fixes the delivery order.
//   - Stability checking is session-based: the Proposition 11 check
//     (no J with D ⊆ J ⊊ M⁺ satisfies the τ-translation) is encoded
//     into CNF incrementally along the search tree instead of from
//     scratch per candidate model. A per-state stability session
//     mirrors the snapshot chain — each layer owns the clauses and
//     atom variables of its store window, keyed by global store index,
//     and a child extends its parent by encoding only the delta:
//     FindHomsFrom above the parent's high-water mark for new body
//     homomorphisms, plus completion joins that chain newly visible
//     head witnesses onto existing clauses through extension-tail
//     literals. Encoding is on demand: a layer is pending at its
//     branch point, encoded on first need — a candidate check or a
//     worker fork below it — and frozen once encoded, so the windows
//     of subtrees that reach neither are never encoded. A check loads
//     the clauses of its own root-to-leaf chain into the worker's
//     reusable CDCL SAT solver (internal/sat: solve-under-assumptions,
//     first-UIP clause learning, Reset for the next formula); the
//     per-model conditions — which homomorphisms are unblocked in M and
//     each clause's latest witness set — are assumptions, and the
//     proper-subset requirement is one added clause, so no layer is
//     ever re-encoded. Worker forks share the frozen layers and copy
//     nothing.
//
// The pre-index code paths are retained package-privately
// (logic.naiveFindHoms, chase.runNaive, asp.gammaNaive, the naive
// minimality enumerations, core.findTriggerNaive — the full-rescan
// trigger detection behind the agenda-based search — and
// core.stableAgainstSubsetsNaive, the full-rebuild stability encoder
// behind the sessions) as oracles: randomized differential tests pin
// the optimized engines to them, so future changes to the index or
// the delta discipline are caught by `go test ./...`.
package ntgd
