// Package server implements ntgdd, the long-lived solver daemon: an
// HTTP/JSON front end over the compile-once ntgd.Solver stack.
//
// The daemon holds a compiled-program cache keyed by canonical program
// hash (LRU-bounded, single-flight compilation), so concurrent query
// traffic against the same program compiles once and then shares one
// concurrency-safe Solver (PR 7). Every request runs under a
// per-request deadline threaded through the engines' context
// cancellation, client disconnects abort the run the same way, and one
// shared admission gate (ntgd.Gate, the PR 7 MaxConcurrentRuns
// mechanism) bounds the daemon's total concurrent engine runs across
// all cached programs. Terminal errors map onto distinct HTTP status
// codes mirroring the ntgdctl exit-code contract (see api.go), always
// carrying the partial Stats of the interrupted run.
//
// Under overload the daemon sheds rather than parks (PR 10): the gate's
// waiter queue is bounded (MaxQueuedRuns), requests whose deadline is
// provably hopeless given the queue and the EWMA of recent run times
// are refused immediately, and every 429/503 refusal carries machine-
// readable retry guidance (Retry-After header, retry_after_ms body
// field). A memory-pressure brownout (see brownout.go) additionally
// evicts caches and halves the queue bound at the soft watermark and
// refuses new API work at the hard one.
//
// Endpoints:
//
//	POST /v1/solve       enumerate stable models
//	POST /v1/entails     answer one Boolean query
//	POST /v1/answers     answer one n-ary query
//	POST /v1/consistent  consistency check
//	POST /v1/batch       many queries against one compiled program
//	POST /v1/db          upload a fact base once; solve/batch requests
//	                     reference it by content-addressed handle
//	GET  /healthz        liveness (503 while draining)
//	GET  /statz          cumulative solver/cache/request statistics
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ntgd"
	"ntgd/internal/failpoint"
)

// Config configures a Server. The zero value serves with the defaults
// documented per field.
type Config struct {
	// CacheSize bounds the compiled-program cache (entries; default
	// 128). Least-recently-used programs are evicted past the cap.
	CacheSize int
	// DBCacheSize bounds the uploaded fact-base cache behind POST
	// /v1/db (entries; default 64). Least-recently-used bases are
	// evicted past the cap; referencing an evicted handle answers 404
	// and the client re-uploads.
	DBCacheSize int
	// MaxConcurrentRuns bounds engine runs across the whole daemon via
	// one shared admission gate (0 = unlimited). A request that cannot
	// be admitted before its deadline is refused with 429.
	MaxConcurrentRuns int
	// MaxQueuedRuns bounds the gate's waiter queue, only meaningful
	// with MaxConcurrentRuns > 0. 0 keeps the historical unbounded
	// parking queue; > 0 sheds immediately (429 + Retry-After) once
	// that many runs are already waiting; < 0 disables queuing
	// entirely — a run is admitted only if a slot is free right now.
	// Independent of the bound, a waiter whose deadline provably
	// expires before a slot can free (queue length × EWMA run time) is
	// shed immediately instead of parking to certain death.
	MaxQueuedRuns int
	// WriteTimeout bounds each response write (a per-request deadline
	// applied via http.ResponseController just before the body is
	// encoded; 0 = none). Unlike http.Server.WriteTimeout it does not
	// start ticking until the handler is done solving, so slow clients
	// cannot wedge response goroutines while long solves stay legal.
	WriteTimeout time.Duration
	// MemSoftBytes and MemHardBytes are the brownout watermarks over
	// live heap bytes (0 = disabled); see brownout.go for the state
	// machine they drive.
	MemSoftBytes uint64
	MemHardBytes uint64
	// DefaultTimeout applies when a request carries no timeout_ms
	// (0 = no default deadline).
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-request deadlines (0 = no clamp). Requests
	// asking for more — or for none while a clamp is set — get exactly
	// MaxTimeout.
	MaxTimeout time.Duration
	// MaxModels caps the models any single solve request may return
	// (default 10000).
	MaxModels int
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// Options are the base search options every cached program is
	// compiled with (Workers, budgets, MaxMemory, MaxWallClock...).
	// MaxConcurrentRuns inside Options is ignored — the server-level
	// gate governs admission.
	Options ntgd.Options
}

// Server is the daemon state behind the HTTP handler. Create one with
// New; it is safe for concurrent use by any number of requests.
type Server struct {
	cfg      Config
	gate     *ntgd.Gate
	programs *cache[*ntgd.Solver]
	dbs      *cache[*ntgd.Database]
	start    time.Time

	// retired accumulates the final cumulative Stats of evicted solvers
	// so /statz keeps counting effort the cache no longer holds (a solver
	// evicted mid-run contributes its stats as of eviction). The program
	// cache's eviction hook writes it under the cache's lock, and
	// engineStats reads it under the same lock.
	retired ntgd.Stats

	draining atomic.Bool
	inFlight atomic.Int64

	// pressure is the brownout level (see brownout.go); pressureMu
	// serializes level transitions so purge/bound side effects of one
	// transition complete before the next is observed.
	pressure   atomic.Int32
	pressureMu sync.Mutex

	mu       sync.Mutex
	requests map[string]int64
	errors   map[string]int64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		gate:     ntgd.NewGateQueue(cfg.MaxConcurrentRuns, queueBound(cfg.MaxQueuedRuns)),
		start:    time.Now(),
		requests: make(map[string]int64),
		errors:   make(map[string]int64),
	}
	s.programs = newCache(positiveOr(cfg.CacheSize, 128), func(sv *ntgd.Solver) { s.retired.Add(sv.Stats()) })
	s.dbs = newCache[*ntgd.Database](positiveOr(cfg.DBCacheSize, 64), nil)
	return s
}

func positiveOr(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

// queueBound translates the Config.MaxQueuedRuns convention (0 =
// unbounded, < 0 = no queue) into the gate's (-1 = unbounded, 0 = no
// queue).
func queueBound(maxQueued int) int {
	switch {
	case maxQueued == 0:
		return -1
	case maxQueued < 0:
		return 0
	default:
		return maxQueued
	}
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handle("solve", s.doSolve))
	mux.HandleFunc("/v1/entails", s.handle("entails", s.doEntails))
	mux.HandleFunc("/v1/answers", s.handle("answers", s.doAnswers))
	mux.HandleFunc("/v1/consistent", s.handle("consistent", s.doConsistent))
	mux.HandleFunc("/v1/batch", s.handle("batch", s.doBatch))
	mux.HandleFunc("/v1/db", s.handle("db", s.doDB))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statz", s.handleStatz)
	return mux
}

// StartDrain flips the daemon into draining mode: /healthz turns 503
// (load balancers stop routing) and new API requests are refused with
// 503/draining, while requests already in flight run to completion.
// Call it right before http.Server.Shutdown.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight reports the number of requests currently executing.
func (s *Server) InFlight() int64 { return s.inFlight.Load() }

// errBadRequest tags request-shape errors (missing fields, parse
// failures, unknown semantics/mode) so the handler maps them to 400
// instead of the run-error taxonomy.
var errBadRequest = errors.New("bad request")

func badReqf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadRequest, fmt.Sprintf(format, args...))
}

// errNotFound tags unknown-reference errors (a db handle that was never
// uploaded or has been evicted) so the handler answers 404/not_found.
var errNotFound = errors.New("not found")

func notFoundf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errNotFound, fmt.Sprintf(format, args...))
}

// runResult is what an endpoint implementation hands back to the shared
// handler plumbing: a success payload, or an error plus the partial
// effort to attach to the error body.
type runResult struct {
	payload   any
	stats     ntgd.Stats
	exhausted bool
}

func (s *Server) handle(name string, fn func(ctx context.Context, req *Request) (runResult, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.count(s.errors, ClassDraining)
			s.shed(w, http.StatusServiceUnavailable, ErrorResponse{
				Error: "ntgdd: draining", Class: ClassDraining,
			})
			return
		}
		if s.Pressure() >= PressureHard {
			s.count(s.errors, ClassOverloaded)
			s.shed(w, http.StatusServiceUnavailable, ErrorResponse{
				Error: "ntgdd: refusing new work under hard memory pressure",
				Class: ClassOverloaded,
			})
			return
		}
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{
				Error: "use POST", Class: ClassBadRequest,
			})
			return
		}
		s.count(s.requests, name)
		var req Request
		body := http.MaxBytesReader(w, r.Body, s.maxBody())
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				s.count(s.errors, ClassRequestTooLarge)
				s.writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
					Error: fmt.Sprintf("request body exceeds the %d-byte cap; split the program or raise the server's MaxBodyBytes", mbe.Limit),
					Class: ClassRequestTooLarge,
				})
				return
			}
			s.count(s.errors, ClassBadRequest)
			s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
				Error: "decoding request body: " + err.Error(), Class: ClassBadRequest,
			})
			return
		}

		ctx, cancel := s.requestContext(r.Context(), &req)
		defer cancel()

		s.inFlight.Add(1)
		res, err := s.run(ctx, &req, fn)
		s.inFlight.Add(-1)

		if err != nil {
			status, class := http.StatusBadRequest, ClassBadRequest
			if errors.Is(err, errNotFound) {
				status, class = http.StatusNotFound, ClassNotFound
			} else if !errors.Is(err, errBadRequest) {
				status, class = statusFor(err)
			}
			s.count(s.errors, class)
			resp := ErrorResponse{
				Error:     err.Error(),
				Class:     class,
				Stats:     statsJSON(res.stats),
				Exhausted: res.exhausted,
			}
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				var ae *ntgd.AdmissionError
				if errors.As(err, &ae) {
					resp.RetryAfterMS = ae.RetryAfter.Milliseconds()
				}
				s.shed(w, status, resp)
				return
			}
			s.writeJSON(w, status, resp)
			return
		}
		s.writeJSON(w, http.StatusOK, res.payload)
	}
}

// defaultRetryAfterMS is the retry hint a refusal carries when the gate
// has no better estimate (an idle EWMA, or a non-gate refusal such as
// draining or brownout).
const defaultRetryAfterMS = 1000

// shed writes a load-shedding refusal (429 or 503): it guarantees the
// response carries retry guidance — a positive retry_after_ms and the
// matching Retry-After header (whole seconds, rounded up, at least 1) —
// and runs under its own panic boundary. The shed path executes exactly
// when the daemon is already in trouble, so a fault here (the
// server/shed failpoint in the chaos suite) must still answer a typed
// error rather than an empty reply.
func (s *Server) shed(w http.ResponseWriter, status int, resp ErrorResponse) {
	defer func() {
		if r := recover(); r != nil {
			s.count(s.errors, ClassInternal)
			s.writeJSON(w, http.StatusInternalServerError, ErrorResponse{
				Error: fmt.Sprintf("ntgdd: shed-path fault: %v", r),
				Class: ClassInternal,
			})
		}
	}()
	failpoint.Inject(failpoint.ServerShed)
	if resp.RetryAfterMS <= 0 {
		resp.RetryAfterMS = defaultRetryAfterMS
	}
	w.Header().Set("Retry-After", strconv.FormatInt((resp.RetryAfterMS+999)/1000, 10))
	s.writeJSON(w, status, resp)
}

// run executes one endpoint body under the handler's panic boundary: a
// panicking request — the server/handler failpoint, or a genuine
// handler bug — is converted to a typed internal error so the daemon
// answers 500 and keeps serving. Engine panics never reach this
// boundary (the Solver's own Guard types them first); this recover
// protects the daemon from faults in the handler layer itself.
func (s *Server) run(ctx context.Context, req *Request, fn func(context.Context, *Request) (runResult, error)) (res runResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = runResult{}
			err = fmt.Errorf("%w: handler panic: %v", ntgd.ErrInternal, r)
		}
	}()
	failpoint.Inject(failpoint.ServerHandler)
	return fn(ctx, req)
}

// requestContext derives the run context: the client's connection
// context (disconnects cancel the run) plus the per-request deadline,
// clamped by the server maximum. A timeout_ms past what time.Duration
// holds (about 292 years) saturates instead of wrapping.
func (s *Server) requestContext(parent context.Context, req *Request) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(math.MaxInt64)
		if req.TimeoutMS <= math.MaxInt64/int64(time.Millisecond) {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	if timeout > 0 {
		return context.WithTimeout(parent, timeout)
	}
	return parent, func() {}
}

func (s *Server) maxBody() int64 {
	if s.cfg.MaxBodyBytes > 0 {
		return s.cfg.MaxBodyBytes
	}
	return 8 << 20
}

func (s *Server) maxModels(requested int) int {
	limit := s.cfg.MaxModels
	if limit <= 0 {
		limit = 10000
	}
	if requested <= 0 || requested > limit {
		return limit
	}
	return requested
}

func (s *Server) count(m map[string]int64, key string) {
	s.mu.Lock()
	m[key]++
	s.mu.Unlock()
}

// program resolves the request's program through the compiled-program
// cache, attaching the uploaded fact base when the request references
// one by handle. An unknown db handle is 404. A compile error in the
// taxonomy passes through to its status: a deadline expiring while
// waiting on a single-flight compile, or an LP grounding past its
// budget (422). Everything else — parse or validation failures — is a
// bad request.
func (s *Server) program(ctx context.Context, req *Request) (*ntgd.Solver, error) {
	if strings.TrimSpace(req.Program) == "" {
		return nil, badReqf("missing program")
	}
	sem, err := semFromString(req.Semantics)
	if err != nil {
		return nil, err
	}
	var db *ntgd.Database
	if req.DB != "" {
		var ok bool
		if db, ok = s.dbs.lookup(req.DB); !ok {
			return nil, notFoundf("unknown db handle %q (never uploaded, or evicted — re-upload via POST /v1/db)", req.DB)
		}
	}
	prog, canonical, err := Canonicalize(req.Program)
	if err != nil {
		return nil, badReqf("%v", err)
	}
	solver, err := s.programs.get(ctx, cacheKey(sem, canonical, req.DB), func() (*ntgd.Solver, error) {
		opt := s.cfg.Options
		opt.MaxConcurrentRuns = 0 // the shared gate governs admission
		return ntgd.Compile(prog, ntgd.CompileOptions{Semantics: sem, Options: opt, Gate: s.gate, Database: db})
	})
	if err != nil {
		if _, class := statusFor(err); class == ClassError {
			return nil, badReqf("%v", err)
		}
		return nil, err
	}
	return solver, nil
}

func semFromString(s string) (ntgd.Semantics, error) {
	switch s {
	case "", "so":
		return ntgd.SO, nil
	case "lp":
		return ntgd.LP, nil
	case "op", "operational":
		return ntgd.Operational, nil
	default:
		return 0, badReqf("unknown semantics %q (want so, lp, or op)", s)
	}
}

func modeFromString(s string) (ntgd.Mode, error) {
	switch s {
	case "", "cautious":
		return ntgd.Cautious, nil
	case "brave":
		return ntgd.Brave, nil
	default:
		return 0, badReqf("unknown mode %q (want cautious or brave)", s)
	}
}

// parseQuery parses a single "?- ..." query carried in its own request
// field.
func parseQuery(src string) (ntgd.Query, error) {
	p, err := ntgd.Parse(src)
	if err != nil {
		return ntgd.Query{}, badReqf("parsing query: %v", err)
	}
	if len(p.Queries) != 1 || len(p.Facts) > 0 || len(p.Rules) > 0 {
		return ntgd.Query{}, badReqf("query field must contain exactly one \"?- ...\" query")
	}
	q := p.Queries[0]
	if err := q.Validate(); err != nil {
		return ntgd.Query{}, badReqf("%v", err)
	}
	return q, nil
}

func (s *Server) doSolve(ctx context.Context, req *Request) (runResult, error) {
	solver, err := s.program(ctx, req)
	if err != nil {
		return runResult{}, err
	}
	res, err := solver.Collect(ctx, s.maxModels(req.MaxModels))
	out := runResult{stats: res.Stats, exhausted: res.Exhausted}
	if err != nil {
		return out, err
	}
	models := make([]string, len(res.Models))
	for i, m := range res.Models {
		models[i] = m.CanonicalString()
	}
	out.payload = SolveResponse{
		Models:    models,
		Count:     len(models),
		Exhausted: res.Exhausted,
		Stats:     statsJSON(res.Stats),
	}
	return out, nil
}

func (s *Server) doEntails(ctx context.Context, req *Request) (runResult, error) {
	solver, err := s.program(ctx, req)
	if err != nil {
		return runResult{}, err
	}
	q, err := parseQuery(req.Query)
	if err != nil {
		return runResult{}, err
	}
	mode, err := modeFromString(req.Mode)
	if err != nil {
		return runResult{}, err
	}
	res, err := solver.Entails(ctx, q, mode)
	out := runResult{stats: res.Stats, exhausted: res.Exhausted}
	if err != nil {
		return out, err
	}
	payload := EntailsResponse{
		Entailed:  res.Entailed,
		NoModels:  res.NoModels,
		Exhausted: res.Exhausted,
		Stats:     statsJSON(res.Stats),
	}
	if res.Witness != nil {
		payload.Witness = res.Witness.CanonicalString()
	}
	out.payload = payload
	return out, nil
}

func (s *Server) doAnswers(ctx context.Context, req *Request) (runResult, error) {
	solver, err := s.program(ctx, req)
	if err != nil {
		return runResult{}, err
	}
	q, err := parseQuery(req.Query)
	if err != nil {
		return runResult{}, err
	}
	if len(q.AnswerVars) == 0 {
		return runResult{}, badReqf("query has no answer variables; use /v1/entails for Boolean queries")
	}
	mode, err := modeFromString(req.Mode)
	if err != nil {
		return runResult{}, err
	}
	res, err := solver.AnswerSet(ctx, q, mode)
	out := runResult{stats: res.Stats, exhausted: res.Exhausted}
	if err != nil {
		return out, err
	}
	out.payload = AnswersResponse{
		Tuples:   renderTuples(res.Tuples),
		Complete: res.Complete,
		Stats:    statsJSON(res.Stats),
	}
	return out, nil
}

func (s *Server) doConsistent(ctx context.Context, req *Request) (runResult, error) {
	solver, err := s.program(ctx, req)
	if err != nil {
		return runResult{}, err
	}
	ok, err := solver.Consistent(ctx)
	if err != nil {
		return runResult{}, err
	}
	return runResult{payload: ConsistentResponse{Consistent: ok}}, nil
}

// doBatch runs every item against one compiled program. Item-level
// taxonomy errors (a budget, one slow query timing out) are recorded
// per item and do not fail the batch; once the batch deadline has
// expired, remaining items are marked timed out without running.
func (s *Server) doBatch(ctx context.Context, req *Request) (runResult, error) {
	solver, err := s.program(ctx, req)
	if err != nil {
		return runResult{}, err
	}
	if len(req.Queries) == 0 {
		return runResult{}, badReqf("batch request carries no queries")
	}
	var agg ntgd.Stats
	results := make([]BatchResult, len(req.Queries))
	for i, item := range req.Queries {
		if ctx.Err() != nil {
			results[i] = BatchResult{
				Error: "deadline expired before this item ran",
				Class: ClassTimeout,
			}
			continue
		}
		results[i] = s.batchItem(ctx, solver, item)
		agg.Add(statsBack(results[i].Stats))
	}
	return runResult{stats: agg, payload: BatchResponse{
		Results: results,
		Stats:   statsJSON(agg),
	}}, nil
}

func (s *Server) batchItem(ctx context.Context, solver *ntgd.Solver, item BatchItem) BatchResult {
	q, err := parseQuery(item.Query)
	if err != nil {
		return BatchResult{Error: err.Error(), Class: ClassBadRequest}
	}
	mode, err := modeFromString(item.Mode)
	if err != nil {
		return BatchResult{Error: err.Error(), Class: ClassBadRequest}
	}
	if len(q.AnswerVars) > 0 {
		res, err := solver.AnswerSet(ctx, q, mode)
		out := BatchResult{
			Tuples:   renderTuples(res.Tuples),
			Complete: res.Complete,
			Stats:    statsJSON(res.Stats),
		}
		if err != nil {
			_, out.Class = statusFor(err)
			out.Error = err.Error()
		}
		return out
	}
	res, err := solver.Entails(ctx, q, mode)
	out := BatchResult{
		Entailed: res.Entailed,
		NoModels: res.NoModels,
		Stats:    statsJSON(res.Stats),
	}
	if res.Witness != nil {
		out.Witness = res.Witness.CanonicalString()
	}
	if err != nil {
		_, out.Class = statusFor(err)
		out.Error = err.Error()
	}
	return out
}

func renderTuples(tuples []ntgd.AnswerTuple) [][]string {
	out := make([][]string, len(tuples))
	for i, t := range tuples {
		row := make([]string, len(t))
		for j, c := range t {
			row[j] = c.String()
		}
		out[i] = row
	}
	return out
}

// statsBack converts the wire Stats back for aggregation.
func statsBack(w Stats) ntgd.Stats {
	return ntgd.Stats{
		Nodes:           w.Nodes,
		Branches:        w.Branches,
		Deterministic:   w.Deterministic,
		Completed:       w.Completed,
		StabilityChecks: w.StabilityChecks,
		StabilityFailed: w.StabilityFailed,
		ModelsEmitted:   w.ModelsEmitted,
		Conflicts:       w.Conflicts,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Statz is the /statz body: cumulative request counters, error counts
// by taxonomy class, the counters of the compiled-program cache and of
// the fact-base cache, and the engine effort aggregated across every
// solver the program cache holds or has evicted. In DBCache, Compiles
// counts Database loads, one per distinct fact set however many
// identical uploads race, and Hits and Misses count both uploads and
// handle lookups.
type Statz struct {
	UptimeMS int64            `json:"uptime_ms"`
	InFlight int64            `json:"in_flight"`
	Draining bool             `json:"draining"`
	Pressure string           `json:"pressure"`
	Requests map[string]int64 `json:"requests"`
	Errors   map[string]int64 `json:"errors"`
	Gate     GateStatz        `json:"gate"`
	Cache    CacheStats       `json:"cache"`
	DBCache  CacheStats       `json:"db_cache"`
	Engine   Stats            `json:"engine"`
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	reqs := make(map[string]int64, len(s.requests))
	for k, v := range s.requests {
		reqs[k] = v
	}
	errs := make(map[string]int64, len(s.errors))
	for k, v := range s.errors {
		errs[k] = v
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, Statz{
		UptimeMS: time.Since(s.start).Milliseconds(),
		InFlight: s.inFlight.Load(),
		Draining: s.draining.Load(),
		Pressure: s.Pressure().String(),
		Requests: reqs,
		Errors:   errs,
		Gate:     gateStatsJSON(s.gate.Snapshot()),
		Cache:    s.programs.stats(),
		DBCache:  s.dbs.stats(),
		Engine:   statsJSON(s.engineStats()),
	})
}

// engineStats sums the cumulative Stats of the cached solvers and of the
// evicted ones.
func (s *Server) engineStats() ntgd.Stats {
	var st ntgd.Stats
	s.programs.withValues(func(live []*ntgd.Solver) {
		st = s.retired
		for _, sv := range live {
			st.Add(sv.Stats())
		}
	})
	return st
}

// writeJSON encodes one response body under the configured per-request
// write deadline: the clock starts here — after the solve — so a slow
// or stalled client cannot pin the response goroutine, while arbitrarily
// long solves stay unaffected (a fixed http.Server.WriteTimeout would
// start at the request header and kill them). SetWriteDeadline errors
// are ignored: httptest recorders and other non-Controller writers
// simply skip the deadline.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if d := s.cfg.WriteTimeout; d > 0 {
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(d))
	}
	writeJSON(w, status, v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
