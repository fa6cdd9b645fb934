package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ntgd"
	"ntgd/internal/server"
)

const (
	// serveRate is the nominal offered load in requests per second: about
	// 0.3× the capacity the run measures on the reference machine (~650
	// requests per second on 2 vCPUs). It is fixed so that every run, on
	// every commit, offers the same load.
	serveRate = 200.0
	// serveSegments is the number of open-loop segments, each followed by
	// a capacity segment.
	serveSegments = 4
	// serveCapacityShare is the part of --seconds the capacity segments
	// take.
	serveCapacityShare = 0.25
	// capacityWindows is the number of windows each capacity segment is
	// cut into.
	capacityWindows = 5
)

// hotPrograms are the small programs most serve requests query, each
// with the queries drawn for it. Their compiled solvers stay cached in
// the daemon.
var hotPrograms = []struct {
	sem, src string
	queries  []server.BatchItem
}{
	{"so", "item(i0). item(i1). item(i2). item(i3).\nitem(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n",
		[]server.BatchItem{{Query: "?- in(i0).", Mode: "brave"}, {Query: "?- in(i0).", Mode: "cautious"}, {Query: "?-[X] in(X).", Mode: "brave"}}},
	{"so", "person(alice). person(bob). person(carol).\nperson(X) -> hasFather(X,Y).\n",
		[]server.BatchItem{{Query: "?- hasFather(alice, bob).", Mode: "cautious"}, {Query: "?- hasFather(alice, bob).", Mode: "brave"}, {Query: "?-[X] hasFather(X, Y).", Mode: "cautious"}}},
	{"so", "node(a). node(b). node(c). edge(a,b). edge(b,c). edge(a,c).\nnode(X) -> r(X) | g(X) | b(X).\nedge(X,Y), r(X), r(Y) -> clash.\nedge(X,Y), g(X), g(Y) -> clash.\nedge(X,Y), b(X), b(Y) -> clash.\n:- clash.\n",
		[]server.BatchItem{{Query: "?- r(a).", Mode: "brave"}, {Query: "?- r(a).", Mode: "cautious"}, {Query: "?-[X] g(X).", Mode: "brave"}}},
	{"lp", "item(i0). item(i1). item(i2). item(i3).\nitem(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n",
		[]server.BatchItem{{Query: "?- in(i1).", Mode: "brave"}, {Query: "?-[X] out(X).", Mode: "cautious"}}},
	{"lp", "edge(a,b). edge(b,c). edge(c,d). edge(d,b). start(a).\nstart(X) -> reach(X).\nreach(X), edge(X,Y) -> reach(Y).\nedge(X,Y), not reach(X) -> dead(X).\n",
		[]server.BatchItem{{Query: "?- reach(d).", Mode: "cautious"}, {Query: "?-[X] reach(X).", Mode: "cautious"}}},
	{"so", "emp(ann). emp(bob). emp(cid). mgr(ann).\nemp(X), not mgr(X) -> worker(X).\nworker(X) -> supervisor(X,Y).\n",
		[]server.BatchItem{{Query: "?- worker(bob).", Mode: "cautious"}, {Query: "?- supervisor(bob, ann).", Mode: "brave"}, {Query: "?-[X] worker(X).", Mode: "cautious"}}},
}

// serveReq is one request of the schedule.
type serveReq struct {
	path  string
	req   server.Request
	useDB bool // req.DB is the uploaded base's handle
	fresh bool // the program occurs only here
	body  []byte
}

// serveLoad holds the generated serve inputs.
type serveLoad struct {
	dbFacts string
	dbFactN int
	// nominal is the open loop's schedule, cut into serveSegments
	// segments, and due its Poisson arrival times as offsets from the
	// start of the request's segment.
	nominal []serveReq
	due     []time.Duration
}

// segment returns the bounds of open-loop segment k in nominal.
func (in *serveLoad) segment(k int) (lo, hi int) {
	return k * len(in.nominal) / serveSegments, (k + 1) * len(in.nominal) / serveSegments
}

// newServeLoad draws the nominal schedule for the open loop's share of
// seconds.
func newServeLoad(seed int64, seconds float64) *serveLoad {
	rng := rand.New(rand.NewSource(seed))
	in := &serveLoad{}

	// The 5000-fact base behind POST /v1/db, sorted and deduplicated as
	// the daemon canonicalizes it.
	dbSet := map[string]bool{}
	for len(dbSet) < 5000 {
		dbSet[fmt.Sprintf("link(x%d,x%d)", rng.Intn(2000), rng.Intn(2000))] = true
	}
	dbLines := make([]string, 0, len(dbSet))
	for f := range dbSet {
		dbLines = append(dbLines, f+".\n")
	}
	sort.Strings(dbLines)
	in.dbFacts, in.dbFactN = strings.Join(dbLines, ""), len(dbLines)

	var big strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&big, "val(k%d,c%d).\n", i%200, rng.Intn(100))
	}
	for c := 0; c < 100; c += 7 {
		fmt.Fprintf(&big, "flag(c%d).\n", c)
	}
	big.WriteString("val(K,C), flag(C) -> hit(K).\n")

	in.nominal = serveRequests(rng, max(serveSegments, int(serveRate*seconds*(1-serveCapacityShare))), big.String())
	in.due = make([]time.Duration, len(in.nominal))
	for k := range serveSegments {
		lo, hi := in.segment(k)
		var at time.Duration
		for i := lo; i < hi; i++ {
			at += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
			in.due[i] = at
		}
	}
	return in
}

// serveRequests draws n requests of the serve mix.
func serveRequests(rng *rand.Rand, n int, bigProgram string) []serveReq {
	const dbProgram = "mark(x1). mark(x2). mark(x3).\nlink(X,Y), mark(Y) -> marked(X).\n"
	reqs := make([]serveReq, n)
	for i := range reqs {
		r := &reqs[i]
		switch x := rng.Intn(100); {
		case x < 45: // a query on a hot program
			h := hotPrograms[rng.Intn(len(hotPrograms))]
			q := h.queries[rng.Intn(len(h.queries))]
			r.path = "/v1/entails"
			if strings.HasPrefix(q.Query, "?-[") {
				r.path = "/v1/answers"
			}
			r.req = server.Request{Program: h.src, Semantics: h.sem, Query: q.Query, Mode: q.Mode}
		case x < 60: // model emission: 64 models
			r.path = "/v1/solve"
			r.req = server.Request{Program: choiceProgram(6)}
		case x < 70: // a 4-query batch
			h := hotPrograms[0]
			r.path = "/v1/batch"
			r.req = server.Request{Program: h.src, Queries: append(slices.Clone(h.queries), server.BatchItem{Query: "?- in(i0), out(i1).", Mode: "brave"})}
		case x < 85: // canonicalizing 1000 inline facts per request
			r.path = "/v1/entails"
			r.req = server.Request{Program: bigProgram, Query: fmt.Sprintf("?- hit(k%d).", rng.Intn(50))}
		case x < 95: // a solve against the uploaded base
			r.path = "/v1/solve"
			r.req = server.Request{Program: dbProgram, MaxModels: 1}
			r.useDB = true
		default: // a fresh program: a cache miss
			r.path = "/v1/solve"
			sem := "so"
			if i%2 == 1 {
				sem = "lp"
			}
			r.req = server.Request{Program: layeredProgram(rng, [2]int{5, 10}, [2]int{10, 30}, false), Semantics: sem, MaxModels: 1}
			r.fresh = true
		}
	}
	return reqs
}

// choiceProgram has 2ⁿ stable models.
func choiceProgram(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "item(i%d).\n", i)
	}
	b.WriteString("item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n")
	return b.String()
}

// serveSystem is one in-process daemon with its client.
type serveSystem struct {
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returned
	client *http.Client
	base   string
	handle string // the uploaded fact base's
}

// startServe starts the daemon with cmd/ntgdd's default flag values on
// a loopback listener, uploads the fact base, and warms the
// compiled-program cache with one request per recurring program.
func startServe(in *serveLoad) (*serveSystem, error) {
	srv := server.New(server.Config{
		CacheSize:      128,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     5 * time.Minute,
		MaxModels:      10000,
		WriteTimeout:   30 * time.Second,
		Options:        ntgd.Options{Workers: 1},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	s := &serveSystem{
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute},
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: nproc, MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc,
		}},
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed from close
	}()

	var up server.DBResponse
	if err := s.call("/v1/db", server.Request{Facts: in.dbFacts}, &up); err != nil {
		s.close()
		return nil, fmt.Errorf("uploading the fact base: %w", err)
	}
	if up.Facts != in.dbFactN {
		s.close()
		return nil, fmt.Errorf("uploaded %d facts, the daemon loaded %d", in.dbFactN, up.Facts)
	}
	s.handle = up.Handle
	// A running daemon has every recurring program compiled; only the
	// fresh ones miss.
	type program struct {
		sem, src string
		db       bool
	}
	warmed := map[program]bool{}
	for i := range in.nominal {
		r := &in.nominal[i]
		key := program{r.req.Semantics, r.req.Program, r.useDB}
		if r.fresh || warmed[key] {
			continue
		}
		warmed[key] = true
		body, err := s.body(r)
		if err != nil {
			s.close()
			return nil, err
		}
		if _, status, err := post(s.client, s.base+r.path, body); err != nil || status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("warming %s: status %d, %v", r.path, status, err)
		}
	}
	return s, nil
}

// body encodes r for this daemon, naming its fact base.
func (s *serveSystem) body(r *serveReq) ([]byte, error) {
	req := r.req
	if r.useDB {
		req.DB = s.handle
	}
	return json.Marshal(req)
}

// encode sets every request's body.
func (s *serveSystem) encode(reqs []serveReq) error {
	for i := range reqs {
		var err error
		if reqs[i].body, err = s.body(&reqs[i]); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveSystem) close() {
	s.hs.Close() //nolint:errcheck // closing listeners and connections only
	<-s.served
	s.client.CloseIdleConnections()
}

// call posts req and decodes a 200 response into out (if non-nil).
func (s *serveSystem) call(path string, req server.Request, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	b, status, err := post(s.client, s.base+path, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, status, b)
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

func post(c *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// cacheStats reads the daemon's compiled-program cache counters.
func (s *serveSystem) cacheStats() (server.CacheStats, error) {
	resp, err := s.client.Get(s.base + "/statz")
	if err != nil {
		return server.CacheStats{}, err
	}
	defer resp.Body.Close()
	var st server.Statz
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st.Cache, err
}

// outcome is one request's result.
type outcome struct {
	req    int           // the request's index in the schedule
	lat    time.Duration // from the due time to the whole response read
	done   time.Duration // from the start of the loop to the whole response read
	lag    time.Duration // how late an idle sender started the request
	idle   bool          // the sender was waiting for the due time
	answer string        // the response reduced by answerKey
	err    error
}

// send posts request i and records its outcome.
func (s *serveSystem) send(reqs []serveReq, i int, o *outcome) {
	r := &reqs[i]
	b, status, err := post(s.client, s.base+r.path, r.body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", r.path, status, b)
	}
	if err == nil {
		o.answer, err = answerKey(r.path, b)
	}
	o.req, o.err = i, err
}

// drive offers reqs[lo:hi] as an open loop: nproc senders on nproc
// keep-alive connections take the requests in schedule order, each
// sending when its request is due (due counts from the start of the
// loop) or, if it fell behind, at once — the lateness counts in the
// latency, which runs from the due time. outs[lo:hi] gets the outcomes.
// With tracers (one per sender) each round trip is a span.
func drive(s *serveSystem, reqs []serveReq, due []time.Duration, lo, hi int, outs []outcome, tracers []*tracer) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		var tr *tracer
		if tracers != nil {
			tr = tracers[w]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := lo + int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				o := &outs[i]
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
					o.idle, o.lag = true, time.Since(at)
				}
				tr.setOp(i)
				id := tr.begin("server.roundtrip")
				s.send(reqs, i, o)
				o.lat = time.Since(at)
				tr.end(id)
			}
		}()
	}
	wg.Wait()
}

// saturate is a closed loop: nproc senders on nproc keep-alive
// connections send reqs from lo on, cycling, each sending its next
// request as soon as its last one returned, until d has passed. It
// returns the outcomes.
func saturate(s *serveSystem, reqs []serveReq, lo int, d time.Duration) []outcome {
	var next atomic.Int64
	per := make([][]outcome, runtime.NumCPU())
	var wg sync.WaitGroup
	start := time.Now()
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				var o outcome
				s.send(reqs, (lo+int(next.Add(1))-1)%len(reqs), &o)
				o.done = time.Since(start)
				per[w] = append(per[w], o)
			}
		}()
	}
	wg.Wait()
	return slices.Concat(per...)
}

// answerKey reduces a success body to what the check compares.
func answerKey(path string, body []byte) (string, error) {
	var out any
	switch path {
	case "/v1/solve":
		var r server.SolveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return "", err
		}
		slices.Sort(r.Models)
		h := sha256.Sum256([]byte(strings.Join(r.Models, "\n")))
		out = []any{r.Count, hex.EncodeToString(h[:])}
	case "/v1/entails":
		var r server.EntailsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return "", err
		}
		out = []any{r.Entailed, r.NoModels}
	case "/v1/answers":
		var r server.AnswersResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return "", err
		}
		out = []any{r.Tuples, r.Complete}
	case "/v1/batch":
		var r server.BatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return "", err
		}
		var items []any
		for _, it := range r.Results {
			items = append(items, []any{it.Class, it.Entailed, it.NoModels, it.Tuples, it.Complete})
		}
		out = items
	default:
		return "", fmt.Errorf("unknown path %s", path)
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// replayer answers serve requests in-process, the way the daemon's
// handlers do: decode, server.Canonicalize, a compiled program per
// canonical key, the engine call, and the response encoding. Traced, it
// is the daemon's path split into spans; untraced, it computes the
// expected answers from ntgd.Solver.
type replayer struct {
	db    *database
	mu    sync.Mutex
	progs map[string]*prog
}

func newReplayer(tr *tracer, in *serveLoad) (*replayer, error) {
	p, err := ntgd.Parse(in.dbFacts)
	if err != nil {
		return nil, err
	}
	db, err := loadDatabase(tr, p.Facts)
	if err != nil {
		return nil, err
	}
	return &replayer{db: db, progs: map[string]*prog{}}, nil
}

func (rp *replayer) replay(ctx context.Context, tr *tracer, r *serveReq) ([]byte, error) {
	id := tr.begin("server.replay")
	defer tr.end(id)

	sp := tr.begin("server.decode")
	var req server.Request
	err := json.Unmarshal(r.body, &req)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("server.canonicalize")
	p, canonical, err := server.Canonicalize(req.Program)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sem := ntgd.SO
	if req.Semantics == "lp" {
		sem = ntgd.LP
	}
	key := req.Semantics + "\x00" + req.DB + "\x00" + canonical
	rp.mu.Lock()
	pr := rp.progs[key]
	rp.mu.Unlock()
	if pr == nil {
		var db *database
		if req.DB != "" {
			db = rp.db
		}
		if pr, err = compile(tr, p, sem, db, ntgd.Options{Workers: 1}); err != nil {
			return nil, err
		}
		rp.mu.Lock()
		rp.progs[key] = pr
		rp.mu.Unlock()
	}

	var payload any
	switch r.path {
	case "/v1/solve":
		maxModels := req.MaxModels
		if maxModels <= 0 || maxModels > 10000 {
			maxModels = 10000
		}
		res, err := pr.collect(ctx, tr, maxModels)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("server.emit")
		models := make([]string, len(res.Models))
		for i, m := range res.Models {
			models[i] = m.CanonicalString()
		}
		payload = server.SolveResponse{Models: models, Count: len(models), Exhausted: res.Exhausted}
	case "/v1/entails", "/v1/answers":
		as, err := rp.answer(ctx, tr, pr, []server.BatchItem{{Query: req.Query, Mode: req.Mode}})
		if err != nil {
			return nil, err
		}
		sp = tr.begin("server.emit")
		it := as[0].encode()
		if r.path == "/v1/entails" {
			payload = server.EntailsResponse{Entailed: it.Entailed, Witness: it.Witness, NoModels: it.NoModels}
		} else {
			payload = server.AnswersResponse{Tuples: it.Tuples, Complete: it.Complete}
		}
	case "/v1/batch":
		as, err := rp.answer(ctx, tr, pr, req.Queries)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("server.emit")
		items := make([]server.BatchResult, len(as))
		for i, a := range as {
			items[i] = a.encode()
		}
		payload = server.BatchResponse{Results: items}
	default:
		return nil, fmt.Errorf("unknown path %s", r.path)
	}
	b, err := json.Marshal(payload)
	tr.end(sp)
	return b, err
}

// queryAnswer is one query's outcome before the daemon renders it.
type queryAnswer struct {
	tuples   []ntgd.AnswerTuple // n-ary queries
	complete bool
	entailed bool // Boolean queries
	noModels bool
	witness  *ntgd.FactStore
	nary     bool
}

// encode renders the answer the way the daemon's handlers do.
func (a queryAnswer) encode() server.BatchResult {
	if a.nary {
		tuples := make([][]string, len(a.tuples))
		for j, t := range a.tuples {
			for _, c := range t {
				tuples[j] = append(tuples[j], c.String())
			}
		}
		return server.BatchResult{Tuples: tuples, Complete: a.complete}
	}
	r := server.BatchResult{Entailed: a.entailed, NoModels: a.noModels}
	if a.witness != nil {
		r.Witness = a.witness.CanonicalString()
	}
	return r
}

// answer runs queries against one compiled program.
func (rp *replayer) answer(ctx context.Context, tr *tracer, pr *prog, qs []server.BatchItem) ([]queryAnswer, error) {
	out := make([]queryAnswer, len(qs))
	for i, it := range qs {
		sp := tr.begin("parser.parse")
		qp, err := ntgd.Parse(it.Query)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		q := qp.Queries[0]
		mode := ntgd.Cautious
		if it.Mode == "brave" {
			mode = ntgd.Brave
		}
		if len(q.AnswerVars) > 0 {
			res, err := pr.answers(ctx, tr, q, mode)
			if err != nil {
				return nil, err
			}
			out[i] = queryAnswer{nary: true, tuples: res.Tuples, complete: res.Complete}
			continue
		}
		res, err := pr.entails(ctx, tr, q, mode)
		if err != nil {
			return nil, err
		}
		out[i] = queryAnswer{entailed: res.Entailed, noModels: res.NoModels, witness: res.Witness}
	}
	return out, nil
}

// checker compares daemon answers with the answers of in-process
// Solvers, computed once per distinct request body.
type checker struct {
	rp   *replayer
	want map[string]string
}

func newChecker(in *serveLoad) (*checker, error) {
	rp, err := newReplayer(nil, in)
	if err != nil {
		return nil, err
	}
	return &checker{rp: rp, want: map[string]string{}}, nil
}

// check compares every answered request with the in-process answer,
// recording a mismatch as the request's error, and returns the number of
// failed requests.
func (c *checker) check(ctx context.Context, reqs []serveReq, outs []outcome, stderr io.Writer) (int, error) {
	failed := 0
	for k := range outs {
		o := &outs[k]
		if o.err == nil {
			r := &reqs[o.req]
			w, ok := c.want[string(r.body)]
			if !ok {
				b, err := c.rp.replay(ctx, nil, r)
				if err != nil {
					return 0, fmt.Errorf("in-process answer of request %d: %w", o.req, err)
				}
				if w, err = answerKey(r.path, b); err != nil {
					return 0, err
				}
				c.want[string(r.body)] = w
			}
			if o.answer != w {
				o.err = fmt.Errorf("%s: daemon answered %s, in-process %s", r.path, o.answer, w)
			}
		}
		if o.err != nil {
			failed++
			if failed <= 3 {
				fmt.Fprintf(stderr, "perfbench: request %d: %v\n", o.req, o.err)
			}
		}
	}
	return failed, nil
}

// setupServe starts cfg.setups daemons one after another, keeping the
// last, and returns it with the median set-up time.
func setupServe(in *serveLoad, setups int) (*serveSystem, time.Duration, error) {
	var s *serveSystem
	times := make([]time.Duration, setups)
	for k := range times {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = startServe(in); err != nil {
			return nil, 0, err
		}
		times[k] = time.Since(t0)
	}
	return s, median(times), nil
}

// genLags returns the sorted lateness of the senders that waited for a
// request's due time.
func genLags(outs []outcome) []time.Duration {
	var lags []time.Duration
	for _, o := range outs {
		if o.idle {
			lags = append(lags, o.lag)
		}
	}
	slices.Sort(lags)
	return lags
}

// windowCounts cuts a capacity segment of length d into
// capacityWindows windows and counts the requests answered correctly in
// each.
func windowCounts(outs []outcome, d time.Duration) []int {
	counts := make([]int, capacityWindows)
	for _, o := range outs {
		if k := int(o.done * capacityWindows / d); o.err == nil && k < capacityWindows {
			counts[k]++
		}
	}
	return counts
}

// measureServe alternates serveSegments open-loop segments at serveRate,
// which give every metric but ops_per_s, with capacity segments, which
// give ops_per_s. Spreading both over the run keeps a burst of noise
// from the rest of the machine from landing on one of them alone.
func measureServe(ctx context.Context, cfg config, stderr io.Writer) (*report, error) {
	in := newServeLoad(cfg.seed, cfg.seconds)
	s, setup, err := setupServe(in, cfg.setups)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := s.encode(in.nominal); err != nil {
		return nil, err
	}

	n := len(in.nominal)
	outs := make([]outcome, n)
	capOuts := make([][]outcome, serveSegments)
	var peaks []uint64
	var cpu time.Duration
	capSeg := seconds(cfg.seconds * serveCapacityShare / serveSegments)
	for k := range serveSegments {
		lo, hi := in.segment(k)
		runtime.GC()
		heap := watchHeap()
		c0 := cpuTime()
		drive(s, in.nominal, in.due, lo, hi, outs, nil)
		cpu += cpuTime() - c0
		peaks = append(peaks, heap.end()...)
		// The capacity segment re-sends this segment's requests, whose
		// programs the daemon has compiled by now.
		capOuts[k] = saturate(s, in.nominal, lo, capSeg)
	}

	ck, err := newChecker(in)
	if err != nil {
		return nil, err
	}
	failed, err := ck.check(ctx, in.nominal, outs, stderr)
	if err != nil {
		return nil, err
	}
	attempted := n
	var counts []int
	for _, o := range capOuts {
		f, err := ck.check(ctx, in.nominal, o, stderr)
		if err != nil {
			return nil, err
		}
		failed += f
		attempted += len(o)
		counts = append(counts, windowCounts(o, capSeg)...)
	}

	lats := make([]time.Duration, n)
	for i, o := range outs {
		lats[i] = o.lat
		if o.err != nil {
			lats[i] = time.Hour // a failed request misses every limit
		}
	}
	sorted := slices.Clone(lats)
	slices.Sort(sorted)
	rate := float64(median(counts)) * capacityWindows / capSeg.Seconds()
	fmt.Fprintf(stderr, "perfbench: %d requests at %.0f rps, p98 of a segment has %d samples beyond it, generator lag p99 %v; capacity %.0f rps over %d requests\n",
		n, serveRate, n/4-int(0.98*float64(n/4)), quantile(genLags(outs), 0.99), rate, attempted-n)
	return &report{
		attempted: attempted,
		failed:    failed,
		metrics: map[string]metric{
			"setup_s":       {setup.Seconds(), "s"},
			"op_p50_ms":     {ms(quantile(sorted, 0.5)), "ms"},
			"op_tail_ms":    {ms(quarterTail(lats, 0.98)), "ms"},
			"ops_per_s":     {rate, "1/s"},
			"cpu_ms_per_op": {ms(cpu) / float64(n), "ms"},
			"heap_peak_mb":  {float64(median(peaks)) / (1 << 20), "MB"},
		},
	}, nil
}

// tracedServe runs the open-loop segments twice, back to back, untraced
// and then traced, each time against a fresh daemon.
func tracedServe(ctx context.Context, cfg config, stderr io.Writer) (*report, error) {
	in := newServeLoad(cfg.seed, cfg.seconds)
	n := len(in.nominal)

	s, err := startServe(in)
	if err != nil {
		return nil, err
	}
	st0, err := s.cacheStats()
	if err == nil {
		err = s.encode(in.nominal)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	runtime.GC()
	rt0 := readRuntime()
	plain := make([]outcome, n)
	for k := range serveSegments {
		lo, hi := in.segment(k)
		drive(s, in.nominal, in.due, lo, hi, plain, nil)
	}
	rt := readRuntime().sub(rt0)
	st1, err := s.cacheStats()
	s.close()
	if err != nil {
		return nil, err
	}

	// The same requests against a fresh daemon, then each one replayed
	// in-process. Replaying after the run keeps the replays' CPU time out
	// of the round trips they are compared with.
	setupTr := newTracer(time.Now())
	rp, err := newReplayer(setupTr, in)
	if err != nil {
		return nil, err
	}
	if s, err = startServe(in); err != nil {
		return nil, err
	}
	tracers := make([]*tracer, runtime.NumCPU())
	for i := range tracers {
		tracers[i] = newTracer(setupTr.t0)
	}
	runtime.GC()
	traced := make([]outcome, n)
	for k := range serveSegments {
		lo, hi := in.segment(k)
		drive(s, in.nominal, in.due, lo, hi, traced, tracers)
	}
	s.close()
	replayTr := newTracer(setupTr.t0)
	for i := range traced {
		replayTr.setOp(i)
		if _, err := rp.replay(ctx, replayTr, &in.nominal[i]); err != nil && traced[i].err == nil {
			traced[i].err = fmt.Errorf("replay: %w", err)
		}
	}
	tr := merge(append([]*tracer{setupTr, replayTr}, tracers...)...)
	if err := writeSpans(cfg.traceOut, tr.spans); err != nil {
		return nil, err
	}
	printSelfTimes(stderr, tr.spans)

	ck, err := newChecker(in)
	if err != nil {
		return nil, err
	}
	failed := 0
	for _, outs := range [][]outcome{plain, traced} {
		f, err := ck.check(ctx, in.nominal, outs, stderr)
		if err != nil {
			return nil, err
		}
		failed += f
	}
	var plainTime, tracedTime time.Duration
	for i := range plain {
		plainTime += plain[i].lat
		tracedTime += traced[i].lat
	}
	return &report{
		attempted: 2 * n,
		failed:    failed,
		metrics: layerMetrics(layerInputs{
			tr:           tr,
			ops:          n,
			opTime:       tracedTime,
			untracedOps:  n,
			untracedTime: plainTime,
			rt:           rt,
			lagP99:       quantile(genLags(plain), 0.99),
			cacheHits:    st1.Hits - st0.Hits,
			cacheMisses:  st1.Misses - st0.Misses,
			compiles:     st1.Compiles - st0.Compiles,
		}),
	}, nil
}
