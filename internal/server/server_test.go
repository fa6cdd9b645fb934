package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"ntgd"
)

const subsetSrc = `item(i0). item(i1). item(i2). item(i3).
item(X), not out(X) -> in(X).
item(X), not in(X) -> out(X).
`

// bigSubsetSrc spans 2^24 models: no request-scale deadline can see the
// end of a cautious enumeration over it, making timeout behaviour
// deterministic to test.
func bigSubsetSrc() string {
	var b bytes.Buffer
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&b, "item(i%d).\n", i)
	}
	b.WriteString("item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n")
	return b.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// post sends one request and decodes the response body into out.
func post(t *testing.T, base, path string, req Request, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decoding body: %v", path, err)
	}
	return resp.StatusCode
}

// directModels enumerates the canonical program's models outside the
// daemon, as the ground truth the HTTP responses must match.
func directModels(t *testing.T, src string) []string {
	t.Helper()
	prog, _, err := Canonicalize(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ntgd.Compile(prog, ntgd.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for m, err := range s.Models(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m.CanonicalString())
	}
	sort.Strings(out)
	return out
}

// TestServerEndToEnd pins the core acceptance: concurrent clients
// running a mix of solve, entails, answers, consistent, and batch
// against one cached program all get exactly the answers a direct
// Solver gives.
func TestServerEndToEnd(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxConcurrentRuns: 8})
	want := directModels(t, subsetSrc)

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch (c + i) % 5 {
				case 0:
					var res SolveResponse
					if code := post(t, hs.URL, "/v1/solve", Request{Program: subsetSrc}, &res); code != http.StatusOK {
						t.Errorf("solve: status %d", code)
						return
					}
					got := append([]string(nil), res.Models...)
					sort.Strings(got)
					if len(got) != len(want) {
						t.Errorf("solve: %d models, want %d", len(got), len(want))
						return
					}
					for j := range got {
						if got[j] != want[j] {
							t.Errorf("solve: model %d = %q, want %q", j, got[j], want[j])
							return
						}
					}
				case 1:
					var res EntailsResponse
					if code := post(t, hs.URL, "/v1/entails", Request{
						Program: subsetSrc, Query: "?- in(i0).", Mode: "brave",
					}, &res); code != http.StatusOK || !res.Entailed {
						t.Errorf("brave entails = (%d, %v), want (200, true)", code, res.Entailed)
					}
				case 2:
					var res EntailsResponse
					if code := post(t, hs.URL, "/v1/entails", Request{
						Program: subsetSrc, Query: "?- in(i0).", Mode: "cautious",
					}, &res); code != http.StatusOK || res.Entailed {
						t.Errorf("cautious entails = (%d, %v), want (200, false)", code, res.Entailed)
					}
				case 3:
					var res AnswersResponse
					if code := post(t, hs.URL, "/v1/answers", Request{
						Program: subsetSrc, Query: "?-[X] in(X).", Mode: "brave",
					}, &res); code != http.StatusOK || !res.Complete || len(res.Tuples) != 4 {
						t.Errorf("answers = (%d, complete=%v, %d tuples), want (200, true, 4)",
							code, res.Complete, len(res.Tuples))
					}
				case 4:
					var res BatchResponse
					code := post(t, hs.URL, "/v1/batch", Request{
						Program: subsetSrc,
						Queries: []BatchItem{
							{Query: "?- in(i0).", Mode: "brave"},
							{Query: "?- in(i0), out(i0).", Mode: "brave"},
							{Query: "?-[X] item(X).", Mode: "cautious"},
						},
					}, &res)
					if code != http.StatusOK || len(res.Results) != 3 {
						t.Errorf("batch: status %d, %d results", code, len(res.Results))
						return
					}
					if !res.Results[0].Entailed || res.Results[0].Error != "" {
						t.Errorf("batch[0] = %+v, want entailed", res.Results[0])
					}
					if res.Results[1].Entailed {
						t.Errorf("batch[1]: in&out of one item cannot be bravely entailed")
					}
					if len(res.Results[2].Tuples) != 4 || !res.Results[2].Complete {
						t.Errorf("batch[2] = %+v, want 4 complete tuples", res.Results[2])
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// All that traffic shared one compiled entry.
	var stz Statz
	resp, err := http.Get(hs.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stz); err != nil {
		t.Fatal(err)
	}
	if stz.Cache.Compiles != 1 {
		t.Errorf("compiles = %d, want 1 (all clients share one canonical program)", stz.Cache.Compiles)
	}
	if stz.Cache.Hits == 0 {
		t.Error("cache hits = 0, want many")
	}
}

// TestServerConsistent covers /v1/consistent for both verdicts.
func TestServerConsistent(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	var res ConsistentResponse
	if code := post(t, hs.URL, "/v1/consistent", Request{Program: subsetSrc}, &res); code != http.StatusOK || !res.Consistent {
		t.Fatalf("consistent = (%d, %v), want (200, true)", code, res.Consistent)
	}
	if code := post(t, hs.URL, "/v1/consistent", Request{
		Program: "p(a).\np(X) -> q(X).\n:- q(a).\n",
	}, &res); code != http.StatusOK || res.Consistent {
		t.Fatalf("inconsistent program = (%d, %v), want (200, false)", code, res.Consistent)
	}
}

// TestServerDeadline pins the timeout contract: a request whose
// deadline expires mid-search answers 504 with class "timeout" and the
// partial stats the run accumulated.
func TestServerDeadline(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	var res ErrorResponse
	code := post(t, hs.URL, "/v1/entails", Request{
		Program:   bigSubsetSrc(),
		Query:     "?- item(i0).",
		Mode:      "cautious",
		TimeoutMS: 150,
	}, &res)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", code)
	}
	if res.Class != ClassTimeout {
		t.Fatalf("class = %q, want %q", res.Class, ClassTimeout)
	}
	if res.Stats.Nodes == 0 {
		t.Error("timeout response carries no partial stats")
	}
	if !res.Exhausted {
		t.Error("timed-out run must report exhausted")
	}
}

// TestServerTimeoutClamp pins MaxTimeout: a request asking for a huge
// (or absent) deadline is clamped to the server maximum.
func TestServerTimeoutClamp(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxTimeout: 150 * time.Millisecond})
	var res ErrorResponse
	start := time.Now()
	code := post(t, hs.URL, "/v1/entails", Request{
		Program: bigSubsetSrc(),
		Query:   "?- item(i0).",
		Mode:    "cautious",
		// No timeout_ms: the clamp must still apply.
	}, &res)
	if code != http.StatusGatewayTimeout || res.Class != ClassTimeout {
		t.Fatalf("status/class = %d/%q, want 504/timeout", code, res.Class)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request ran %v; the 150ms clamp did not apply", elapsed)
	}
}

// TestServerAdmission holds the daemon's only admission slot directly
// and asserts a queued request whose deadline expires first is refused
// with 429/admission — and that the identical request succeeds once the
// slot frees.
func TestServerAdmission(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxConcurrentRuns: 1})
	if err := srv.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	req := Request{Program: subsetSrc, Query: "?- in(i0).", Mode: "brave", TimeoutMS: 100}
	var errRes ErrorResponse
	if code := post(t, hs.URL, "/v1/entails", req, &errRes); code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", code)
	}
	if errRes.Class != ClassAdmission {
		t.Fatalf("class = %q, want %q", errRes.Class, ClassAdmission)
	}
	srv.gate.Release()
	var ok EntailsResponse
	if code := post(t, hs.URL, "/v1/entails", req, &ok); code != http.StatusOK || !ok.Entailed {
		t.Fatalf("post-release entails = (%d, %v), want (200, true)", code, ok.Entailed)
	}
}

// TestServerBatchDeadline pins the batch tail contract: once the batch
// deadline expires, remaining items are marked timed out rather than
// silently dropped, and the batch itself still answers 200.
func TestServerBatchDeadline(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	items := []BatchItem{
		{Query: "?- item(i0).", Mode: "cautious"}, // will hit the deadline
		{Query: "?- item(i0).", Mode: "brave"},    // never runs
		{Query: "?- item(i1).", Mode: "brave"},    // never runs
	}
	var res BatchResponse
	code := post(t, hs.URL, "/v1/batch", Request{
		Program: bigSubsetSrc(), Queries: items, TimeoutMS: 150,
	}, &res)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (item errors do not fail the batch)", code)
	}
	if len(res.Results) != 3 {
		t.Fatalf("%d results, want 3", len(res.Results))
	}
	if res.Results[0].Class != ClassTimeout {
		t.Errorf("results[0].class = %q, want timeout", res.Results[0].Class)
	}
	for i := 1; i < 3; i++ {
		if res.Results[i].Class != ClassTimeout || res.Results[i].Error == "" {
			t.Errorf("results[%d] = %+v, want marked timed out", i, res.Results[i])
		}
	}
}

// TestServerBadRequests pins the 400 surface: malformed bodies, missing
// programs, parse failures, unknown semantics/modes, n-ary queries on
// /v1/entails-style endpoints.
func TestServerBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	cases := []struct {
		name string
		path string
		req  Request
	}{
		{"missing program", "/v1/solve", Request{}},
		{"program parse error", "/v1/solve", Request{Program: "p(."}},
		{"unknown semantics", "/v1/solve", Request{Program: subsetSrc, Semantics: "zf"}},
		{"missing query", "/v1/entails", Request{Program: subsetSrc}},
		{"query parse error", "/v1/entails", Request{Program: subsetSrc, Query: "?- in("}},
		{"unknown mode", "/v1/entails", Request{Program: subsetSrc, Query: "?- in(i0).", Mode: "bold"}},
		{"boolean query on answers", "/v1/answers", Request{Program: subsetSrc, Query: "?- in(i0)."}},
		{"empty batch", "/v1/batch", Request{Program: subsetSrc}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var res ErrorResponse
			if code := post(t, hs.URL, tc.path, tc.req, &res); code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", code)
			}
			if res.Class != ClassBadRequest {
				t.Fatalf("class = %q, want bad_request", res.Class)
			}
		})
	}

	// Non-POST and malformed JSON travel the same surface.
	resp, err := http.Get(hs.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(hs.URL+"/v1/solve", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// TestStatusFor is the table pinning every errors.Is class of the
// taxonomy onto its documented HTTP status — satellite #3. The
// composite cases mirror how the engine actually wraps causes
// (admission carries the context cause; wall-clock is a budget).
func TestStatusFor(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		class  string
	}{
		{"budget", ntgd.ErrBudget, http.StatusUnprocessableEntity, ClassBudget},
		{"wall-clock is a budget", ntgd.ErrWallClock, http.StatusUnprocessableEntity, ClassBudget},
		{"wrapped budget", fmt.Errorf("run: %w", ntgd.ErrBudget), http.StatusUnprocessableEntity, ClassBudget},
		{"memory", ntgd.ErrMemory, http.StatusInsufficientStorage, ClassMemory},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, ClassTimeout},
		{"cancel", context.Canceled, http.StatusGatewayTimeout, ClassTimeout},
		{"admission", ntgd.ErrAdmission, http.StatusTooManyRequests, ClassAdmission},
		{
			// The real shape: the gate refusal wraps the context cause,
			// and admission must win over the timeout class.
			"admission carrying context cause",
			fmt.Errorf("%w: %w", ntgd.ErrAdmission, context.DeadlineExceeded),
			http.StatusTooManyRequests, ClassAdmission,
		},
		{"internal", ntgd.ErrInternal, http.StatusInternalServerError, ClassInternal},
		{
			// Error priority internal > context (PR 7).
			"internal wins over cancel",
			fmt.Errorf("%w after %w", ntgd.ErrInternal, context.Canceled),
			http.StatusInternalServerError, ClassInternal,
		},
		{"unclassified", errors.New("boom"), http.StatusInternalServerError, ClassError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, class := statusFor(tc.err)
			if status != tc.status || class != tc.class {
				t.Fatalf("statusFor(%v) = (%d, %q), want (%d, %q)",
					tc.err, status, class, tc.status, tc.class)
			}
		})
	}
}

// TestServerDrain pins the drain contract: after StartDrain, /healthz
// flips to 503, new API requests are refused with 503/draining, and
// the state is visible in /statz.
func TestServerDrain(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d, want 200", resp.StatusCode)
	}

	srv.StartDrain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after StartDrain")
	}
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
	}
	var errRes ErrorResponse
	if code := post(t, hs.URL, "/v1/solve", Request{Program: subsetSrc}, &errRes); code != http.StatusServiceUnavailable {
		t.Fatalf("solve during drain: %d, want 503", code)
	}
	if errRes.Class != ClassDraining {
		t.Fatalf("class = %q, want draining", errRes.Class)
	}
}

// TestServerStatz sanity-checks the counters a fresh server reports
// after a little traffic.
func TestServerStatz(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	var solve SolveResponse
	if code := post(t, hs.URL, "/v1/solve", Request{Program: subsetSrc}, &solve); code != http.StatusOK {
		t.Fatalf("solve: %d", code)
	}
	var errRes ErrorResponse
	if code := post(t, hs.URL, "/v1/solve", Request{}, &errRes); code != http.StatusBadRequest {
		t.Fatalf("bad solve: %d", code)
	}

	resp, err := http.Get(hs.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stz Statz
	if err := json.NewDecoder(resp.Body).Decode(&stz); err != nil {
		t.Fatal(err)
	}
	if stz.Requests["solve"] != 2 {
		t.Errorf("requests[solve] = %d, want 2", stz.Requests["solve"])
	}
	if stz.Errors[ClassBadRequest] != 1 {
		t.Errorf("errors[bad_request] = %d, want 1", stz.Errors[ClassBadRequest])
	}
	if stz.Engine.Nodes == 0 {
		t.Error("engine.nodes = 0 after a full solve")
	}
	if stz.Cache.Entries != 1 {
		t.Errorf("cache.entries = %d, want 1", stz.Cache.Entries)
	}
}

// TestServerGroundingBudget: an LP program whose grounding outgrows its
// budget (nested Skolem terms whose keys grow quadratically) answers
// 422/budget instead of taking the daemon down, and the daemon keeps
// serving.
func TestServerGroundingBudget(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	var er ErrorResponse
	code := post(t, hs.URL, "/v1/entails", Request{
		Program:   "p(a). p(X) -> q(X,Y). q(X,Y) -> p(Y).",
		Semantics: "lp",
		Query:     "?- p(a).",
	}, &er)
	if code != http.StatusUnprocessableEntity || er.Class != ClassBudget {
		t.Fatalf("status = %d class = %q (%s), want 422 %q", code, er.Class, er.Error, ClassBudget)
	}
	var res EntailsResponse
	if code := post(t, hs.URL, "/v1/entails", Request{Program: subsetSrc, Semantics: "lp", Query: "?- item(i0)."}, &res); code != http.StatusOK || !res.Entailed {
		t.Fatalf("after the budget error: status %d, entailed %v", code, res.Entailed)
	}
}
