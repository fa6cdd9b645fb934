// Package ntgdclient is the Go client for the ntgdd daemon's /v1
// HTTP/JSON API, with overload-aware retries built in.
//
// The daemon sheds load instead of parking it (see internal/server and
// the root package's Overload section): under pressure it answers 429
// or 503 immediately, carrying retry guidance in the Retry-After
// header and the retry_after_ms body field. This client completes the
// contract on the caller's side:
//
//   - 429 (admission refused), 503 (draining or brownout), 504
//     (deadline expired), and transport errors are retried with capped
//     exponential backoff and full jitter, sleeping at least the
//     server's Retry-After hint when one is present;
//   - 400, 404, 413, 422, 500, and 507 are never retried: daemon
//     responses are a pure function of the canonical program, so an
//     unchanged request cannot do better — 404 needs a re-upload, 413
//     a smaller body, the rest a different program or budget;
//   - every call has a retry budget (RetryPolicy.Budget) so a client
//     cannot amplify an outage by retrying forever.
//
// Failures surface as *APIError carrying the HTTP status, taxonomy
// class, the server's partial Stats, and the attempt count.
//
//	c := ntgdclient.New("http://127.0.0.1:8377")
//	res, err := c.Solve(ctx, ntgdclient.Request{Program: "p :- not q."})
package ntgdclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// RetryPolicy bounds the client's retry behavior. The zero value is
// replaced by the documented defaults field by field.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4; 1 disables retries, negative is treated as 1).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff ceiling; attempt n's
	// ceiling is BaseBackoff·2^(n-1), capped by MaxBackoff, and the
	// actual sleep is uniform in [0, ceiling] (full jitter) — then
	// raised to the server's Retry-After hint if that is larger.
	// Default 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps a single backoff sleep (default 5s).
	MaxBackoff time.Duration
	// Budget caps the total time a call may spend across attempts and
	// backoff sleeps; once the next sleep would cross it, the last
	// error is returned instead. Default 30s; negative disables the
	// budget.
	Budget time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.Budget == 0 {
		p.Budget = 30 * time.Second
	}
	return p
}

// APIError is a non-2xx daemon response (or, with Status 0, a
// transport failure that exhausted its retries). It reports the state
// of the final attempt.
type APIError struct {
	// Status is the HTTP status code (0 for transport errors).
	Status int
	// Class is the body's taxonomy class ("admission", "budget",
	// "overloaded", ...), empty for transport errors.
	Class string
	// Message is the server's error text (or the transport error).
	Message string
	// RetryAfter is the server's backoff hint (0 when absent).
	RetryAfter time.Duration
	// Stats is the partial effort of the final attempt's run.
	Stats Stats
	// Exhausted mirrors the error body's flag.
	Exhausted bool
	// Attempts is how many times the request was sent.
	Attempts int
	cause    error
}

func (e *APIError) Error() string {
	if e.Status == 0 {
		return fmt.Sprintf("ntgdclient: %s (after %d attempts)", e.Message, e.Attempts)
	}
	return fmt.Sprintf("ntgdclient: %d %s: %s (after %d attempts)", e.Status, e.Class, e.Message, e.Attempts)
}

func (e *APIError) Unwrap() error { return e.cause }

// Retryable reports whether the failure is of a kind the client
// retries: shed/overload refusals (429, 503), expired deadlines (504),
// and transport errors. Deterministic failures (400, 404, 413, 422,
// 500, 507) are not.
func (e *APIError) Retryable() bool { return retryableStatus(e.Status) }

func retryableStatus(status int) bool {
	switch status {
	case 0, http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	default:
		return false
	}
}

// Client talks to one ntgdd daemon. It is safe for concurrent use.
type Client struct {
	base  string
	httpc *http.Client
	retry RetryPolicy

	// sleep and jitter are the retry loop's clock and randomness,
	// injectable so the policy tests run instantly and
	// deterministically.
	sleep  func(context.Context, time.Duration) error
	jitter func() float64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default
// http.DefaultClient; per-call deadlines come from the context, so the
// default client's lack of a global timeout is fine).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpc = h } }

// WithRetryPolicy substitutes the retry policy.
func WithRetryPolicy(p RetryPolicy) Option { return func(c *Client) { c.retry = p } }

// withClock injects the retry loop's sleep and jitter source — the
// test seam; not exported because production callers have no business
// replacing time.
func withClock(sleep func(context.Context, time.Duration) error, jitter func() float64) Option {
	return func(c *Client) { c.sleep, c.jitter = sleep, jitter }
}

// New builds a Client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8377").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:  strings.TrimRight(baseURL, "/"),
		httpc: http.DefaultClient,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return context.Cause(ctx)
			case <-t.C:
				return nil
			}
		},
		jitter: rand.Float64,
	}
	for _, o := range opts {
		o(c)
	}
	c.retry = c.retry.withDefaults()
	return c
}

// Solve enumerates stable models.
func (c *Client) Solve(ctx context.Context, req Request) (*SolveResponse, error) {
	out := &SolveResponse{}
	return out, c.post(ctx, "/v1/solve", req, out)
}

// Entails answers one Boolean query.
func (c *Client) Entails(ctx context.Context, req Request) (*EntailsResponse, error) {
	out := &EntailsResponse{}
	return out, c.post(ctx, "/v1/entails", req, out)
}

// Answers answers one n-ary query.
func (c *Client) Answers(ctx context.Context, req Request) (*AnswersResponse, error) {
	out := &AnswersResponse{}
	return out, c.post(ctx, "/v1/answers", req, out)
}

// Consistent checks consistency.
func (c *Client) Consistent(ctx context.Context, req Request) (*ConsistentResponse, error) {
	out := &ConsistentResponse{}
	return out, c.post(ctx, "/v1/consistent", req, out)
}

// Batch runs many queries against one compiled program.
func (c *Client) Batch(ctx context.Context, req Request) (*BatchResponse, error) {
	out := &BatchResponse{}
	return out, c.post(ctx, "/v1/batch", req, out)
}

// UploadDB uploads a fact base and returns its content-addressed
// handle for later Requests' DB field.
func (c *Client) UploadDB(ctx context.Context, facts string) (*DBResponse, error) {
	out := &DBResponse{}
	return out, c.post(ctx, "/v1/db", Request{Facts: facts}, out)
}

// post is the retry loop every endpoint shares.
func (c *Client) post(ctx context.Context, path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("ntgdclient: encoding request: %w", err)
	}
	start := time.Now()
	var last *APIError
	for attempt := 1; ; attempt++ {
		apiErr := c.once(ctx, path, body, out)
		if apiErr == nil {
			return nil
		}
		apiErr.Attempts = attempt
		last = apiErr
		if !apiErr.Retryable() || attempt >= c.retry.MaxAttempts {
			return last
		}
		if err := context.Cause(ctx); err != nil {
			// The caller's deadline ended the last attempt; a retry
			// would fail the same way instantly.
			return last
		}
		d := c.backoff(attempt, apiErr.RetryAfter)
		if c.retry.Budget > 0 && time.Since(start)+d > c.retry.Budget {
			return last
		}
		if err := c.sleep(ctx, d); err != nil {
			return last
		}
	}
}

// backoff computes the sleep before retry number attempt: full jitter
// over an exponentially growing, capped ceiling, floored by the
// server's hint.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	ceiling := c.retry.BaseBackoff << (attempt - 1)
	if ceiling > c.retry.MaxBackoff || ceiling <= 0 {
		ceiling = c.retry.MaxBackoff
	}
	d := time.Duration(c.jitter() * float64(ceiling))
	if hint > d {
		d = hint
	}
	return d
}

// once performs one HTTP exchange. nil means success (out is filled);
// otherwise the returned *APIError has everything but Attempts set.
func (c *Client) once(ctx context.Context, path string, body []byte, out any) *APIError {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return &APIError{Message: err.Error(), cause: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(hreq)
	if err != nil {
		return &APIError{Message: err.Error(), cause: err}
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return &APIError{Message: "decoding response: " + err.Error(), cause: err}
		}
		return nil
	}
	apiErr := &APIError{Status: resp.StatusCode}
	var eresp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err == nil {
		apiErr.Class = eresp.Class
		apiErr.Message = eresp.Error
		apiErr.Stats = eresp.Stats
		apiErr.Exhausted = eresp.Exhausted
		apiErr.RetryAfter = time.Duration(eresp.RetryAfterMS) * time.Millisecond
	} else {
		apiErr.Message = resp.Status
	}
	if apiErr.RetryAfter <= 0 {
		// Fall back to the coarser header (whole seconds).
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// AsAPIError unwraps err to the *APIError the client produced, if any.
func AsAPIError(err error) (*APIError, bool) {
	var ae *APIError
	ok := errors.As(err, &ae)
	return ae, ok
}
