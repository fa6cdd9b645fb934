// Wire types of the ntgdd /v1 API. This file is the one definition of
// the request and response schema: the daemon (internal/server) names
// these same types through aliases, so the two sides cannot drift. The
// JSON tags are the contract. The package imports only the standard
// library, so the daemon takes on no dependency by sharing them.
package ntgdclient

// Request is the JSON body shared by the POST endpoints. Endpoints
// ignore the fields they do not use.
type Request struct {
	// Program is the program source in the surface syntax. Required by
	// every POST endpoint except /v1/db. Programs are cached by
	// canonical form: two submissions that differ only in whitespace,
	// comments, fact order, rule order, or duplicated facts/rules share
	// one compiled entry (and therefore return identical answers — the
	// daemon always evaluates the canonical form).
	Program string `json:"program,omitempty"`
	// Semantics selects the semantics: "so" (default), "lp", or "op".
	Semantics string `json:"semantics,omitempty"`
	// DB references a fact base previously uploaded via POST /v1/db by
	// its content-addressed handle. The uploaded facts become the
	// compiled program's root database (with Program's own facts, if
	// any, layered on top), so a large extensional database crosses the
	// wire and is loaded once, however many requests query it. An
	// unknown or evicted handle answers 404/not_found.
	DB string `json:"db,omitempty"`
	// Facts is the fact source for POST /v1/db: facts only, no rules
	// or queries. Other endpoints ignore it.
	Facts string `json:"facts,omitempty"`
	// Query is the query in surface syntax ("?- p(X), not q(X)."),
	// required by /v1/entails and /v1/answers.
	Query string `json:"query,omitempty"`
	// Mode is "cautious" (default) or "brave".
	Mode string `json:"mode,omitempty"`
	// MaxModels bounds the models returned by /v1/solve (0 = all,
	// subject to the server's cap).
	MaxModels int `json:"max_models,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds. 0 uses the
	// server default; values above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Queries is the batch payload of /v1/batch: each item runs against
	// the same compiled program, amortizing the compile, the budget
	// probe and the frozen run root across the whole batch.
	Queries []BatchItem `json:"queries,omitempty"`
}

// BatchItem is one query of a /v1/batch request.
type BatchItem struct {
	// Query is the query in surface syntax.
	Query string `json:"query"`
	// Mode is "cautious" (default) or "brave".
	Mode string `json:"mode,omitempty"`
}

// Stats is the engine-effort block attached to every response: the
// wire form of ntgd.Stats.
type Stats struct {
	Nodes           int64 `json:"nodes"`
	Branches        int64 `json:"branches"`
	Deterministic   int64 `json:"deterministic"`
	Completed       int64 `json:"completed"`
	StabilityChecks int64 `json:"stability_checks"`
	StabilityFailed int64 `json:"stability_failed"`
	ModelsEmitted   int64 `json:"models_emitted"`
	Conflicts       int64 `json:"conflicts"`
}

// SolveResponse is the /v1/solve success body.
type SolveResponse struct {
	// Models are the stable models, each rendered canonically.
	Models []string `json:"models"`
	Count  int      `json:"count"`
	// Exhausted reports a possibly incomplete enumeration (the
	// MaxModels cap stopped it early).
	Exhausted bool  `json:"exhausted"`
	Stats     Stats `json:"stats"`
}

// EntailsResponse is the /v1/entails success body.
type EntailsResponse struct {
	Entailed bool `json:"entailed"`
	// Witness is a witnessing model (brave, entailed) or counter-model
	// (cautious, not entailed), canonically rendered; empty otherwise.
	Witness string `json:"witness,omitempty"`
	// NoModels reports an empty stable model set (cautious entailment
	// is then vacuous, brave entailment false).
	NoModels  bool  `json:"no_models"`
	Exhausted bool  `json:"exhausted"`
	Stats     Stats `json:"stats"`
}

// AnswersResponse is the /v1/answers success body.
type AnswersResponse struct {
	// Tuples are the answer tuples, each a list of constant renderings.
	Tuples [][]string `json:"tuples"`
	// Complete is false when the answer set is ill-defined or the
	// enumeration was incomplete.
	Complete bool  `json:"complete"`
	Stats    Stats `json:"stats"`
}

// ConsistentResponse is the /v1/consistent success body.
type ConsistentResponse struct {
	Consistent bool `json:"consistent"`
}

// DBResponse is the /v1/db success body. Handle is the
// content-addressed name of the canonicalized fact set (sorted,
// deduplicated): uploading the same facts again — in any order, with
// any formatting — yields the same handle.
type DBResponse struct {
	Handle string `json:"handle"`
	// Facts is the number of distinct facts loaded.
	Facts int `json:"facts"`
}

// BatchResponse is the /v1/batch success body. The batch succeeds as a
// whole (200) even when individual items hit taxonomy errors; each
// item records its own outcome.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	// Stats aggregates the engine effort of every item.
	Stats Stats `json:"stats"`
}

// BatchResult is the outcome of one batch item: exactly one of the
// Error or the payload fields is meaningful, discriminated by Error
// being empty.
type BatchResult struct {
	// Error is empty on success; otherwise the error message.
	Error string `json:"error,omitempty"`
	// Class names the taxonomy class of Error ("budget", "timeout",
	// "memory", "admission", "internal", "bad_request", "error").
	Class string `json:"class,omitempty"`
	// Entailed/Witness/NoModels answer a Boolean query.
	Entailed bool   `json:"entailed,omitempty"`
	Witness  string `json:"witness,omitempty"`
	NoModels bool   `json:"no_models,omitempty"`
	// Tuples/Complete answer an n-ary query.
	Tuples   [][]string `json:"tuples,omitempty"`
	Complete bool       `json:"complete,omitempty"`
	Stats    Stats      `json:"stats"`
}

// ErrorResponse is the body of every non-2xx response. The client
// surfaces it to callers as *APIError.
type ErrorResponse struct {
	Error string `json:"error"`
	// Class is the taxonomy class: "bad_request", "not_found",
	// "request_too_large", "budget", "timeout", "memory", "admission",
	// "internal", "draining", "overloaded", or "error".
	Class string `json:"class"`
	// Stats is the partial effort the run accumulated before stopping
	// (zero for errors raised before the engine ran).
	Stats Stats `json:"stats"`
	// Exhausted mirrors the Solver's flag: the run stopped before the
	// enumeration was provably complete.
	Exhausted bool `json:"exhausted"`
	// RetryAfterMS is the server's backoff hint in milliseconds,
	// present exactly on the retryable refusals (429 and 503) and
	// mirrored — rounded up to whole seconds — by the Retry-After
	// header. Zero on every other error.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}
