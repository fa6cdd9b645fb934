// The wire schema and the error-taxonomy → HTTP status mapping of the
// ntgdd daemon. The schema's types live in the ntgdclient package and
// are aliased below. The mapping mirrors the ntgdctl exit-code
// contract (see cmd/ntgdctl) so scripts and services dispatch the same
// classes over both transports:
//
//	200 OK                    success (entire request completed)
//	400 Bad Request           parse/validation/usage errors
//	404 Not Found             unknown db handle: the referenced fact
//	                          base was never uploaded to /v1/db or has
//	                          been evicted from the LRU-bounded db
//	                          cache — re-upload and retry
//	413 Content Too Large     the request body exceeded the server's
//	                          MaxBodyBytes cap (class
//	                          "request_too_large"); unlike 400 this is
//	                          a distinct class so clients can split or
//	                          shrink the payload instead of treating it
//	                          as a syntax error — it is never retried
//	                          as-is
//	422 Unprocessable Entity  budget exhausted: the search's nodes or
//	                          atoms, the wall-clock budget, or an LP
//	                          compile's grounding (ntgdctl 3)
//	429 Too Many Requests     admission refused: the queue was at its
//	                          bound (shed immediately), the deadline
//	                          was provably hopeless (shed immediately),
//	                          or the run stayed queued until its
//	                          context ended (ErrAdmission)
//	500 Internal Server Error recovered engine panic or handler fault
//	                          (ErrInternal — ntgdctl 6)
//	503 Service Unavailable   the daemon is draining (SIGTERM received,
//	                          class "draining") or refusing new work
//	                          under hard memory pressure (class
//	                          "overloaded")
//	504 Gateway Timeout       the per-request deadline expired or the
//	                          client disconnected (ntgdctl 4)
//	507 Insufficient Storage  memory watermark exceeded (ErrMemory —
//	                          ntgdctl 5)
//
// Every taxonomy-mapped error body still carries the partial Stats the
// run accumulated before it stopped.
//
// Retry guidance: every 429 and 503 carries a Retry-After header
// (integer seconds, rounded up, at least 1) and a retry_after_ms field
// in the error body — the machine-readable backoff hint clients (the
// ntgdclient package) honor before retrying. 429, 503, and 504 are the
// retryable statuses; 400, 404, 413, 422, 500, and 507 are
// deterministic for a given request (responses are a pure function of
// the canonical program) and must not be retried unchanged.
package server

import (
	"context"
	"errors"
	"net/http"

	"ntgd"
	"ntgd/ntgdclient"
)

// The request and response types are defined once, in the ntgdclient
// package, and named here through aliases: the schema the daemon
// decodes and encodes is the one its Go client sends and reads.
type (
	Request            = ntgdclient.Request
	BatchItem          = ntgdclient.BatchItem
	Stats              = ntgdclient.Stats
	SolveResponse      = ntgdclient.SolveResponse
	EntailsResponse    = ntgdclient.EntailsResponse
	AnswersResponse    = ntgdclient.AnswersResponse
	ConsistentResponse = ntgdclient.ConsistentResponse
	DBResponse         = ntgdclient.DBResponse
	BatchResponse      = ntgdclient.BatchResponse
	BatchResult        = ntgdclient.BatchResult
	ErrorResponse      = ntgdclient.ErrorResponse
)

func statsJSON(st ntgd.Stats) Stats {
	return Stats{
		Nodes:           st.Nodes,
		Branches:        st.Branches,
		Deterministic:   st.Deterministic,
		Completed:       st.Completed,
		StabilityChecks: st.StabilityChecks,
		StabilityFailed: st.StabilityFailed,
		ModelsEmitted:   st.ModelsEmitted,
		Conflicts:       st.Conflicts,
	}
}

// Taxonomy class names used in Class fields.
const (
	ClassBadRequest      = "bad_request"
	ClassNotFound        = "not_found"
	ClassRequestTooLarge = "request_too_large"
	ClassBudget          = "budget"
	ClassTimeout         = "timeout"
	ClassMemory          = "memory"
	ClassAdmission       = "admission"
	ClassInternal        = "internal"
	ClassDraining        = "draining"
	ClassOverloaded      = "overloaded"
	ClassError           = "error"
)

// GateStatz is the /statz view of the daemon-wide admission gate: the
// live queue (in-flight runs, parked waiters, the effective queue
// bound — which the memory-pressure brownout halves under load), the
// EWMA of recent run times feeding the deadline-hopeless estimate, and
// the monotonic admission/shed counters split by reason.
type GateStatz struct {
	Slots         int     `json:"slots"`
	InFlight      int     `json:"in_flight"`
	Waiters       int     `json:"waiters"`
	QueueBound    int     `json:"queue_bound"`
	EWMARunTimeMS float64 `json:"ewma_run_time_ms"`
	Admitted      int64   `json:"admitted"`
	ShedQueueFull int64   `json:"shed_queue_full"`
	ShedDeadline  int64   `json:"shed_deadline_hopeless"`
	ShedExpired   int64   `json:"shed_queued_expired"`
}

func gateStatsJSON(st ntgd.GateStats) GateStatz {
	return GateStatz{
		Slots:         st.Slots,
		InFlight:      st.InFlight,
		Waiters:       st.Waiters,
		QueueBound:    st.QueueBound,
		EWMARunTimeMS: float64(st.EWMARunTime) / 1e6,
		Admitted:      st.Admitted,
		ShedQueueFull: st.ShedQueueFull,
		ShedDeadline:  st.ShedDeadline,
		ShedExpired:   st.ShedExpired,
	}
}

// statusFor maps a terminal run error onto its HTTP status and taxonomy
// class. The order is load-bearing: ErrInternal wins over everything
// (error priority internal > context > memory > budget, PR 7), and
// ErrAdmission precedes the context classes because an admission
// refusal wraps the context cause that ended the wait.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, ntgd.ErrInternal):
		return http.StatusInternalServerError, ClassInternal
	case errors.Is(err, ntgd.ErrAdmission):
		return http.StatusTooManyRequests, ClassAdmission
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, ClassTimeout
	case errors.Is(err, ntgd.ErrMemory):
		return http.StatusInsufficientStorage, ClassMemory
	case errors.Is(err, ntgd.ErrBudget):
		// ErrWallClock matches here too: it is a budget in the
		// taxonomy, exactly as in ntgdctl's exit-code dispatch.
		return http.StatusUnprocessableEntity, ClassBudget
	default:
		return http.StatusInternalServerError, ClassError
	}
}
