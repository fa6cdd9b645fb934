package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ntgd"
)

// fuzzEndpoints are the POST endpoints FuzzHandler drives, each with a
// fresh value of its success body's type.
var fuzzEndpoints = []struct {
	path string
	ok   func() any
}{
	{"/v1/solve", func() any { return new(SolveResponse) }},
	{"/v1/entails", func() any { return new(EntailsResponse) }},
	{"/v1/answers", func() any { return new(AnswersResponse) }},
	{"/v1/consistent", func() any { return new(ConsistentResponse) }},
	{"/v1/batch", func() any { return new(BatchResponse) }},
	{"/v1/db", func() any { return new(DBResponse) }},
}

// statusClasses maps every status of the api.go table that a request
// may answer to the error classes that status carries (none for 200).
// 500 is left out: no request may reach it.
var statusClasses = map[int][]string{
	http.StatusOK:                    nil,
	http.StatusBadRequest:            {ClassBadRequest},
	http.StatusNotFound:              {ClassNotFound},
	http.StatusRequestEntityTooLarge: {ClassRequestTooLarge},
	http.StatusUnprocessableEntity:   {ClassBudget},
	http.StatusTooManyRequests:       {ClassAdmission},
	http.StatusServiceUnavailable:    {ClassDraining, ClassOverloaded},
	http.StatusGatewayTimeout:        {ClassTimeout},
	http.StatusInsufficientStorage:   {ClassMemory},
}

// FuzzHandler drives the daemon's request path — body decoding,
// canonicalization, compilation, the run and the response encoding —
// with an endpoint selector and a raw body. Whatever the body, the
// daemon answers a status of its table other than 500: a success body
// of the endpoint's type, or an error body whose class is the one its
// status maps to. No time bound is asserted: LP compilation does not
// observe the request deadline.
func FuzzHandler(f *testing.F) {
	const choice = `item(a). item(b). item(X), not out(X) -> in(X). item(X), not in(X) -> out(X).`
	seeds := []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"program":"` + choice + `"}`},
		{1, `{"program":"` + choice + `","query":"?- in(a).","mode":"brave"}`},
		{2, `{"program":"` + choice + `","query":"?-[X] item(X)."}`},
		{3, `{"program":"` + choice + `","semantics":"lp"}`},
		{4, `{"program":"` + choice + `","queries":[{"query":"?- in(a)."},{"query":"?-[X] in(X).","mode":"brave"}]}`},
		{5, `{"facts":"e(a,b). e(b,c)."}`},
		{0, `{"program":`},
		{1, `{"program":5,"query":["?- p."]}`},
		{0, `{"program":"p(a).","max_models":"all"}`},
		{0, `{"program":"p(a).","semantics":"zz"}`},
		{1, `{"program":"p(a).","query":"?- p(a).","mode":"sideways"}`},
		{0, `{"program":"p(a).","db":"no-such-handle"}`},
		{0, `{"program":"` + choice + `","timeout_ms":-1,"max_models":-5}`},
		{0, `{"program":"` + choice + `","timeout_ms":9223372036854775807,"max_models":2147483647}`},
		{4, `{"program":"p(a).","queries":[]}`},
		{1, `{"program":"p(a). p(X) -> q(X,Y). q(X,Y) -> p(Y).","semantics":"lp","query":"?- q(a,a)."}`},
	}
	for _, s := range seeds {
		f.Add(s.endpoint, []byte(s.body))
	}
	srv := New(Config{
		MaxTimeout:   100 * time.Millisecond,
		MaxModels:    8,
		MaxBodyBytes: 64 << 10,
		Options:      ntgd.Options{MaxNodes: 20000, Workers: 1},
	})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		ep := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
		classes, known := statusClasses[rec.Code]
		if !known {
			t.Fatalf("%s %q: status %d is not in the api.go table or is 500: %s", ep.path, body, rec.Code, rec.Body)
		}
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		dec.DisallowUnknownFields()
		if rec.Code == http.StatusOK {
			if err := dec.Decode(ep.ok()); err != nil {
				t.Fatalf("%s %q: 200 body %s does not decode: %v", ep.path, body, rec.Body, err)
			}
			return
		}
		var e ErrorResponse
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("%s %q: %d body %s does not decode: %v", ep.path, body, rec.Code, rec.Body, err)
		}
		for _, c := range classes {
			if e.Class == c {
				return
			}
		}
		t.Fatalf("%s %q: status %d carries class %q, want one of %v", ep.path, body, rec.Code, e.Class, classes)
	})
}
