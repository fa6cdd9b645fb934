package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestDBUploadAndSolve pins the /v1/db round trip: upload a fact base,
// solve a rules-only program against its handle, and get exactly the
// models of the equivalent inline program.
func TestDBUploadAndSolve(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	facts := "item(i0). item(i1). item(i2). item(i3).\n"
	rules := "item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n"

	var up DBResponse
	if code := post(t, hs.URL, "/v1/db", Request{Facts: facts}, &up); code != http.StatusOK {
		t.Fatalf("upload status = %d", code)
	}
	if up.Handle == "" || up.Facts != 4 {
		t.Fatalf("upload response = %+v", up)
	}

	var solve SolveResponse
	if code := post(t, hs.URL, "/v1/solve", Request{Program: rules, DB: up.Handle}, &solve); code != http.StatusOK {
		t.Fatalf("solve status = %d", code)
	}
	want := directModels(t, facts+rules)
	if len(solve.Models) != len(want) {
		t.Fatalf("models over handle = %d, inline = %d", len(solve.Models), len(want))
	}
	got := append([]string(nil), solve.Models...)
	sort.Strings(got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("model %d differs:\n%s\n%s", i, got[i], want[i])
		}
	}

	// The handle is content-addressed: re-uploading the same facts in a
	// different order and format returns the same handle.
	var up2 DBResponse
	if code := post(t, hs.URL, "/v1/db", Request{Facts: "item(i3).item(i1).\n\nitem(i0). item(i2). item(i1)."}, &up2); code != http.StatusOK {
		t.Fatalf("re-upload status = %d", code)
	}
	if up2.Handle != up.Handle || up2.Facts != 4 {
		t.Fatalf("re-upload got handle %s (%d facts), want %s (4)", up2.Handle, up2.Facts, up.Handle)
	}

	// Batch requests resolve the handle too.
	var batch BatchResponse
	code := post(t, hs.URL, "/v1/batch", Request{Program: rules, DB: up.Handle, Queries: []BatchItem{
		{Query: "?- in(i0).", Mode: "brave"},
		{Query: "?- in(i0).", Mode: "cautious"},
	}}, &batch)
	if code != http.StatusOK || len(batch.Results) != 2 {
		t.Fatalf("batch status = %d, results = %d", code, len(batch.Results))
	}
	if !batch.Results[0].Entailed || batch.Results[1].Entailed {
		t.Fatalf("batch verdicts = %v, %v; want brave yes, cautious no",
			batch.Results[0].Entailed, batch.Results[1].Entailed)
	}
}

// TestDBUnknownHandle pins the 404/not_found contract for handles never
// uploaded (or evicted).
func TestDBUnknownHandle(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	var er ErrorResponse
	code := post(t, hs.URL, "/v1/solve", Request{Program: "p(X) -> q(X).", DB: "deadbeef"}, &er)
	if code != http.StatusNotFound || er.Class != ClassNotFound {
		t.Fatalf("unknown handle: status = %d class = %q, want 404 %q", code, er.Class, ClassNotFound)
	}
}

// TestDBUploadValidation: the upload must be facts-only and parseable.
func TestDBUploadValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	cases := []struct {
		name  string
		facts string
	}{
		{"empty", "   "},
		{"rules", "p(a). p(X) -> q(X)."},
		{"query", "p(a). ?- p(a)."},
		{"unparseable", "p(."},
	}
	for _, tc := range cases {
		var er ErrorResponse
		if code := post(t, hs.URL, "/v1/db", Request{Facts: tc.facts}, &er); code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (%+v)", tc.name, code, er)
		}
	}
}

// TestDBCacheKeySeparation: the same program with and without an
// attached fact base must not share a compiled-solver cache entry.
func TestDBCacheKeySeparation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	rules := "item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n"

	var up DBResponse
	if code := post(t, hs.URL, "/v1/db", Request{Facts: "item(a)."}, &up); code != http.StatusOK {
		t.Fatalf("upload failed")
	}
	var withDB, without SolveResponse
	if code := post(t, hs.URL, "/v1/solve", Request{Program: rules, DB: up.Handle}, &withDB); code != http.StatusOK {
		t.Fatalf("solve with db failed: %d", code)
	}
	if code := post(t, hs.URL, "/v1/solve", Request{Program: rules}, &without); code != http.StatusOK {
		t.Fatalf("solve without db failed: %d", code)
	}
	// One item toggling in/out → 2 models over the db; the bare rules
	// have a single (empty-domain) model. A shared cache entry would
	// answer both identically.
	if withDB.Count != 2 {
		t.Fatalf("with db: %d models, want 2", withDB.Count)
	}
	if without.Count != 1 {
		t.Fatalf("without db: %d models, want 1", without.Count)
	}
	for _, m := range withDB.Models {
		if !strings.Contains(m, "item(a)") {
			t.Fatalf("db facts missing from model %q", m)
		}
	}
}

// TestDBCacheEviction: past DBCacheSize the least-recently-used base is
// evicted and its handle answers 404 until re-uploaded.
func TestDBCacheEviction(t *testing.T) {
	_, hs := newTestServer(t, Config{DBCacheSize: 2})
	handles := make([]string, 3)
	for i, facts := range []string{"p(a).", "p(b).", "p(c)."} {
		var up DBResponse
		if code := post(t, hs.URL, "/v1/db", Request{Facts: facts}, &up); code != http.StatusOK {
			t.Fatalf("upload %d failed", i)
		}
		handles[i] = up.Handle
	}
	var er ErrorResponse
	if code := post(t, hs.URL, "/v1/solve", Request{Program: "p(X) -> q(X).", DB: handles[0]}, &er); code != http.StatusNotFound {
		t.Fatalf("evicted handle: status = %d, want 404", code)
	}
	var solve SolveResponse
	if code := post(t, hs.URL, "/v1/solve", Request{Program: "p(X) -> q(X).", DB: handles[2]}, &solve); code != http.StatusOK {
		t.Fatalf("live handle: status = %d, want 200", code)
	}
}

// TestDBConcurrentIdenticalUploads: racing uploads of one fact set, in
// different formats, load one Database and leave one entry; every
// uploader gets the same handle.
func TestDBConcurrentIdenticalUploads(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	var facts strings.Builder
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&facts, "e(c%d,c%d).\n", i, i+1)
	}
	const uploaders = 8
	handles := make([]string, uploaders)
	var wg sync.WaitGroup
	for i := 0; i < uploaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := facts.String()
			if i%2 == 1 {
				src = strings.ReplaceAll(src, "\n", " ")
			}
			body, _ := json.Marshal(Request{Facts: src})
			resp, err := http.Post(hs.URL+"/v1/db", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("upload %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var up DBResponse
			if err := json.NewDecoder(resp.Body).Decode(&up); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("upload %d: status %d, %v", i, resp.StatusCode, err)
			}
			handles[i] = up.Handle
		}(i)
	}
	wg.Wait()
	for i := range handles {
		if handles[i] != handles[0] {
			t.Fatalf("upload %d got handle %s, upload 0 got %s", i, handles[i], handles[0])
		}
	}
	if st := getStatz(t, hs.URL).DBCache; st.Compiles != 1 || st.Entries != 1 || st.Hits+st.Misses != uploaders {
		t.Fatalf("db_cache = %+v, want 1 load, 1 entry, %d uploads", st, uploaders)
	}
}
