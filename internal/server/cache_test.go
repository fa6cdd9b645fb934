package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ntgd"
)

// TestCanonicalizeEquivalence pins satellite #4's hashing half: the
// same rule/fact sets under whitespace, comments, ordering, and
// duplication noise canonicalize to one source — different programs do
// not.
func TestCanonicalizeEquivalence(t *testing.T) {
	base := "p(a). p(b).\np(X), not q(X) -> r(X).\nr(X) -> s(X).\n"
	equivalent := []string{
		// Whitespace and comments.
		"p(a).   p(b).\n\n% a comment\np(X), not q(X) -> r(X).\nr(X) -> s(X).\n",
		// Fact order.
		"p(b). p(a).\np(X), not q(X) -> r(X).\nr(X) -> s(X).\n",
		// Rule order.
		"p(a). p(b).\nr(X) -> s(X).\np(X), not q(X) -> r(X).\n",
		// Duplicated facts and rules.
		"p(a). p(a). p(b).\np(X), not q(X) -> r(X).\np(X), not q(X) -> r(X).\nr(X) -> s(X).\n",
		// An embedded query is validated but dropped.
		"p(a). p(b).\np(X), not q(X) -> r(X).\nr(X) -> s(X).\n?- s(a).\n",
	}
	_, want, err := Canonicalize(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range equivalent {
		_, got, err := Canonicalize(src)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if got != want {
			t.Errorf("variant %d canonicalizes to\n%q\nwant\n%q", i, got, want)
		}
		if cacheKey(ntgd.SO, got, "") != cacheKey(ntgd.SO, want, "") {
			t.Errorf("variant %d: key differs", i)
		}
	}

	_, other, err := Canonicalize("p(a).\np(X), not q(X) -> r(X).\n")
	if err != nil {
		t.Fatal(err)
	}
	if other == want {
		t.Error("a different program canonicalized to the same source")
	}
	// Same program, different semantics: distinct keys.
	if cacheKey(ntgd.SO, want, "") == cacheKey(ntgd.LP, want, "") {
		t.Error("semantics does not separate cache keys")
	}
}

// TestCanonicalizeInjective: programs that differ only in how a name
// must be quoted get different canonical sources, and one program
// keeps every fact and rule such names tell apart. Printed bare, the
// names would give each pair below one source and one compiled solver.
func TestCanonicalizeInjective(t *testing.T) {
	for _, pair := range [][2]string{
		{`p("a,b").`, `p(a,b).`},
		{`q("X") -> r("X").`, `q(X) -> r(X).`},
		{`p("not").`, `p(not_).`},
		{`:- p(X), q(X).`, `p(X), q(X) -> "#false".`},
	} {
		_, a, err := Canonicalize(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := Canonicalize(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Errorf("%s and %s both canonicalize to %q", pair[0], pair[1], a)
		}
	}
	p, _, err := Canonicalize(`p("a,b"). p(a,b). q(X) -> r(X). q("X") -> r("X").`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Facts) != 2 || len(p.Rules) != 2 {
		t.Fatalf("canonical program keeps %d facts and %d rules, want 2 and 2", len(p.Facts), len(p.Rules))
	}

	// Over HTTP: the binary fact's solver must not answer for the unary
	// one.
	_, hs := newTestServer(t, Config{})
	for _, tc := range []struct {
		program string
		want    bool
	}{{`p(a,b).`, true}, {`p("a,b").`, false}} {
		var res EntailsResponse
		if code := post(t, hs.URL, "/v1/entails", Request{Program: tc.program, Query: "?- p(a,b)."}, &res); code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.program, code)
		}
		if res.Entailed != tc.want {
			t.Fatalf("%s: ?- p(a,b). entailed = %v, want %v", tc.program, res.Entailed, tc.want)
		}
	}
	if st := getStatz(t, hs.URL).Cache; st.Compiles != 2 {
		t.Fatalf("program cache compiles = %d, want 2", st.Compiles)
	}
}

// FuzzCanonicalize pins the round trip the daemon's cache key depends
// on: for any source that parses, the canonical source parses back to
// the canonical program and canonicalizes to itself, and the canonical
// program keeps exactly the source's distinct facts and rules.
func FuzzCanonicalize(f *testing.F) {
	for _, seed := range []string{
		`p("a,b"). p(a,b). q(X) -> r(X). q("X") -> r("X").`,
		`p(a). p(X), not q(X) -> r(X,Y) | s(X). :- r(X,X), not p(X). ?- s(a).`,
		`"not"("", "1a", "_u", "é", 007). -> p(X).`,
		`e(a,b). e(X,Y) -> e(Y,Z). p(f(a), "F"(b)).`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		orig, err := ntgd.Parse(src)
		if err != nil {
			return
		}
		p, text, err := Canonicalize(src)
		if err != nil {
			t.Fatalf("Canonicalize fails on a source that parses: %v", err)
		}
		again, err := ntgd.Parse(text)
		if err != nil {
			t.Fatalf("canonical source %q does not parse: %v", text, err)
		}
		if got, want := programKeys(again), programKeys(p); got != want {
			t.Fatalf("canonical source %q parses to\n%s\nwant\n%s", text, got, want)
		}
		if _, text2, err := Canonicalize(text); err != nil || text2 != text {
			t.Fatalf("canonical source %q canonicalizes to %q (%v)", text, text2, err)
		}
		if got, want := distinctKeys(p), distinctKeys(orig); got != want {
			t.Fatalf("canonical program keeps\n%s\nof the source's\n%s", got, want)
		}
		for i, r := range p.Rules {
			if want := fmt.Sprintf("r%d", i+1); r.Label != want {
				t.Fatalf("canonical rule %d (%s) is labelled %q, want %q", i, r, r.Label, want)
			}
		}
	})
}

// programKeys renders a program's facts and rules, in order, by
// Term.Key, which tells every two distinct terms apart.
func programKeys(p *ntgd.Program) string {
	var b strings.Builder
	for _, a := range p.Facts {
		fmt.Fprintf(&b, "%s\n", a.Key())
	}
	for _, r := range p.Rules {
		b.WriteString(ruleKey(r))
		b.WriteByte('\n')
	}
	return b.String()
}

func ruleKey(r *ntgd.Rule) string {
	var b strings.Builder
	for _, l := range r.Body {
		fmt.Fprintf(&b, "%v %s;", l.Neg, l.Atom.Key())
	}
	b.WriteString("->")
	for _, d := range r.Heads {
		b.WriteString(" |")
		for _, a := range d {
			fmt.Fprintf(&b, " %s", a.Key())
		}
	}
	return b.String()
}

// distinctKeys is the sorted set of a program's fact and rule keys.
func distinctKeys(p *ntgd.Program) string {
	set := map[string]bool{}
	for _, a := range p.Facts {
		set["fact "+a.Key()] = true
	}
	for _, r := range p.Rules {
		set["rule "+ruleKey(r)] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestCacheSingleFlight pins satellite #4's concurrency half: however
// many gets race on one key, it builds exactly once and everyone shares
// the one value. The build blocks until every contender is in flight,
// so the race is real rather than sequenced by chance.
func TestCacheSingleFlight(t *testing.T) {
	const contenders = 16
	var builds atomic.Int64
	arrived := make(chan struct{})
	c := newCache[*int](8, nil)
	build := func() (*int, error) {
		builds.Add(1)
		<-arrived // hold the build until every contender has queued
		return new(int), nil
	}

	var wg sync.WaitGroup
	vals := make([]*int, contenders)
	errs := make([]error, contenders)
	var queued sync.WaitGroup
	queued.Add(contenders)
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queued.Done()
			vals[i], errs[i] = c.get(context.Background(), "k", build)
		}(i)
	}
	queued.Wait()
	close(arrived)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
	for i := range vals {
		if errs[i] != nil {
			t.Fatalf("contender %d: %v", i, errs[i])
		}
		if vals[i] != vals[0] {
			t.Fatalf("contender %d got a different value", i)
		}
	}
	st := c.stats()
	if st.Compiles != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 build, 1 entry", st)
	}
	if st.Hits+st.Misses != contenders {
		t.Fatalf("hits %d + misses %d != %d contenders", st.Hits, st.Misses, contenders)
	}
}

// TestCacheLRUEviction pins the program cache's LRU bound: past
// capacity the least-recently-used program is evicted, a re-submission
// recompiles it, and the evicted solver's effort survives in
// engineStats through the eviction hook.
func TestCacheLRUEviction(t *testing.T) {
	s := New(Config{CacheSize: 2})
	src := func(i int) string { return fmt.Sprintf("p(c%d).\np(X) -> q(X).\n", i) }
	get := func(i int) *ntgd.Solver {
		t.Helper()
		sv, err := s.program(context.Background(), &Request{Program: src(i)})
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}

	// Give the soon-evicted solver some effort to retire.
	if _, err := get(0).Collect(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	get(1)
	get(2)
	st := s.programs.stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Compiles != 3 {
		t.Fatalf("stats = %+v, want 2 entries, 1 eviction, 3 compiles", st)
	}
	if s.engineStats().Nodes == 0 {
		t.Error("evicted solver's effort vanished from engineStats")
	}

	// Program 0 was evicted: getting it again is a miss and recompile.
	get(0)
	if st := s.programs.stats(); st.Compiles != 4 {
		t.Fatalf("compiles = %d after re-get of evicted entry, want 4", st.Compiles)
	}

	// Recency matters: touch program 1, insert program 3, and program 0
	// (now least recent) goes — program 1 stays.
	get(1)
	get(3)
	before := s.programs.stats().Compiles
	get(1)
	if s.programs.stats().Compiles != before {
		t.Error("recently-touched program 1 was evicted")
	}
}

// TestCacheHitFastPath pins the hot path under -race: once compiled, a
// flood of concurrent requests for the program shares the entry
// without recompiling.
func TestCacheHitFastPath(t *testing.T) {
	s := New(Config{})
	req := &Request{Program: subsetSrc}
	if _, err := s.program(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sv, err := s.program(context.Background(), req)
			if err != nil || sv == nil {
				t.Errorf("hit: (%v, %v)", sv, err)
			}
		}()
	}
	wg.Wait()
	if st := s.programs.stats(); st.Compiles != 1 || st.Hits != 32 {
		t.Fatalf("stats = %+v after hit flood, want 1 compile and 32 hits", st)
	}
}

// TestCacheFailedCompileNotCached pins the poisoning guard: a failed
// build is reported to its waiters but leaves no entry, so the next
// get retries.
func TestCacheFailedCompileNotCached(t *testing.T) {
	fail := errors.New("transient")
	var calls atomic.Int64
	c := newCache[int](8, nil)
	build := func() (int, error) {
		if calls.Add(1) == 1 {
			return 0, fail
		}
		return 1, nil
	}
	if _, err := c.get(context.Background(), "k", build); !errors.Is(err, fail) {
		t.Fatalf("first get err = %v, want the build failure", err)
	}
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("failed build left %d entries", st.Entries)
	}
	if v, err := c.get(context.Background(), "k", build); err != nil || v != 1 {
		t.Fatalf("retry after failed build: (%d, %v)", v, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("build calls = %d, want 2", calls.Load())
	}

	// A build that panics fails its waiters with ErrInternal, re-panics
	// in the building goroutine, and leaves no entry either.
	hold := make(chan struct{})
	building := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.get(context.Background(), "p", func() (int, error) {
			close(building)
			<-hold
			panic("build fault")
		})
	}()
	<-building
	waiter := make(chan error, 1)
	go func() {
		_, err := c.get(context.Background(), "p", build)
		waiter <- err
	}()
	for c.stats().Hits < 1 { // until the waiter finds the building entry
		runtime.Gosched()
	}
	close(hold)
	if err := <-waiter; !errors.Is(err, ntgd.ErrInternal) {
		t.Fatalf("waiter on a panicking build: err = %v, want ErrInternal", err)
	}
	if _, ok := c.lookup("p"); ok {
		t.Fatal("panicked build left an entry")
	}
}

// TestCacheWaiterCancellation: a waiter whose context ends while the
// single-flight build is still running gets its context error; the
// build itself finishes and serves later gets.
func TestCacheWaiterCancellation(t *testing.T) {
	hold := make(chan struct{})
	building := make(chan struct{})
	c := newCache[int](8, nil)
	build := func() (int, error) {
		close(building)
		<-hold
		return 1, nil
	}
	winnerDone := make(chan error, 1)
	go func() {
		_, err := c.get(context.Background(), "k", build)
		winnerDone <- err
	}()
	<-building // the entry exists and its build is in flight

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.get(ctx, "k", build); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	if _, ok := c.lookup("k"); ok {
		t.Fatal("lookup found an entry still building")
	}

	close(hold)
	if err := <-winnerDone; err != nil {
		t.Fatalf("winner: %v", err)
	}
	if v, err := c.get(context.Background(), "k", build); err != nil || v != 1 {
		t.Fatalf("after the build completes: (%d, %v)", v, err)
	}
}

// TestCachePurgeSkipsBuilding: purge and the LRU bound evict built
// entries only, handing each to the eviction hook; an entry still
// building survives both and completes.
func TestCachePurgeSkipsBuilding(t *testing.T) {
	var evicted []int
	c := newCache(2, func(v int) { evicted = append(evicted, v) })
	hold := make(chan struct{})
	building := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		v, _ := c.get(context.Background(), "slow", func() (int, error) {
			close(building)
			<-hold
			return 7, nil
		})
		done <- v
	}()
	<-building
	// Over capacity with "slow" building: "a" is evicted once "b" is
	// built, and "slow" stays.
	for i, k := range []string{"a", "b"} {
		if _, err := c.get(context.Background(), k, func() (int, error) { return i + 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.purge(); n != 1 {
		t.Fatalf("purge evicted %d entries, want 1", n)
	}
	if st := c.stats(); st.Entries != 1 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want the building entry left and 2 evictions", st)
	}
	close(hold)
	if v := <-done; v != 7 {
		t.Fatalf("building entry completed with %d, want 7", v)
	}
	if v, ok := c.lookup("slow"); !ok || v != 7 {
		t.Fatalf("lookup after the build = (%d, %v), want (7, true)", v, ok)
	}
	if fmt.Sprint(evicted) != "[1 2]" {
		t.Fatalf("eviction hook saw %v, want [1 2]", evicted)
	}
}
