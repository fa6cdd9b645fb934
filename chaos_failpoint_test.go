//go:build failpoint

package ntgd_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"ntgd"
	"ntgd/internal/engine"
	"ntgd/internal/failpoint"
)

// chaosWorkload returns a program and options that deterministically
// reach the given failpoint site through the public Solver. Most sites
// are on the path of any branching program with stability checks (the
// coloring triangle); store/flatten additionally needs a search deep
// enough to exceed the snapshot-depth threshold, which a 40-item
// subset-choice program provides on its first root-to-leaf descent.
func chaosWorkload(t *testing.T, site string) (*ntgd.Program, ntgd.Options) {
	t.Helper()
	if site == failpoint.StoreFlatten {
		// Workers 1 keeps the MaxModels-truncated enumeration
		// deterministic, so the recovery run is comparable.
		return subsetProgram(40), ntgd.Options{MaxModels: 4, Workers: 1}
	}
	prog, err := ntgd.ParseFile("testdata/coloring.ntgd")
	if err != nil {
		t.Fatal(err)
	}
	return prog, ntgd.Options{Workers: 2}
}

// TestChaosEverySite arms each failpoint site in turn and drives a full
// enumeration through the public Solver, under SO and under LP: the
// injected panic must surface as a typed ErrInternal naming the site,
// with no goroutine leaked and the Solver still able to produce the
// exact reference model set once the site is disarmed. Every site must
// fire under SO; a site off LP's path must leave the armed LP run
// correct, and at least one site must fire under LP.
func TestChaosEverySite(t *testing.T) {
	defer failpoint.Reset()
	lpFired := 0
	for _, sem := range []ntgd.Semantics{ntgd.SO, ntgd.LP} {
		for _, site := range failpoint.Sites() {
			t.Run(sem.String()+"/"+site, func(t *testing.T) {
				if site == failpoint.ServerHandler || site == failpoint.ServerShed {
					// Not reachable through the bare Solver; the
					// internal/server chaos suite drives these through
					// HTTP requests.
					t.Skip("covered by internal/server's chaos suite")
				}
				if chaosSite(t, sem, site) {
					lpFired++
				}
			})
		}
	}
	if lpFired == 0 {
		t.Fatal("no failpoint site fired under LP")
	}
}

// chaosSite runs one armed site under one semantics (see
// TestChaosEverySite) and reports whether it fired under LP.
func chaosSite(t *testing.T, sem ntgd.Semantics, site string) bool {
	failpoint.Reset()
	prog, opt := chaosWorkload(t, site)
	baseline := runtime.NumGoroutine()
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{Semantics: sem, Options: opt})
	ref := ntgd.MustCompile(prog, ntgd.CompileOptions{Semantics: sem, Options: opt})

	// Arm before any run: the per-program artifacts (the budget probe,
	// the frozen run root, LP's well-founded core) are built once and
	// cached, so a prior reference run on s would mask their sites.
	failpoint.Arm(site, 1)
	_, err := collectModels(context.Background(), s)
	fired := failpoint.Fired(site) > 0
	failpoint.Disarm(site)
	want, rerr := collectModels(context.Background(), ref)
	if rerr != nil {
		t.Fatalf("reference run: %v", rerr)
	}
	if len(want) == 0 {
		t.Fatal("reference workload produced no models; the site was not stressed")
	}
	if !fired && sem == ntgd.LP {
		// Off LP's path: the armed run was an ordinary one.
		if err != nil {
			t.Fatalf("armed run err = %v, want success (site never fired)", err)
		}
		return false
	}
	if !errors.Is(err, ntgd.ErrInternal) {
		t.Fatalf("armed run err = %v, want ErrInternal", err)
	}
	var ie *engine.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err %v does not carry *engine.InternalError", err)
	}
	if fp, ok := ie.Value.(failpoint.Panic); !ok || fp.Site != site {
		t.Fatalf("internal error value = %#v, want the %s failpoint", ie.Value, site)
	}
	if len(ie.Stack) == 0 {
		t.Fatal("internal error lost the panic stack")
	}
	if !fired {
		t.Fatalf("site %s never fired", site)
	}
	if !s.Exhausted() {
		t.Fatal("Exhausted() = false after an internal fault")
	}

	// Disarmed, the same Solver must recover completely: its
	// enumeration equals a fresh, never-faulted Solver's.
	got, err := collectModels(context.Background(), s)
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	if !equalStringSlices(canonicalSet(got), canonicalSet(want)) {
		t.Fatalf("recovery diverged: %d models vs reference %d", len(got), len(want))
	}
	awaitGoroutines(t, baseline)
	return sem == ntgd.LP
}

// TestChaosEntailsAndAnswers drives the query paths through an armed
// sink failpoint: both must return the typed fault (not wedge or leak)
// and succeed after disarming.
func TestChaosEntailsAndAnswers(t *testing.T) {
	defer failpoint.Reset()
	prog := ntgd.MustParse(`
item(i0). item(i1).
item(X), not out(X) -> in(X).
item(X), not in(X) -> out(X).
?- in(i0).
?-[X] in(X).
`)
	baseline := runtime.NumGoroutine()
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{Options: ntgd.Options{Workers: 2}})
	failpoint.Arm(failpoint.CoreSink, 1)
	if _, err := s.Entails(context.Background(), prog.Queries[0], ntgd.Brave); !errors.Is(err, ntgd.ErrInternal) {
		t.Fatalf("Entails err = %v, want ErrInternal", err)
	}
	failpoint.Arm(failpoint.CoreSink, 1)
	if _, _, err := s.Answers(context.Background(), prog.Queries[1], ntgd.Brave); !errors.Is(err, ntgd.ErrInternal) {
		t.Fatalf("Answers err = %v, want ErrInternal", err)
	}
	failpoint.Disarm(failpoint.CoreSink)
	res, err := s.Entails(context.Background(), prog.Queries[0], ntgd.Brave)
	if err != nil || !res.Entailed {
		t.Fatalf("post-disarm Entails = (%v, %v), want (true, nil)", res.Entailed, err)
	}
	tuples, ok, err := s.Answers(context.Background(), prog.Queries[1], ntgd.Brave)
	if err != nil || !ok || len(tuples) != 2 {
		t.Fatalf("post-disarm Answers = (%d tuples, ok=%v, err=%v), want 2 brave answers", len(tuples), ok, err)
	}
	awaitGoroutines(t, baseline)
}

// TestChaosInternalIsDistinct pins the taxonomy boundaries hosts (and
// the ntgdctl exit-code switch) dispatch on: an injected fault is
// ErrInternal and nothing else.
func TestChaosInternalIsDistinct(t *testing.T) {
	defer failpoint.Reset()
	prog := subsetProgram(3)
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{})
	failpoint.Arm(failpoint.CoreFork, 1)
	_, err := collectModels(context.Background(), s)
	failpoint.Disarm(failpoint.CoreFork)
	if !errors.Is(err, ntgd.ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	for name, other := range map[string]error{
		"ErrBudget":    ntgd.ErrBudget,
		"ErrMemory":    ntgd.ErrMemory,
		"ErrAdmission": ntgd.ErrAdmission,
	} {
		if errors.Is(err, other) {
			t.Fatalf("ErrInternal must not match %s", name)
		}
	}
}
