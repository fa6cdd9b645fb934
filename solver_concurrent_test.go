package ntgd_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ntgd"
)

// choiceSrc has 2^4 = 16 stable models under every semantics (no
// existentials, so SO, LP, and Operational coincide), plus one Boolean
// and one n-ary query — enough surface to exercise Models, Entails,
// and Answers against one shared Solver. Its Horn rule gives the
// frozen run root (SO, Operational) and the well-founded core (LP)
// atoms beyond the database.
const choiceSrc = `
item(i0). item(i1). item(i2). item(i3).
item(X) -> listed(X).
item(X), not out(X) -> in(X).
item(X), not in(X) -> out(X).
?- in(i0).
?-[X] in(X).
`

// TestSolverConcurrentSharing is the tentpole pin: one compiled Solver,
// shared by nine goroutines running Models, Entails, and Answers
// simultaneously (each itself with a worker pool), must produce exactly
// the sequential reference results on every call, under every
// semantics, without leaking goroutines. The references come from a
// second Solver, so the nine runs are the shared Solver's first: they
// race to build and publish its per-program artifacts (the budget
// probe, the frozen run root, LP's well-founded core). Run under -race
// this also audits those caches and the cumulative Stats.
func TestSolverConcurrentSharing(t *testing.T) {
	prog := ntgd.MustParse(choiceSrc)
	qBool, qNary := prog.Queries[0], prog.Queries[1]
	for _, sem := range []ntgd.Semantics{ntgd.SO, ntgd.LP, ntgd.Operational} {
		t.Run(sem.String(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			opt := ntgd.CompileOptions{Semantics: sem, Options: ntgd.Options{Workers: 2}}
			s := ntgd.MustCompile(prog, opt)
			ref := ntgd.MustCompile(prog, opt)
			ctx := context.Background()

			// Sequential reference results, computed on another Solver
			// before the concurrent phase begins.
			refModels, err := collectModels(ctx, ref)
			if err != nil {
				t.Fatalf("reference enumeration: %v", err)
			}
			refSet := canonicalSet(refModels)
			if len(refSet) != 16 {
				t.Fatalf("reference: %d models, want 16", len(refSet))
			}
			refEnt, err := ref.Entails(ctx, qBool, ntgd.Brave)
			if err != nil {
				t.Fatalf("reference entails: %v", err)
			}
			refTuples, refOK, err := ref.Answers(ctx, qNary, ntgd.Brave)
			if err != nil {
				t.Fatalf("reference answers: %v", err)
			}

			errs := make(chan error, 9)
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				wg.Add(3)
				go func() {
					defer wg.Done()
					models, err := collectModels(ctx, s)
					if err != nil {
						errs <- fmt.Errorf("concurrent Models: %v", err)
						return
					}
					if got := canonicalSet(models); !equalStringSlices(got, refSet) {
						errs <- fmt.Errorf("concurrent Models diverged: %d models vs %d", len(got), len(refSet))
					}
				}()
				go func() {
					defer wg.Done()
					res, err := s.Entails(ctx, qBool, ntgd.Brave)
					if err != nil {
						errs <- fmt.Errorf("concurrent Entails: %v", err)
						return
					}
					if res.Entailed != refEnt.Entailed {
						errs <- fmt.Errorf("concurrent Entails = %v, reference %v", res.Entailed, refEnt.Entailed)
					}
				}()
				go func() {
					defer wg.Done()
					tuples, ok, err := s.Answers(ctx, qNary, ntgd.Brave)
					if err != nil {
						errs <- fmt.Errorf("concurrent Answers: %v", err)
						return
					}
					if ok != refOK || len(tuples) != len(refTuples) {
						errs <- fmt.Errorf("concurrent Answers = (%d tuples, ok=%v), reference (%d, %v)",
							len(tuples), ok, len(refTuples), refOK)
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			awaitGoroutines(t, baseline)
		})
	}
}

// TestSolverStatsDuringFlight pins satellite #1: Stats, Exhausted, and
// Classification must be safe to call — under -race — while a Models
// enumeration is in flight on another goroutine.
func TestSolverStatsDuringFlight(t *testing.T) {
	prog := subsetProgram(8) // 256 models
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{
		Options: ntgd.Options{Workers: 4},
	})
	done := make(chan struct{})
	var probes sync.WaitGroup
	probes.Add(1)
	go func() {
		defer probes.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = s.Stats()
			_ = s.Exhausted()
			if s.Classification() == nil {
				t.Error("Classification() = nil during flight")
				return
			}
		}
	}()
	n := 0
	for _, err := range s.Models(context.Background()) {
		if err != nil {
			t.Fatalf("enumeration: %v", err)
		}
		n++
		_ = s.Stats() // probe from the visitor goroutine too
	}
	close(done)
	probes.Wait()
	if n != 256 {
		t.Fatalf("%d models, want 256", n)
	}
	if st := s.Stats(); st.ModelsEmitted < 256 {
		t.Fatalf("cumulative stats lost models: %+v", st)
	}
}
