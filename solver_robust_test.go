package ntgd_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ntgd"
)

// TestSolverWallClock pins the resource-governance contract of
// Options.MaxWallClock: the run ends promptly with an error that is
// both ErrWallClock and (being a budget) ErrBudget, partial stats are
// preserved, and the Solver remains reusable — a second run behaves
// the same rather than wedging.
func TestSolverWallClock(t *testing.T) {
	prog := subsetProgram(18) // 2^18 models: never finishes in 5ms
	baseline := runtime.NumGoroutine()
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{
		Options: ntgd.Options{Workers: 2, MaxWallClock: 5 * time.Millisecond},
	})
	for round := 0; round < 2; round++ {
		_, err := collectModels(context.Background(), s)
		if !errors.Is(err, ntgd.ErrWallClock) {
			t.Fatalf("round %d: err = %v, want ErrWallClock", round, err)
		}
		if !errors.Is(err, ntgd.ErrBudget) {
			t.Fatalf("round %d: ErrWallClock must also match ErrBudget, got %v", round, err)
		}
		if !s.Exhausted() {
			t.Fatalf("round %d: Exhausted() = false after a wall-clock abort", round)
		}
	}
	if st := s.Stats(); st.Nodes == 0 {
		t.Fatalf("partial stats lost: %+v", st)
	}
	awaitGoroutines(t, baseline)
}

// TestSolverMemoryWatermark pins Options.MaxMemory: tripping the
// retained-allocation proxy aborts the whole run with ErrMemory,
// partial stats survive, and the Solver stays reusable with the same
// deterministic outcome.
func TestSolverMemoryWatermark(t *testing.T) {
	prog := subsetProgram(6)
	baseline := runtime.NumGoroutine()
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{
		Options: ntgd.Options{MaxMemory: 8},
	})
	var firstModels int
	for round := 0; round < 2; round++ {
		models, err := collectModels(context.Background(), s)
		if !errors.Is(err, ntgd.ErrMemory) {
			t.Fatalf("round %d: err = %v, want ErrMemory", round, err)
		}
		if errors.Is(err, ntgd.ErrBudget) {
			t.Fatalf("round %d: ErrMemory must be distinct from ErrBudget", round)
		}
		if !s.Exhausted() {
			t.Fatalf("round %d: Exhausted() = false after a memory abort", round)
		}
		if round == 0 {
			firstModels = len(models)
		} else if len(models) != firstModels {
			t.Fatalf("sequential memory aborts diverged: %d then %d models", firstModels, len(models))
		}
	}
	if st := s.Stats(); st.Nodes == 0 {
		t.Fatalf("partial stats lost: %+v", st)
	}
	// The same program without the watermark still enumerates fully.
	free := ntgd.MustCompile(prog, ntgd.CompileOptions{})
	if models, err := collectModels(context.Background(), free); err != nil || len(models) != 64 {
		t.Fatalf("unrestricted run: %d models, err %v; want 64, nil", len(models), err)
	}
	awaitGoroutines(t, baseline)
}

// TestSolverAdmissionGate pins Options.MaxConcurrentRuns: with one
// slot, a second call arriving while an enumeration holds the gate
// waits — and if its context expires first it is refused with
// ErrAdmission (which also matches the context cause). Once the gate
// frees, the same call succeeds.
func TestSolverAdmissionGate(t *testing.T) {
	prog := ntgd.MustParse(choiceSrc)
	qBool := prog.Queries[0]
	baseline := runtime.NumGoroutine()
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{
		Options: ntgd.Options{MaxConcurrentRuns: 1},
	})
	var refused error
	var refusedRes ntgd.QAResult
	for _, err := range s.Models(context.Background()) {
		if err != nil {
			t.Fatalf("enumeration: %v", err)
		}
		if refused == nil {
			// The loop body runs while the enumeration holds the only
			// slot, so an already-expired context cannot be admitted.
			ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
			refusedRes, refused = s.Entails(ctx, qBool, ntgd.Brave)
			cancel()
		}
	}
	if !errors.Is(refused, ntgd.ErrAdmission) {
		t.Fatalf("in-flight Entails err = %v, want ErrAdmission", refused)
	}
	if !errors.Is(refused, context.DeadlineExceeded) {
		t.Fatalf("ErrAdmission must carry the context cause, got %v", refused)
	}
	if !refusedRes.Exhausted {
		t.Fatal("refused run must report Exhausted")
	}
	// Gate released: the identical call now succeeds.
	res, err := s.Entails(context.Background(), qBool, ntgd.Brave)
	if err != nil || !res.Entailed {
		t.Fatalf("post-release Entails = (%v, %v), want (true, nil)", res.Entailed, err)
	}
	awaitGoroutines(t, baseline)
}

// TestSolverVisitorPanic pins satellite #2: a panic in the range loop
// body must propagate to the caller (range-over-func semantics), but
// only after the search workers have been stopped and joined — no
// leaked goroutines, no wedged Solver; a follow-up enumeration
// completes in full.
func TestSolverVisitorPanic(t *testing.T) {
	prog := subsetProgram(8) // 256 models
	baseline := runtime.NumGoroutine()
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{
		Options: ntgd.Options{Workers: 4},
	})
	func() {
		defer func() {
			if r := recover(); r != "visitor boom" {
				t.Fatalf("recovered %v, want the visitor's own panic value", r)
			}
		}()
		n := 0
		for _, err := range s.Models(context.Background()) {
			if err != nil {
				t.Errorf("unexpected stream error before panic: %v", err)
				return
			}
			n++
			if n == 3 {
				panic("visitor boom")
			}
		}
		t.Error("loop completed; the panic was swallowed")
	}()
	awaitGoroutines(t, baseline)
	models, err := collectModels(context.Background(), s)
	if err != nil || len(models) != 256 {
		t.Fatalf("post-panic enumeration: %d models, err %v; want 256, nil", len(models), err)
	}
}

// TestSolverSeqReinvocation pins the other half of satellite #2: the
// iter.Seq2 returned by Models may be ranged over more than once; each
// invocation is an independent, complete run.
func TestSolverSeqReinvocation(t *testing.T) {
	prog := subsetProgram(4) // 16 models
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{})
	seq := s.Models(context.Background())
	var first, second []*ntgd.FactStore
	for m, err := range seq {
		if err != nil {
			t.Fatalf("first invocation: %v", err)
		}
		first = append(first, m)
	}
	for m, err := range seq {
		if err != nil {
			t.Fatalf("second invocation: %v", err)
		}
		second = append(second, m)
	}
	// Delivery order is scheduling-dependent under a parallel pool;
	// the contract is set equality.
	if len(first) != 16 || !equalStringSlices(canonicalSet(first), canonicalSet(second)) {
		t.Fatalf("invocations diverged: %d vs %d models", len(first), len(second))
	}
}

// TestCompileLPGroundingBudget: under LP, a program whose grounding
// outgrows its default budget fails to compile with ErrBudget, both when
// nested Skolem terms outgrow the term-size bound (the first three) and
// when the Herbrand base outgrows the atom bound (70³ t atoms).
func TestCompileLPGroundingBudget(t *testing.T) {
	var cube strings.Builder
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&cube, "d(c%d). ", i)
	}
	cube.WriteString("d(X), d(Y), d(Z) -> t(X,Y,Z).")
	for name, src := range map[string]string{
		"quadratic": "p(a). p(X) -> q(X,Y). q(X,Y) -> p(Y).",
		"fibonacci": "e(a,b). e(X,Y) -> e(Y,Z).",
		"pairs":     "p(a,b). p(X,Y) -> p(Y,Z).",
		"cube":      cube.String(),
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, err := ntgd.Compile(ntgd.MustParse(src), ntgd.CompileOptions{Semantics: ntgd.LP})
			if !errors.Is(err, ntgd.ErrBudget) {
				t.Fatalf("Compile = %v, want ErrBudget", err)
			}
		})
	}
}
