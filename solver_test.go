package ntgd_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"ntgd"
)

// collectModels drains a Solver's model stream, returning the models,
// the terminal error (nil when the stream completed), and the count.
func collectModels(ctx context.Context, s *ntgd.Solver) ([]*ntgd.FactStore, error) {
	var models []*ntgd.FactStore
	for m, err := range s.Models(ctx) {
		if err != nil {
			return models, err
		}
		models = append(models, m)
	}
	return models, nil
}

func canonicalSet(models []*ntgd.FactStore) []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.CanonicalString()
	}
	sort.Strings(out)
	return out
}

func equalStringSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSolverAnswersMatchesLegacy pins the n-ary answer path under
// every semantics: Solver.Answers returns both persons as certain
// answers.
func TestSolverAnswersMatchesLegacy(t *testing.T) {
	prog := ntgd.MustParse(`
person(ada). person(bo).
likes(ada, bo).
person(X), not grumpy(X) -> happy(X).
?-[X] happy(X).
`)
	q := prog.Queries[0]
	for _, sem := range []ntgd.Semantics{ntgd.SO, ntgd.LP, ntgd.Operational} {
		s := ntgd.MustCompile(prog, ntgd.CompileOptions{Semantics: sem})
		tuples, ok, err := s.Answers(context.Background(), q, ntgd.Cautious)
		if err != nil || !ok {
			t.Fatalf("%v: Answers (ok=%v, err=%v)", sem, ok, err)
		}
		if len(tuples) != 2 {
			t.Fatalf("%v: want both persons happy, got %v", sem, tuples)
		}
	}
}

// subsetProgram has 2^n stable models — enough search work that
// cancellation demonstrably lands mid-enumeration.
func subsetProgram(n int) *ntgd.Program {
	src := ""
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("item(i%d).\n", i)
	}
	src += "item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n"
	return ntgd.MustParse(src)
}

// awaitGoroutines fails the test if the goroutine count stays above
// the baseline (the Solver machinery must not spawn anything that
// outlives a call).
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSolverCancellationMidSearch cancels the context after the first
// few models: the stream must end promptly with context.Canceled,
// report partial (strictly smaller) stats, leak no goroutines, and
// leave the Solver fully reusable for a complete second enumeration.
func TestSolverCancellationMidSearch(t *testing.T) {
	prog := subsetProgram(10) // 1024 models
	baseline := runtime.NumGoroutine()
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := 0
	var terminal error
	for m, err := range s.Models(ctx) {
		if err != nil {
			terminal = err
			continue
		}
		if m == nil {
			t.Fatal("nil model without error")
		}
		got++
		if got == 3 {
			cancel()
		}
	}
	if !errors.Is(terminal, context.Canceled) {
		t.Fatalf("terminal error = %v, want context.Canceled", terminal)
	}
	if got < 3 || got >= 1024 {
		t.Fatalf("models before cancellation = %d, want a small prefix", got)
	}
	partial := s.Stats()
	if partial.Nodes <= 0 || partial.ModelsEmitted < int64(got) {
		t.Fatalf("partial stats not recorded: %+v", partial)
	}
	if !s.Exhausted() {
		t.Fatal("Exhausted() must report the cancelled run as incomplete")
	}
	// The solver (and its copy-on-write store chain) must be reusable.
	models, err := collectModels(context.Background(), s)
	if err != nil {
		t.Fatalf("second enumeration: %v", err)
	}
	if len(models) != 1024 {
		t.Fatalf("second enumeration found %d models, want 1024", len(models))
	}
	if s.Exhausted() {
		t.Fatal("complete second run must clear Exhausted()")
	}
	if total := s.Stats(); total.Nodes <= partial.Nodes {
		t.Fatalf("cumulative stats did not grow: %+v vs %+v", total, partial)
	}
	awaitGoroutines(t, baseline)
}

// TestSolverEarlyBreakReleasesSearch breaks out of the stream after
// one model: no error may be yielded, stats must reflect a partial
// run, no goroutines may linger, and the same Solver must then
// enumerate the full model set.
func TestSolverEarlyBreakReleasesSearch(t *testing.T) {
	prog := subsetProgram(8) // 256 models
	baseline := runtime.NumGoroutine()
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{})
	for m, err := range s.Models(context.Background()) {
		if err != nil {
			t.Fatalf("unexpected error on early break: %v", err)
		}
		if m == nil {
			t.Fatal("nil model")
		}
		break
	}
	if st := s.Stats(); st.ModelsEmitted < 1 {
		t.Fatalf("stats not recorded after early break: %+v", st)
	}
	models, err := collectModels(context.Background(), s)
	if err != nil {
		t.Fatalf("full enumeration after break: %v", err)
	}
	if len(models) != 256 {
		t.Fatalf("full enumeration found %d models, want 256", len(models))
	}
	awaitGoroutines(t, baseline)
}

// TestSolverPreExpiredDeadline verifies the deadline path end to end:
// an already-expired context yields no models and exactly the
// DeadlineExceeded error, for every semantics.
func TestSolverPreExpiredDeadline(t *testing.T) {
	prog := subsetProgram(6)
	for _, sem := range []ntgd.Semantics{ntgd.SO, ntgd.LP, ntgd.Operational} {
		s := ntgd.MustCompile(prog, ntgd.CompileOptions{Semantics: sem})
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
		defer cancel()
		models, err := collectModels(ctx, s)
		if len(models) != 0 {
			t.Fatalf("%v: got %d models under an expired deadline", sem, len(models))
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v: err = %v, want context.DeadlineExceeded", sem, err)
		}
		if !s.Exhausted() {
			t.Fatalf("%v: expired run must mark Exhausted", sem)
		}
		// The engine must still complete an unbounded run afterwards.
		models, err = collectModels(context.Background(), s)
		if err != nil || len(models) != 64 {
			t.Fatalf("%v: reuse after expiry: %d models, err=%v", sem, len(models), err)
		}
	}
}

// TestSolverEntailsCancellation pins cancellation on the query path:
// an expired deadline surfaces the context error from Entails with
// partial stats, and the verdict afterwards is unaffected.
func TestSolverEntailsCancellation(t *testing.T) {
	prog := ntgd.MustParse(`
person(alice).
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).
?- person(alice), not hasFather(alice,bob).
`)
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := s.Entails(ctx, prog.Queries[0], ntgd.Cautious)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	v, err := s.Entails(context.Background(), prog.Queries[0], ntgd.Cautious)
	if err != nil || v.Entailed {
		t.Fatalf("after expiry the SO verdict must still be 'not entailed' (err=%v, entailed=%v)", err, v.Entailed)
	}
}

// TestSolverMaxModels verifies that Options.MaxModels bounds the
// stream without reporting an error.
func TestSolverMaxModels(t *testing.T) {
	prog := subsetProgram(6) // 64 models
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{Options: ntgd.Options{MaxModels: 5}})
	models, err := collectModels(context.Background(), s)
	if err != nil {
		t.Fatalf("MaxModels stream errored: %v", err)
	}
	if len(models) != 5 {
		t.Fatalf("got %d models, want 5", len(models))
	}
}

// TestSolverParallelMatchesSequential pins the public ordering
// guarantee: Workers == 1 yields the deterministic sequential stream;
// any larger pool yields the same model set (the program is null-free,
// so canonical strings compare exactly).
func TestSolverParallelMatchesSequential(t *testing.T) {
	prog := subsetProgram(7) // 128 models
	seq := ntgd.MustCompile(prog, ntgd.CompileOptions{Options: ntgd.Options{Workers: 1}})
	seqModels, err := collectModels(context.Background(), seq)
	if err != nil {
		t.Fatalf("sequential enumeration: %v", err)
	}
	for _, w := range []int{2, 4} {
		par := ntgd.MustCompile(prog, ntgd.CompileOptions{Options: ntgd.Options{Workers: w}})
		parModels, err := collectModels(context.Background(), par)
		if err != nil {
			t.Fatalf("workers=%d enumeration: %v", w, err)
		}
		if !equalStringSlices(canonicalSet(seqModels), canonicalSet(parModels)) {
			t.Fatalf("workers=%d: model set diverges from sequential (%d vs %d models)",
				w, len(parModels), len(seqModels))
		}
	}
}

// TestSolverParallelCancellationMidSearch repeats the cancellation
// contract with a 4-worker pool: prompt termination with
// context.Canceled, partial stats, no leaked pool goroutines, and a
// fully reusable Solver.
func TestSolverParallelCancellationMidSearch(t *testing.T) {
	prog := subsetProgram(10) // 1024 models
	baseline := runtime.NumGoroutine()
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{Options: ntgd.Options{Workers: 4}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := 0
	var terminal error
	for m, err := range s.Models(ctx) {
		if err != nil {
			terminal = err
			continue
		}
		if m == nil {
			t.Fatal("nil model without error")
		}
		got++
		if got == 3 {
			cancel()
		}
	}
	if !errors.Is(terminal, context.Canceled) {
		t.Fatalf("terminal error = %v, want context.Canceled", terminal)
	}
	if got < 3 || got >= 1024 {
		t.Fatalf("models before cancellation = %d, want a small prefix", got)
	}
	if !s.Exhausted() {
		t.Fatal("Exhausted() must report the cancelled run as incomplete")
	}
	awaitGoroutines(t, baseline)
	models, err := collectModels(context.Background(), s)
	if err != nil {
		t.Fatalf("second enumeration: %v", err)
	}
	if len(models) != 1024 {
		t.Fatalf("second enumeration found %d models, want 1024", len(models))
	}
	awaitGoroutines(t, baseline)
}

// TestSolverParallelEarlyBreakReleasesSearch breaks out of a 4-worker
// stream after one model: the pool must wind down without an error or
// leaked goroutines, and the Solver must then enumerate the full set.
func TestSolverParallelEarlyBreakReleasesSearch(t *testing.T) {
	prog := subsetProgram(8) // 256 models
	baseline := runtime.NumGoroutine()
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{Options: ntgd.Options{Workers: 4}})
	for m, err := range s.Models(context.Background()) {
		if err != nil {
			t.Fatalf("unexpected error on early break: %v", err)
		}
		if m == nil {
			t.Fatal("nil model")
		}
		break
	}
	awaitGoroutines(t, baseline)
	models, err := collectModels(context.Background(), s)
	if err != nil {
		t.Fatalf("full enumeration after break: %v", err)
	}
	if len(models) != 256 {
		t.Fatalf("full enumeration found %d models, want 256", len(models))
	}
	awaitGoroutines(t, baseline)
}

// TestLegacyLPOptionsRouted pins the LP options plumbing: under LP a
// Solver honors Options.MaxModels and reports Stats, and a brave query
// carries its witness model, instead of silently dropping them.
func TestLegacyLPOptionsRouted(t *testing.T) {
	prog := subsetProgram(5) // 32 models under every semantics
	ctx := context.Background()
	s := ntgd.MustCompile(prog, ntgd.CompileOptions{Semantics: ntgd.LP, Options: ntgd.Options{MaxModels: 2}})
	res, err := s.Collect(ctx, 0)
	if err != nil {
		t.Fatalf("Collect(LP): %v", err)
	}
	if len(res.Models) != 2 {
		t.Fatalf("LP MaxModels ignored: got %d models, want 2", len(res.Models))
	}
	if res.Stats.Nodes == 0 {
		t.Fatal("LP result dropped Stats")
	}
	s = ntgd.MustCompile(prog, ntgd.CompileOptions{Semantics: ntgd.LP})
	v, err := s.Entails(ctx, ntgd.MustParse("?- in(i0).").Queries[0], ntgd.Brave)
	if err != nil {
		t.Fatalf("Entails(LP): %v", err)
	}
	if !v.Entailed || v.Witness == nil || v.Stats.Nodes == 0 {
		t.Fatalf("LP QAResult incomplete: %+v", v)
	}
}

// TestAtomBudgetSizedToData is the regression test for the default
// atom budget: on the chain edge(c_i, c_i+1), i < 20,000, with the rule
// edge(X,Y) -> node(X), the least model holds 40,000 atoms, far past
// the 16,384 the budget once capped the whole store at, so SO must
// answer the cautious ?- node(c5). as LP does. The budget bounds the
// atoms a branch derives above the database, and the probe of a weakly
// acyclic program runs to its end.
func TestAtomBudgetSizedToData(t *testing.T) {
	prog := chainQueryProgram(20000)
	for _, sem := range []ntgd.Semantics{ntgd.SO, ntgd.LP} {
		s := ntgd.MustCompile(prog, ntgd.CompileOptions{Semantics: sem})
		res, err := s.Entails(context.Background(), prog.Queries[0], ntgd.Cautious)
		if err != nil || !res.Entailed || res.Exhausted {
			t.Fatalf("%s: Entails = (entailed %v, exhausted %v, %v), want entailed", sem, res.Entailed, res.Exhausted, err)
		}
	}
}
