package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"ntgd/internal/engine"
	"ntgd/internal/logic"
)

// choiceProgram has 2^n stable models — enough independent sibling
// subtrees that the pool demonstrably forks, and enough models that
// cancellation and early stops land mid-enumeration.
func choiceProgram(t *testing.T, n int) *logic.Program {
	t.Helper()
	src := ""
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("item(i%d).\n", i)
	}
	src += "item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n"
	return mustParseInternal(t, src)
}

// awaitNoExtraGoroutines fails the test if the goroutine count stays
// above the baseline: the pool must join every worker before an
// enumeration returns, whatever ended it.
func awaitNoExtraGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelMatchesSequentialSet pins set-equality directly on a
// branch-heavy program: every pool size emits exactly the canonical
// model set of the sequential search.
func TestParallelMatchesSequentialSet(t *testing.T) {
	prog := choiceProgram(t, 7) // 128 models
	db := prog.Database()
	keysAt := func(workers int) []string {
		var keys []string
		_, exhausted, err := enumStableModels(db, prog.Rules, Options{Workers: workers}, func(m *logic.FactStore) bool {
			keys = append(keys, canonicalModelKey(m))
			return true
		}, false)
		if err != nil || exhausted {
			t.Fatalf("workers=%d: err=%v exhausted=%v", workers, err, exhausted)
		}
		sort.Strings(keys)
		return keys
	}
	want := keysAt(1)
	if len(want) != 128 {
		t.Fatalf("sequential search found %d models, want 128", len(want))
	}
	for _, w := range []int{2, 4, 8} {
		got := keysAt(w)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: model set diverges from sequential (%d vs %d models)", w, len(got), len(want))
		}
	}
}

// TestParallelCancellationMidSearch cancels the context after a few
// models with a 4-worker pool: the run must end with the context
// error, report partial stats, join every worker goroutine, and leave
// the compiled engine reusable for a complete follow-up enumeration.
func TestParallelCancellationMidSearch(t *testing.T) {
	prog := choiceProgram(t, 10) // 1024 models
	baseline := runtime.NumGoroutine()
	c, err := Compile(prog.Database(), prog.Rules, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := 0
	stats, exhausted, err := c.Enumerate(ctx, engine.Params{}, func(m *logic.FactStore) bool {
		got++
		if got == 3 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !exhausted {
		t.Fatal("cancelled run must report a possibly incomplete enumeration")
	}
	if got < 3 || got >= 1024 {
		t.Fatalf("models before cancellation = %d, want a small prefix", got)
	}
	if stats.Nodes <= 0 || stats.ModelsEmitted < int64(got) {
		t.Fatalf("partial stats not recorded: %+v", stats)
	}
	awaitNoExtraGoroutines(t, baseline)
	// The engine must be reusable: a healthy context enumerates the
	// full set with the same pool size.
	n := 0
	_, exhausted, err = c.Enumerate(context.Background(), engine.Params{}, func(m *logic.FactStore) bool {
		n++
		return true
	})
	if err != nil || exhausted {
		t.Fatalf("second enumeration: err=%v exhausted=%v", err, exhausted)
	}
	if n != 1024 {
		t.Fatalf("second enumeration found %d models, want 1024", n)
	}
	awaitNoExtraGoroutines(t, baseline)
}

// TestParallelEarlyVisitorStop stops the visitor after one model: the
// run must end without an error, not report exhaustion, and join every
// worker.
func TestParallelEarlyVisitorStop(t *testing.T) {
	prog := choiceProgram(t, 8) // 256 models
	baseline := runtime.NumGoroutine()
	c, err := Compile(prog.Database(), prog.Rules, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	stats, exhausted, err := c.Enumerate(context.Background(), engine.Params{}, func(m *logic.FactStore) bool {
		got++
		return false
	})
	if err != nil {
		t.Fatalf("visitor stop must not be an error, got %v", err)
	}
	if exhausted {
		t.Fatal("visitor stop must not report exhaustion")
	}
	if got != 1 {
		t.Fatalf("visitor called %d times after stopping, want 1", got)
	}
	if stats.ModelsEmitted != 1 {
		t.Fatalf("ModelsEmitted = %d, want 1", stats.ModelsEmitted)
	}
	awaitNoExtraGoroutines(t, baseline)
}

// TestParallelBudgetExhaustion hits the shared MaxNodes budget with a
// 4-worker pool: the run reports ErrBudget with partial results and
// joins every worker.
func TestParallelBudgetExhaustion(t *testing.T) {
	prog := choiceProgram(t, 10)
	baseline := runtime.NumGoroutine()
	_, exhausted, err := enumStableModels(prog.Database(), prog.Rules,
		Options{Workers: 4, MaxNodes: 64}, func(m *logic.FactStore) bool { return true }, false)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if !exhausted {
		t.Fatal("budget hit must report exhaustion")
	}
	awaitNoExtraGoroutines(t, baseline)
}

// TestParallelWorkersParamOverride pins the per-run engine.Params
// override: a Compiled built sequential can run parallel (and back)
// without recompiling, emitting the same canonical set.
func TestParallelWorkersParamOverride(t *testing.T) {
	prog := choiceProgram(t, 6) // 64 models
	c, err := Compile(prog.Database(), prog.Rules, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	count := func(p engine.Params) int {
		n := 0
		_, _, err := c.Enumerate(context.Background(), p, func(m *logic.FactStore) bool {
			n++
			return true
		})
		if err != nil {
			t.Fatalf("enumerate %+v: %v", p, err)
		}
		return n
	}
	if n := count(engine.Params{}); n != 64 {
		t.Fatalf("sequential: %d models, want 64", n)
	}
	if n := count(engine.Params{Workers: 4}); n != 64 {
		t.Fatalf("workers=4 override: %d models, want 64", n)
	}
	if n := count(engine.Params{Workers: 1}); n != 64 {
		t.Fatalf("workers=1 override: %d models, want 64", n)
	}
}
