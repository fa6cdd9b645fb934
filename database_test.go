package ntgd_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"ntgd"
)

// TestDatabaseMatchesLegacyCompile pins the PR 9 wrapper-equivalence
// contract: compiling a program whose facts live in a pre-loaded
// Database yields exactly the canonical model set of the legacy path
// that carries the facts inside the Program — under every semantics,
// including when the facts are split between the Database and the
// Program.
func TestDatabaseMatchesLegacyCompile(t *testing.T) {
	progs := []string{
		"e(a,b). e(b,c). e(c,a). u(a). e(X,Y), not u(Y) -> r(X,Y).",
		"p(a). p(b). p(X) -> q(X) | r(X).",
		"n(a). n(b). same(a,a). same(b,b). n(X), not out(X) -> in(X). n(X), in(X), same(X,X), not in(X) -> bad.",
		"v(a). v(b). v(X) -> edge(X,Y).",
	}
	sems := []ntgd.Semantics{ntgd.SO, ntgd.LP, ntgd.Operational}
	opt := ntgd.Options{MaxModels: 32, MaxNodes: 200000}
	for pi, src := range progs {
		prog := ntgd.MustParse(src)
		for _, sem := range sems {
			t.Run(sem.String(), func(t *testing.T) {
				legacy, err := ntgd.Compile(prog, ntgd.CompileOptions{Semantics: sem, Options: opt})
				if err != nil {
					if strings.Contains(err.Error(), "existential") || strings.Contains(err.Error(), "disjunct") {
						t.Skipf("program %d unsupported under %v: %v", pi, sem, err)
					}
					t.Fatalf("legacy compile: %v", err)
				}
				want, werr := collectModels(context.Background(), legacy)
				if werr != nil {
					t.Fatalf("legacy models: %v", werr)
				}
				wantSet := canonicalSet(want)

				rulesOnly := &ntgd.Program{Rules: prog.Rules, Queries: prog.Queries}

				// Database path: every fact bulk-loaded up front.
				db := ntgd.NewDatabase()
				if err := db.AddFacts(prog.Facts...); err != nil {
					t.Fatalf("AddFacts: %v", err)
				}
				sdb := ntgd.MustCompile(rulesOnly, ntgd.CompileOptions{Semantics: sem, Options: opt, Database: db})
				got, err := collectModels(context.Background(), sdb)
				if err != nil {
					t.Fatalf("database-path models: %v", err)
				}
				if !equalStringSlices(canonicalSet(got), wantSet) {
					t.Fatalf("program %d: database path differs:\n%v\nwant %v", pi, canonicalSet(got), wantSet)
				}

				// Split path: half the facts in the Database, half still in
				// the Program (layered on the snapshot at compile time).
				half := len(prog.Facts) / 2
				db2 := ntgd.NewDatabase()
				if err := db2.AddFacts(prog.Facts[:half]...); err != nil {
					t.Fatalf("AddFacts: %v", err)
				}
				mixed := &ntgd.Program{Rules: prog.Rules, Facts: prog.Facts[half:], Queries: prog.Queries}
				smix := ntgd.MustCompile(mixed, ntgd.CompileOptions{Semantics: sem, Options: opt, Database: db2})
				got, err = collectModels(context.Background(), smix)
				if err != nil {
					t.Fatalf("split-path models: %v", err)
				}
				if !equalStringSlices(canonicalSet(got), wantSet) {
					t.Fatalf("program %d: split path differs:\n%v\nwant %v", pi, canonicalSet(got), wantSet)
				}
			})
		}
	}
}

// TestDatabaseLifecycle pins the builder contract: validation at
// AddFacts, idempotent Freeze, the frozen-write error, and Len before
// and after Freeze.
func TestDatabaseLifecycle(t *testing.T) {
	db := ntgd.NewDatabase()
	if err := db.AddFacts(ntgd.A("p", ntgd.C("a")), ntgd.A("p", ntgd.C("b")), ntgd.A("p", ntgd.C("a"))); err != nil {
		t.Fatalf("AddFacts: %v", err)
	}
	if got := db.Len(); got != 3 {
		t.Fatalf("pending Len = %d, want 3 (pre-freeze upper bound)", got)
	}
	if err := db.AddFacts(ntgd.A("q", ntgd.V("X"))); err == nil {
		t.Fatalf("non-ground fact must be rejected")
	}
	if err := db.AddFacts(ntgd.A("q", ntgd.N("n1"))); err == nil {
		t.Fatalf("null-carrying fact must be rejected")
	}
	if got := db.Freeze(); got != 2 {
		t.Fatalf("Freeze = %d, want 2 (duplicates collapse)", got)
	}
	if got := db.Freeze(); got != 2 {
		t.Fatalf("second Freeze = %d, want 2 (idempotent)", got)
	}
	if err := db.AddFacts(ntgd.A("p", ntgd.C("c"))); err == nil {
		t.Fatalf("AddFacts after Freeze must fail")
	}
	if got := db.Len(); got != 2 {
		t.Fatalf("frozen Len = %d, want 2", got)
	}
}

// TestDatabaseSharedAcrossSolvers compiles several different programs
// against one Database concurrently and checks each sees exactly the
// shared facts plus its own rules' consequences — the snapshot layers
// keep the solvers isolated while the root is shared.
func TestDatabaseSharedAcrossSolvers(t *testing.T) {
	db := ntgd.NewDatabase()
	if err := db.AddFacts(
		ntgd.A("e", ntgd.C("a"), ntgd.C("b")),
		ntgd.A("e", ntgd.C("b"), ntgd.C("c")),
		ntgd.A("u", ntgd.C("a")),
	); err != nil {
		t.Fatalf("AddFacts: %v", err)
	}
	rules := []string{
		"e(X,Y), e(Y,Z) -> t(X,Z).",
		"e(X,Y), not u(X) -> w(X).",
		"u(X), e(X,Y) -> both(X).",
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(rules)*4)
	for i := 0; i < 4; i++ {
		for _, r := range rules {
			wg.Add(1)
			go func(r string) {
				defer wg.Done()
				prog := ntgd.MustParse(r)
				s, err := ntgd.Compile(prog, ntgd.CompileOptions{Database: db})
				if err != nil {
					errs <- err
					return
				}
				models, err := collectModels(context.Background(), s)
				if err != nil {
					errs <- err
					return
				}
				if len(models) != 1 {
					errs <- context.DeadlineExceeded // any sentinel: count mismatch
				}
			}(r)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("shared-database solve failed: %v", err)
	}
	if got := db.Len(); got != 3 {
		t.Fatalf("shared root grew to %d facts; solver layers leaked into the root", got)
	}
}
