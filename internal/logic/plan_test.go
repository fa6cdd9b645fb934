package logic

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

func wantCacheStats(t *testing.T, bp *BodyPlans, hits, misses, replans int64) {
	t.Helper()
	h, m, r := bp.CacheStats()
	if h != hits || m != misses || r != replans {
		t.Fatalf("cache stats (hits,misses,replans) = (%d,%d,%d), want (%d,%d,%d)",
			h, m, r, hits, misses, replans)
	}
}

// TestPlanCacheHitMissPerBindingPattern pins the cache key: one plan
// slot per binding pattern (which variables init grounds), shared by
// every init with that pattern, and one slot per delta seed.
func TestPlanCacheHitMissPerBindingPattern(t *testing.T) {
	store := StoreOf(
		A("q", C("a"), C("b")), A("q", C("b"), C("c")),
		A("r", C("b"), C("c")), A("r", C("c"), C("d")),
	)
	bp := NewBodyPlans([]Atom{A("q", V("X"), V("Y")), A("r", V("Y"), V("Z"))}, nil)
	run := func(init Subst) {
		bp.searchSubst(new(Scratch), store, 0, init, func(Subst) bool { return true })
	}
	run(Subst{}) // first empty-pattern call plans
	wantCacheStats(t, bp, 0, 1, 0)
	run(Subst{}) // second reuses it
	wantCacheStats(t, bp, 1, 1, 0)
	run(Subst{"X": C("a")}) // new binding pattern: new slot
	wantCacheStats(t, bp, 1, 2, 0)
	run(Subst{"X": C("b")}) // same pattern, different constant: hit
	wantCacheStats(t, bp, 2, 2, 0)
	run(Subst{"Y": C("b")}) // yet another pattern
	wantCacheStats(t, bp, 2, 3, 0)

	// Delta searches key plans by seed position: one miss per seed on
	// the first sweep, all hits on the second. (A 3-atom body, since
	// two-atom delta searches skip planning — the seed pins atom 0 and
	// one movable atom has nothing to reorder against.)
	bp3 := NewBodyPlans([]Atom{
		A("q", V("X"), V("Y")), A("q", V("Y"), V("Z")), A("r", V("Z"), V("W")),
	}, nil)
	bp3.searchSubst(new(Scratch), store, 1, Subst{}, func(Subst) bool { return true })
	wantCacheStats(t, bp3, 0, 3, 0)
	bp3.searchSubst(new(Scratch), store, 1, Subst{}, func(Subst) bool { return true })
	wantCacheStats(t, bp3, 3, 3, 0)
}

// TestPlanCacheReplanThreshold pins the growth-only invalidation: a
// cached plan survives until some body predicate grows past
// replanGrowth*planTimeCount+replanSlack, and stays valid on smaller
// stores (sibling snapshots) indefinitely.
func TestPlanCacheReplanThreshold(t *testing.T) {
	store := NewFactStore()
	store.Add(A("p", C("a")))
	store.Add(A("q", C("a"), C("b")))
	bp := NewBodyPlans([]Atom{A("p", V("X")), A("q", V("X"), V("Y"))}, nil)
	run := func(s *FactStore) {
		bp.searchSubst(new(Scratch), s, 0, Subst{}, func(Subst) bool { return true })
	}
	run(store) // plan with q count 1: threshold 2*1+8 = 10
	wantCacheStats(t, bp, 0, 1, 0)
	for i := 0; store.CountPred("q") < replanGrowth*1+replanSlack; i++ {
		store.Add(A("q", C("c"), C(fmt.Sprintf("g%d", i))))
	}
	run(store) // exactly at the threshold: still valid
	wantCacheStats(t, bp, 1, 1, 0)
	store.Add(A("q", C("c"), C("z"))) // one past: invalidated
	run(store)
	wantCacheStats(t, bp, 1, 1, 1)
	run(store) // the re-plan is cached in turn
	wantCacheStats(t, bp, 2, 1, 1)
	// Growth-only: the plan cached against the big store remains valid
	// on a small sibling — shrinkage never thrashes a shared cache.
	small := StoreOf(A("p", C("a")), A("q", C("a"), C("b")))
	run(small)
	wantCacheStats(t, bp, 3, 1, 1)
}

// TestPlanCacheConcurrentSnapshotReaders hammers one shared BodyPlans
// from workers running against diverged sibling snapshots — the
// parallel-search usage — while each worker's growing layer forces
// replans at different store sizes. Results must always equal the
// naive oracle; run under -race this checks the lock-free lookup
// against the copy-on-write publish.
func TestPlanCacheConcurrentSnapshotReaders(t *testing.T) {
	base := NewFactStore()
	consts := []string{"a", "b", "c", "d"}
	for i, c := range consts {
		base.Add(A("p", C(c)))
		base.Add(A("q", C(c), C(consts[(i+1)%len(consts)])))
	}
	pos := []Atom{A("p", V("X")), A("q", V("X"), V("Y")), A("q", V("Y"), V("Z"))}
	bp := NewBodyPlans(pos, nil)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc Scratch
			snap := base.Snapshot()
			for round := 0; round < 12; round++ {
				// Diverge the sibling: grow q past the re-plan threshold
				// at a per-worker rate.
				for i := 0; i <= w; i++ {
					snap.Add(A("q", C(fmt.Sprintf("w%d", w)), C(fmt.Sprintf("r%dx%d", round, i))))
				}
				var got, want []string
				bp.searchSubst(&sc, snap, 0, Subst{}, func(h Subst) bool {
					got = append(got, h.String())
					return true
				})
				naiveFindHoms(pos, nil, snap, Subst{}, func(h Subst) bool {
					want = append(want, h.String())
					return true
				})
				sort.Strings(got)
				sort.Strings(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					select {
					case errs <- fmt.Sprintf("worker %d round %d: planned %d homs, naive %d", w, round, len(got), len(want)):
					default:
					}
					return
				}
				from := snap.Len() - 1 - round%3
				var nDelta int
				bp.searchSubst(&sc, snap, from, Subst{}, func(h Subst) bool {
					nDelta++
					return true
				})
				want = deltaOracle(pos, nil, snap, from, Subst{})
				if nDelta != len(want) {
					select {
					case errs <- fmt.Sprintf("worker %d round %d: delta %d homs, oracle %d", w, round, nDelta, len(want)):
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if hits, misses, _ := bp.CacheStats(); hits == 0 || misses == 0 {
		t.Fatalf("expected both cache hits and misses under concurrency, got hits=%d misses=%d", hits, misses)
	}
}
