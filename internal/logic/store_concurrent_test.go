package logic

import (
	"fmt"
	"sync"
	"testing"
)

// TestSnapshotConcurrentBranchReaders pins the freeze discipline the
// parallel stable-model search relies on (see the concurrency notes on
// FactStore): after a branch point's layer stops growing, its sibling
// snapshots may be grown and read from different goroutines
// concurrently. Each worker appends to its own layer, deepens its own
// chain, and reads through the shared frozen ancestors the whole time;
// run under -race this proves the read paths are mutation-free and the
// goroutine-spawn edge is the only synchronization required.
func TestSnapshotConcurrentBranchReaders(t *testing.T) {
	root := NewFactStore()
	for i := 0; i < 256; i++ {
		root.Add(A("e", C(fmt.Sprintf("a%d", i%16)), C(fmt.Sprintf("b%d", i/16))))
	}
	// branchNode plays the search node that froze after its last
	// deterministic trigger fired: it grew its own layer on top of the
	// root, then branched.
	branchNode := root.Snapshot()
	for i := 0; i < 64; i++ {
		branchNode.Add(A("d", C(fmt.Sprintf("n%d", i))))
	}
	frozenLen := branchNode.Len()
	baseDomain := len(branchNode.Domain())

	const workers = 8
	const ownAtoms = 120
	// One shared plan cache, as the parallel search shares one BodyPlans
	// per rule across all workers: every worker's hom probes below go
	// through it, racing lock-free plan lookups against publishes from
	// siblings whose layers have grown past the re-plan threshold.
	sharedPlans := NewBodyPlans([]Atom{A("own", V("Z"), V("Y")), A("e", V("Y"), V("W"))}, nil)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		child := branchNode.Snapshot() // snapshotted before the spawn, as in branch()
		wg.Add(1)
		go func(g int, st *FactStore) {
			defer wg.Done()
			var sc Scratch // per worker, as each search worker owns one
			fail := func(format string, args ...any) {
				select {
				case errs <- fmt.Errorf("worker %d: "+format, append([]any{g}, args...)...):
				default:
				}
			}
			for i := 0; i < ownAtoms; i++ {
				st.Add(A("own", C(fmt.Sprintf("g%d_%d", g, i)), C(fmt.Sprintf("a%d", i%16))))
				// Interleave every kind of chain-merging read with the
				// writes to the owned tail.
				if !st.Has(A("e", C("a3"), C("b2"))) {
					fail("lost ancestor atom at step %d", i)
					return
				}
				if st.Has(A("own", C(fmt.Sprintf("g%d_%d", (g+1)%workers, i)), C("a0"))) {
					fail("sees a sibling's atom")
					return
				}
				if i%16 == 0 {
					if n := len(st.Snapshot().Domain()); n < baseDomain {
						fail("domain shrank to %d", n)
						return
					}
					if got := st.CountPred("own"); got != i+1 {
						fail("CountPred(own) = %d at step %d", got, i)
						return
					}
					// Deepen the owned chain mid-run: chains flatten
					// past maxSnapshotDepth, exercising flatten()
					// against the frozen ancestors.
					st = st.Snapshot()
				}
				if !ExistsHom([]Atom{A("e", V("X"), V("Y"))}, nil, st, Subst{"X": C("a1")}) {
					fail("hom probe through the chain failed")
					return
				}
				if i%8 == 0 {
					// Joined probe through the shared plan cache: the own
					// atom just added must be reachable regardless of
					// which sibling's plan the lookup hits.
					// Slots are W, Y, Z: pre-bind Z alone.
					z := st.Symbols().Intern(C(fmt.Sprintf("g%d_%d", g, i)))
					if !sharedPlans.Exists(&sc, st, []uint32{unbound, unbound, z}) {
						fail("planned join probe missed own atom at step %d", i)
						return
					}
				}
			}
			if got := st.Len(); got != frozenLen+ownAtoms {
				fail("Len = %d, want %d", got, frozenLen+ownAtoms)
			}
		}(g, child)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if branchNode.Len() != frozenLen {
		t.Fatalf("frozen branch node grew: %d -> %d", frozenLen, branchNode.Len())
	}
}
