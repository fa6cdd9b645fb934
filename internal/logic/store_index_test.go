package logic

import (
	"math/rand"
	"sort"
	"testing"
)

// Unit tests for the (predicate, position, term) posting lists
// maintained incrementally by Add/AddAll.

// The helpers below resolve predicate names and terms through the
// store's interner, mirroring the pre-interning string-addressed API so
// the tests read in terms of predicates and terms rather than raw ids.

func postingsOf(s *FactStore, pred string, pos int, term Term) []uint32 {
	pid, ok := s.syms.LookupPred(pred)
	if !ok {
		return nil
	}
	tid, ok := s.syms.Lookup(term)
	if !ok {
		return nil
	}
	return s.postings(pid, pos, tid)
}

func postingsCountOf(s *FactStore, pred string, pos int, term Term, lo, hi int) int {
	pid, ok := s.syms.LookupPred(pred)
	if !ok {
		return 0
	}
	tid, ok := s.syms.Lookup(term)
	if !ok {
		return 0
	}
	return s.postingsCount(pid, pos, tid, lo, hi)
}

func predIndicesOf(s *FactStore, pred string, lo, hi int) []uint32 {
	pid, ok := s.syms.LookupPred(pred)
	if !ok {
		return nil
	}
	return s.appendPredIndices(pid, lo, hi, nil)
}

func countPredWindowOf(s *FactStore, pred string, lo, hi int) int {
	pid, ok := s.syms.LookupPred(pred)
	if !ok {
		return 0
	}
	return s.countPredWindow(pid, lo, hi)
}

func TestPostingsMaintainedByAdd(t *testing.T) {
	s := NewFactStore()
	s.Add(A("q", C("a"), C("b"))) // idx 0
	s.Add(A("q", C("a"), C("c"))) // idx 1
	s.Add(A("q", C("b"), C("a"))) // idx 2
	s.Add(A("q", C("a"), C("b"))) // duplicate: no index growth

	if got := postingsOf(s, "q", 0, C("a")); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("postings(q,0,a) = %v, want [0 1]", got)
	}
	if got := postingsOf(s, "q", 1, C("b")); len(got) != 1 || got[0] != 0 {
		t.Fatalf("postings(q,1,b) = %v, want [0]", got)
	}
	if got := postingsOf(s, "q", 0, C("z")); got != nil {
		t.Fatalf("postings for absent term = %v, want nil", got)
	}
	if got := postingsOf(s, "zzz", 0, C("a")); got != nil {
		t.Fatalf("postings for absent pred = %v, want nil", got)
	}
}

func TestPostingsCoverNullsAndFunctionTerms(t *testing.T) {
	s := NewFactStore()
	s.Add(A("p", N("n1")))        // idx 0
	s.Add(A("p", F("f", C("a")))) // idx 1
	if got := postingsOf(s, "p", 0, N("n1")); len(got) != 1 || got[0] != 0 {
		t.Fatalf("null posting = %v", got)
	}
	if got := postingsOf(s, "p", 0, F("f", C("a"))); len(got) != 1 || got[0] != 1 {
		t.Fatalf("func-term posting = %v", got)
	}
	// Term ids are kind-discriminated: the constant "n1" is distinct
	// from the null n1.
	if got := postingsOf(s, "p", 0, C("n1")); got != nil {
		t.Fatalf("constant n1 should have no posting, got %v", got)
	}
}

func TestPostingsAddAllAndCloneIndependence(t *testing.T) {
	s := NewFactStore()
	s.AddAll([]Atom{
		A("q", C("a"), C("b")),
		A("q", C("a"), C("b")), // dup
		A("q", C("c"), C("b")),
	})
	if got := postingsOf(s, "q", 1, C("b")); len(got) != 2 {
		t.Fatalf("AddAll postings = %v, want 2 entries", got)
	}
	c := s.Clone()
	c.Add(A("q", C("d"), C("b")))
	if got := postingsOf(s, "q", 1, C("b")); len(got) != 2 {
		t.Fatalf("clone mutation leaked into original: %v", got)
	}
	if got := postingsOf(c, "q", 1, C("b")); len(got) != 3 {
		t.Fatalf("clone postings = %v, want 3 entries", got)
	}
}

// TestPostingsInvariantRandomized checks, on a random store, that the
// posting-list index is exactly the ascending list of store indices
// whose atom carries each term at each position — no more, no less.
func TestPostingsInvariantRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewFactStore()
	for i := 0; i < 300; i++ {
		s.Add(randGroundAtom(rng))
	}
	// Reconstruct the expected index from the atom list.
	type postKey struct {
		pred string
		pos  int
		term string
	}
	want := map[postKey][]int{}
	terms := map[postKey]Term{}
	for i, a := range s.Atoms() {
		for pos, term := range a.Args {
			k := postKey{pred: a.Pred, pos: pos, term: term.Key()}
			want[k] = append(want[k], i)
			terms[k] = term
		}
	}
	if n := len(s.ix.byArg.entries); len(want) != n {
		t.Fatalf("index has %d posting lists, want %d", n, len(want))
	}
	for k, idxs := range want {
		got := postingsOf(s, k.pred, k.pos, terms[k])
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("posting list %v not ascending: %v", k, got)
		}
		if len(got) != len(idxs) {
			t.Fatalf("posting %v: got %v want %v", k, got, idxs)
		}
		for i := range got {
			if int(got[i]) != idxs[i] {
				t.Fatalf("posting %v: got %v want %v", k, got, idxs)
			}
		}
	}
}

// TestEachAtomIn pins the index-window iteration across a snapshot
// chain: ascending global order, visibility clipping (a parent growing
// past a child's base stays invisible to the child), and early stop.
func TestEachAtomIn(t *testing.T) {
	root := NewFactStore()
	root.Add(A("p", C("a"))) // 0
	root.Add(A("p", C("b"))) // 1
	child := root.Snapshot()
	child.Add(A("q", C("c"))) // 2
	child.Add(A("q", C("d"))) // 3
	root.Add(A("p", C("x")))  // parent growth, invisible to child
	grand := child.Snapshot()
	grand.Add(A("r", C("e"))) // 4

	collect := func(s *FactStore, lo, hi int) []int {
		var idxs []int
		s.EachAtomIn(lo, hi, func(i int, a Atom) bool {
			idxs = append(idxs, i)
			if got := s.AtomAt(i); !got.Equal(a) {
				t.Fatalf("EachAtomIn index %d yields %v, AtomAt yields %v", i, a, got)
			}
			return true
		})
		return idxs
	}
	wantSeq := func(got []int, want ...int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("window = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window = %v, want %v", got, want)
			}
		}
	}
	wantSeq(collect(grand, 0, grand.Len()), 0, 1, 2, 3, 4)
	wantSeq(collect(grand, 2, grand.Len()), 2, 3, 4)
	wantSeq(collect(grand, 1, 4), 1, 2, 3)
	wantSeq(collect(child, 0, child.Len()), 0, 1, 2, 3)
	wantSeq(collect(grand, 3, 3)) // empty window
	wantSeq(collect(grand, -5, 100), 0, 1, 2, 3, 4)

	// Early stop propagates.
	n := 0
	if grand.EachAtomIn(0, grand.Len(), func(int, Atom) bool {
		n++
		return n < 2
	}) {
		t.Fatalf("stopped walk must report false")
	}
	if n != 2 {
		t.Fatalf("early stop visited %d atoms, want 2", n)
	}
}

// TestIndexUnder pins the index-based bound-instance lookup against
// lookups through rendered keys, including snapshot-chain resolution
// and the non-ground/absent cases.
func TestIndexUnder(t *testing.T) {
	root := NewFactStore()
	root.Add(A("e", C("a"), C("b"))) // 0
	child := root.Snapshot()
	child.Add(A("e", C("b"), C("c"))) // 1

	h := Subst{"X": C("b"), "Y": C("c")}
	if idx, ok := child.IndexUnder(h, A("e", V("X"), V("Y"))); !ok || idx != 1 {
		t.Fatalf("IndexUnder(e(b,c)) = %d,%v want 1,true", idx, ok)
	}
	if idx, ok := child.IndexUnder(Subst{"X": C("a")}, A("e", V("X"), C("b"))); !ok || idx != 0 {
		t.Fatalf("IndexUnder(e(a,b)) = %d,%v want 0,true (ancestor layer)", idx, ok)
	}
	if _, ok := root.IndexUnder(h, A("e", V("X"), V("Y"))); ok {
		t.Fatalf("e(b,c) must be invisible to the root store")
	}
	if _, ok := child.IndexUnder(Subst{}, A("e", V("Z"), C("b"))); ok {
		t.Fatalf("non-ground instance must report ok=false")
	}
	if _, ok := child.IndexUnder(h, A("e", V("Y"), V("X"))); ok {
		t.Fatalf("absent instance must report ok=false")
	}
}
