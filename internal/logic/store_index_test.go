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

// TestIndexUnder pins the bound-instance lookup under a binding of slot
// ids — the compiled-atom key probe behind the kernel's ground steps and
// its callers' negative and head checks — against the stored keys:
// snapshot-chain resolution, an absent instance, an unbound slot, and a
// symbol that was never interned.
func TestIndexUnder(t *testing.T) {
	root := NewFactStore()
	root.Add(A("e", C("a"), C("b"))) // 0
	child := root.Snapshot()
	child.Add(A("e", C("b"), C("c"))) // 1

	bp := NewBodyPlans([]Atom{A("e", V("X"), V("Y")), A("e", V("Y"), V("X")), A("e", V("X"), C("b")), A("e", V("X"), C("z"))}, nil)
	syms := child.Symbols()
	a, b, c := syms.Intern(C("a")), syms.Intern(C("b")), syms.Intern(C("c"))
	probe := func(st *FactStore, k int, vals []uint32) (int, bool) {
		key, ok := bp.AppendKey(st, nil, k, vals, false)
		if !ok {
			return 0, false
		}
		return st.IndexOfKey(key)
	}
	if idx, ok := probe(child, 0, []uint32{b, c}); !ok || idx != 1 {
		t.Fatalf("e(b,c) = %d,%v want 1,true", idx, ok)
	}
	if idx, ok := probe(child, 2, []uint32{a, unbound}); !ok || idx != 0 {
		t.Fatalf("e(a,b) = %d,%v want 0,true (ancestor layer)", idx, ok)
	}
	if _, ok := probe(root, 0, []uint32{b, c}); ok {
		t.Fatalf("e(b,c) must be invisible to the root store")
	}
	if _, ok := probe(child, 1, []uint32{b, c}); ok {
		t.Fatalf("absent instance e(c,b) must report ok=false")
	}
	if _, ok := bp.AppendKey(child, nil, 0, []uint32{b, unbound}, false); ok {
		t.Fatalf("e(b,Y) with Y unbound must report ok=false (bound instances only)")
	}
	if _, ok := bp.AppendKey(child, nil, 0, []uint32{b}, false); ok {
		t.Fatalf("e(b,Y) with Y beyond the given ids must report ok=false")
	}
	if _, ok := bp.AppendKey(child, nil, 3, []uint32{a, unbound}, false); ok {
		t.Fatalf("e(a,z) names a constant never interned: its key must report ok=false")
	}
	key, ok := bp.AppendKey(child, nil, 3, []uint32{a, unbound}, true)
	if !ok || child.Has(A("e", C("a"), C("z"))) {
		t.Fatalf("interning e(a,z)'s key must succeed without adding the atom")
	}
	if !child.AddKey(key) || !child.Has(A("e", C("a"), C("z"))) || child.AddKey(key) {
		t.Fatalf("AddKey must add e(a,z) once")
	}
}
