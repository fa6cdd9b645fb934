package logic

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestSnapshotChildWritesInvisibleToParent(t *testing.T) {
	parent := StoreOf(A("p", C("a")), A("q", C("a"), C("b")))
	child := parent.Snapshot()
	if !child.Add(A("p", C("b"))) {
		t.Fatalf("new atom must be added to the child")
	}
	if child.Add(A("p", C("a"))) {
		t.Fatalf("parent atoms must deduplicate through the child")
	}
	if parent.Len() != 2 {
		t.Fatalf("parent.Len() = %d after child write, want 2", parent.Len())
	}
	if parent.Has(A("p", C("b"))) {
		t.Fatalf("child write leaked into the parent")
	}
	if child.Len() != 3 || !child.Has(A("p", C("b"))) || !child.Has(A("p", C("a"))) {
		t.Fatalf("child view wrong: len=%d", child.Len())
	}
	if idx, ok := child.IndexOfAtom(A("p", C("b"))); !ok || idx != 2 {
		t.Fatalf("child atom index = %d, %v; want global index 2", idx, ok)
	}
	if got := child.AtomAt(2); !got.Equal(A("p", C("b"))) {
		t.Fatalf("AtomAt(2) = %s", got)
	}
	if got := child.AtomAt(0); !got.Equal(A("p", C("a"))) {
		t.Fatalf("AtomAt(0) = %s", got)
	}
}

func TestSnapshotParentGrowsAfterSnapshot(t *testing.T) {
	parent := StoreOf(A("p", C("a")))
	child := parent.Snapshot()
	parent.Add(A("p", C("z")))
	if child.Has(A("p", C("z"))) {
		t.Fatalf("parent growth after the snapshot must be invisible to the child")
	}
	if child.Len() != 1 {
		t.Fatalf("child.Len() = %d, want 1", child.Len())
	}
	// The child may even re-add the atom independently.
	if !child.Add(A("p", C("z"))) {
		t.Fatalf("child must be able to add the invisible atom itself")
	}
	if got := child.CountPred("p"); got != 2 {
		t.Fatalf("child CountPred(p) = %d, want 2", got)
	}
	if got := parent.CountPred("p"); got != 2 {
		t.Fatalf("parent CountPred(p) = %d, want 2", got)
	}
	for _, d := range child.Domain() {
		_ = d
	}
	if z, ok := child.Symbols().Lookup(C("z")); !ok || !child.HasDomainID(z) || !parent.HasDomainID(z) {
		t.Fatalf("domain bookkeeping wrong after independent re-add")
	}
}

// TestSnapshotThreeLayerViews pins the merged views — postings,
// per-predicate lists, Domain, Preds, canonical rendering, Equal — on a
// chain of three snapshot layers against a flat reference store built
// from the same atoms.
func TestSnapshotThreeLayerViews(t *testing.T) {
	l0 := StoreOf(A("e", C("a"), C("b")), A("e", C("b"), C("c")), A("u", C("a")))
	l1 := l0.Snapshot()
	l1.Add(A("e", C("a"), C("c")))
	l1.Add(A("u", C("b")))
	l2 := l1.Snapshot()
	l2.Add(A("e", C("d"), C("b")))
	l3 := l2.Snapshot()
	l3.Add(A("e", C("a"), N("n1")))
	l3.Add(A("v", C("d")))

	flat := NewFactStore()
	for _, a := range l3.Atoms() {
		flat.Add(a)
	}
	if l3.Len() != 8 || flat.Len() != 8 {
		t.Fatalf("layered len=%d flat len=%d, want 8", l3.Len(), flat.Len())
	}
	if !l3.Equal(flat) || !flat.Equal(l3) {
		t.Fatalf("layered store must equal its flat reconstruction")
	}
	if l3.CanonicalString() != flat.CanonicalString() {
		t.Fatalf("canonical strings differ:\n%s\n%s", l3.CanonicalString(), flat.CanonicalString())
	}
	if got, want := fmt.Sprint(l3.Preds()), fmt.Sprint(flat.Preds()); got != want {
		t.Fatalf("Preds: %s vs %s", got, want)
	}
	if got, want := fmt.Sprint(l3.Domain()), fmt.Sprint(flat.Domain()); got != want {
		t.Fatalf("Domain: %s vs %s", got, want)
	}
	// Posting lists must merge across layers in ascending index order.
	if got := postingsOf(l3, "e", 0, C("a")); fmt.Sprint(got) != fmt.Sprint([]int{0, 3, 6}) {
		t.Fatalf("postings(e,0,a) = %v, want [0 3 6]", got)
	}
	if got := postingsOf(l3, "e", 1, C("b")); fmt.Sprint(got) != fmt.Sprint([]int{0, 5}) {
		t.Fatalf("postings(e,1,b) = %v, want [0 5]", got)
	}
	if got := postingsCountOf(l3, "e", 0, C("a"), 1, 7); got != 2 {
		t.Fatalf("postingsCount(e,0,a,[1,7)) = %d, want 2", got)
	}
	if got := predIndicesOf(l3, "e", 0, l3.Len()); fmt.Sprint(got) != fmt.Sprint([]int{0, 1, 3, 5, 6}) {
		t.Fatalf("pred indices for e = %v", got)
	}
	if got := countPredWindowOf(l3, "e", 2, 6); got != 2 {
		t.Fatalf("countPredWindow(e,[2,6)) = %d, want 2", got)
	}
	// ByPred materializes in insertion order.
	bp := l3.ByPred("u")
	if len(bp) != 2 || !bp[0].Equal(A("u", C("a"))) || !bp[1].Equal(A("u", C("b"))) {
		t.Fatalf("ByPred(u) = %v", bp)
	}
	// Intermediate layers still see only their own prefix.
	if l1.Len() != 5 || l1.Has(A("v", C("d"))) {
		t.Fatalf("middle layer contaminated: len=%d", l1.Len())
	}
	if got := postingsOf(l1, "e", 0, C("a")); fmt.Sprint(got) != fmt.Sprint([]int{0, 3}) {
		t.Fatalf("l1 postings(e,0,a) = %v, want [0 3]", got)
	}
	// Clone flattens into an independent root.
	c := l3.Clone()
	if c.parent != nil || !c.Equal(l3) {
		t.Fatalf("Clone of a layer must be an equal root store")
	}
	c.Add(A("w", C("x")))
	if l3.Has(A("w", C("x"))) {
		t.Fatalf("clone write leaked into the layer")
	}
}

// TestSnapshotEmptyLayerCollapse: snapshotting a layer that never grew
// links to its parent instead, keeping chains short across write-free
// generations (deferral branches in the stable-model search).
func TestSnapshotEmptyLayerCollapse(t *testing.T) {
	root := StoreOf(A("p", C("a")))
	s1 := root.Snapshot()
	s2 := s1.Snapshot()
	s3 := s2.Snapshot()
	if s3.parent != root {
		t.Fatalf("empty layers must collapse onto the root")
	}
	if s3.depth != 1 {
		t.Fatalf("depth = %d, want 1", s3.depth)
	}
	s3.Add(A("p", C("b")))
	if s2.Len() != 1 || s3.Len() != 2 {
		t.Fatalf("collapse broke visibility: %d %d", s2.Len(), s3.Len())
	}
}

// TestSnapshotDeepChainFlattens: chains deeper than maxSnapshotDepth
// flatten into a fresh root, and the view stays correct throughout.
func TestSnapshotDeepChainFlattens(t *testing.T) {
	s := StoreOf(A("p", C("c0")))
	for i := 1; i <= 2*maxSnapshotDepth; i++ {
		s = s.Snapshot()
		s.Add(A("p", C(fmt.Sprintf("c%d", i))))
		if s.depth > maxSnapshotDepth {
			t.Fatalf("depth %d exceeds the cap", s.depth)
		}
	}
	if s.Len() != 2*maxSnapshotDepth+1 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 0; i <= 2*maxSnapshotDepth; i++ {
		if !s.Has(A("p", C(fmt.Sprintf("c%d", i)))) {
			t.Fatalf("atom %d lost across flattening", i)
		}
	}
}

// TestSnapshotHomSearchDifferential: FindHoms and FindHomsFrom over a
// randomly grown snapshot chain must enumerate exactly the
// homomorphisms found over a flat copy of the same atoms.
func TestSnapshotHomSearchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	consts := []string{"a", "b", "c", "d"}
	randAtom := func() Atom {
		if rng.Intn(2) == 0 {
			return A("e", C(consts[rng.Intn(len(consts))]), C(consts[rng.Intn(len(consts))]))
		}
		return A("u", C(consts[rng.Intn(len(consts))]))
	}
	pats := [][]Atom{
		{A("e", V("X"), V("Y"))},
		{A("e", V("X"), V("Y")), A("e", V("Y"), V("Z"))},
		{A("u", V("X")), A("e", V("X"), V("Y"))},
		{A("e", V("X"), V("X"))},
		{A("e", C("a"), V("Y")), A("u", V("Y"))},
	}
	collect := func(st *FactStore, pos []Atom, from int) map[string]bool {
		out := map[string]bool{}
		FindHomsFrom(pos, nil, st, from, Subst{}, func(h Subst) bool {
			out[h.String()] = true
			return true
		})
		return out
	}
	for iter := 0; iter < 50; iter++ {
		layered := NewFactStore()
		for i := 0; i < 3; i++ {
			layered.Add(randAtom())
		}
		var marks []int
		for layer := 0; layer < 4; layer++ {
			marks = append(marks, layered.Len())
			layered = layered.Snapshot()
			for i := 0; i < 1+rng.Intn(3); i++ {
				layered.Add(randAtom())
			}
		}
		flat := NewFactStore()
		for _, a := range layered.Atoms() {
			flat.Add(a)
		}
		for pi, pos := range pats {
			if got, want := collect(layered, pos, 0), collect(flat, pos, 0); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("iter %d pat %d: layered %v vs flat %v", iter, pi, got, want)
			}
			for _, from := range marks {
				if got, want := collect(layered, pos, from), collect(flat, pos, from); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("iter %d pat %d from %d: layered %v vs flat %v", iter, pi, from, got, want)
				}
			}
		}
	}
}

// TestHasUnder pins bound-instance membership under a binding of slot
// ids through the compiled-atom key probe: a present instance, an
// absent one, and one whose slot is unbound (bound instances only).
func TestHasUnder(t *testing.T) {
	s := StoreOf(A("p", C("a"), C("b")))
	bp := newBodyPlansOver([]string{"X", "Y", "Z", "W"},
		[]Atom{A("p", V("X"), V("Y")), A("p", V("X"), V("Z")), A("p", V("X"), V("W"))}, nil)
	syms := s.Symbols()
	h := []uint32{syms.Intern(C("a")), syms.Intern(C("b")), syms.Intern(C("z")), unbound}
	hasUnder := func(k int) bool {
		key, ok := bp.AppendKey(s, nil, k, h, false)
		if !ok {
			return false
		}
		_, ok = s.IndexOfKey(key)
		return ok
	}
	if !hasUnder(0) {
		t.Fatalf("bound instance present must report true")
	}
	if hasUnder(1) {
		t.Fatalf("bound instance absent must report false")
	}
	if hasUnder(2) {
		t.Fatalf("unbound variable must report false (bound-instances-only)")
	}
}

// snapshotSink keeps TestStoreAllocations' snapshots escaping, as a
// caller's would.
var snapshotSink *FactStore

// TestStoreAllocations pins the allocation profile of the per-layer
// packed index, which the search pays for on every node: a snapshot of
// a written store costs only the child struct, and membership probes
// and duplicate adds through a three-layer chain allocate nothing.
func TestStoreAllocations(t *testing.T) {
	inRoot, inMid, inTop := A("e", C("a"), C("b")), A("e", C("b"), C("c")), A("e", C("c"), C("d"))
	missing := A("e", C("d"), C("a"))
	root := StoreOf(inRoot, A("p", C("a")))
	mid := root.Snapshot()
	mid.Add(inMid)
	top := mid.Snapshot()
	top.Add(inTop)
	bp := NewBodyPlans([]Atom{A("e", V("X"), C("c"))}, nil)
	vals := []uint32{top.Symbols().Intern(C("b"))}
	var kb [16]byte
	cases := []struct {
		name string
		want float64
		fn   func()
	}{
		{"Snapshot", 1, func() { snapshotSink = top.Snapshot() }},
		{"Has", 0, func() {
			if !top.Has(inRoot) || !top.Has(inMid) || !top.Has(inTop) || top.Has(missing) {
				t.Fatal("Has through the chain is wrong")
			}
		}},
		{"compiled key probe", 0, func() {
			key, _ := bp.AppendKey(top, kb[:0], 0, vals, false)
			if idx, ok := top.IndexOfKey(key); !ok || idx != 2 {
				t.Fatalf("IndexOfKey = %d, %v; want 2, true", idx, ok)
			}
		}},
		{"duplicate Add", 0, func() {
			if top.Add(inRoot) || top.Add(inMid) || top.Add(inTop) {
				t.Fatal("duplicate Add reported a new atom")
			}
		}},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocations per run, want %v", c.name, got, c.want)
		}
	}
}

// TestHomSearchAllocations pins the join kernel's warm path, the regime
// the stable-model search lives in: once a BodyPlans has compiled its
// body and cached its plans, a delta join over a three-layer snapshot
// chain — candidate walks, a bound probe, a negative check and a nested
// head check from inside the visitor — allocates nothing per call. The
// frames live in the caller's Scratch (one per worker), not in a
// sync.Pool, which drops items under -race.
func TestHomSearchAllocations(t *testing.T) {
	root := NewFactStore()
	for i := 0; i < 8; i++ {
		root.Add(A("e", C(fmt.Sprintf("c%d", i)), C(fmt.Sprintf("c%d", i+1))))
		root.Add(A("p", C(fmt.Sprintf("c%d", i))))
	}
	mid := root.Snapshot()
	mid.Add(A("e", C("c8"), C("c9")))
	mid.Add(A("p", C("c9")))
	top := mid.Snapshot()
	top.Add(A("e", C("c9"), C("c0")))
	top.Add(A("blocked", C("c3")))
	body := NewBodyPlans(
		[]Atom{A("e", V("X"), V("Y")), A("e", V("Y"), V("Z")), A("p", V("Y"))},
		[]Atom{A("blocked", V("X"))})
	head := newBodyPlansOver(body.Slots(), []Atom{A("e", V("Z"), V("W"))}, nil)
	var sc Scratch
	run := func() int {
		n := 0
		body.FindHomsFrom(&sc, top, root.Len(), nil, func(m *Match) bool {
			if head.Exists(&sc, top, m.IDs()) {
				n++
			}
			return true
		})
		return n
	}
	want := run() // compiles, plans and sizes the frames
	if want == 0 {
		t.Fatal("the delta join found no match with a satisfied head")
	}
	if got := testing.AllocsPerRun(100, func() {
		if n := run(); n != want {
			t.Fatalf("warm join found %d matches, want %d", n, want)
		}
	}); got != 0 {
		t.Errorf("warm BodyPlans.FindHomsFrom: %v allocations per call, want 0", got)
	}
}
