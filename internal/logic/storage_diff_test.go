package logic

// The PR 9 differential suite: the interned, packed store — per-fact
// Add, bulk AddAll, AddKeys, and arbitrary snapshot chains over it — must be
// observationally identical to a reference built fact by fact, across
// every read surface the engines use (Len, Equal, CanonicalString,
// Domain, Preds, IndexOfAtom/AtomAt, FindHoms/FindHomsFrom with
// negation and repeated variables), also when the symbol table is large
// next to the writes. FuzzStorage extends the same pin to arbitrary
// byte-derived inputs using the join-planner fuzz vocabulary.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// randPackedAtom draws a ground atom over a vocabulary that exercises
// every term shape the interner handles: constants, labeled nulls, and
// nested function terms.
func randPackedAtom(rng *rand.Rand) Atom {
	consts := []string{"a", "b", "c", "d"}
	var term func(depth int) Term
	term = func(depth int) Term {
		switch k := rng.Intn(6); {
		case k == 0 && depth < 2:
			return F("f", term(depth+1))
		case k == 1:
			return N(fmt.Sprintf("n%d", rng.Intn(3)))
		default:
			return C(consts[rng.Intn(len(consts))])
		}
	}
	switch rng.Intn(3) {
	case 0:
		return A("p", term(0))
	case 1:
		return A("q", term(0), term(0))
	default:
		return A("s", term(0), term(0), term(0))
	}
}

// buildThreeWays materializes one atom sequence as (1) a root grown by
// per-fact Add, (2) a root bulk-loaded by AddAll, and (3) a snapshot
// chain with random layer splits — deep enough, some iterations, to
// cross maxSnapshotDepth and force flattening.
func buildThreeWays(rng *rand.Rand, atoms []Atom) (perFact, bulk, chain *FactStore) {
	perFact = NewFactStore()
	for _, a := range atoms {
		perFact.Add(a)
	}
	bulk = NewFactStore()
	bulk.AddAll(atoms)
	chain = NewFactStore()
	layers := 1 + rng.Intn(2*maxSnapshotDepth)
	for i, a := range atoms {
		if rng.Intn(len(atoms)/layers+1) == 0 {
			chain = chain.Snapshot()
		}
		if i%2 == 0 {
			chain.Add(a)
		} else {
			chain.AddAll(atoms[i : i+1])
		}
	}
	return perFact, bulk, chain
}

// padSymbols interns more than 1,024 constants that no fact uses into
// the store's symbol table, making the table large next to any later
// batch of the differential vocabulary.
func padSymbols(s *FactStore) {
	for i := 0; i < 1100; i++ {
		s.syms.Intern(C(fmt.Sprintf("pad%d", i)))
	}
}

// buildPadded materializes the atom sequence three more ways, each over
// a symbol table padded past 1,024 terms, where AddAll hands small
// batches to per-fact Add: (1) a root grown by per-fact Add, (2) a
// root bulk-loaded with the first half (before padding) that takes the
// rest in AddAll batches of one to three atoms, and (3) a chain with
// one atom per layer until Snapshot flattens it, the remaining atoms
// added fact by fact on the flattened root.
func buildPadded(rng *rand.Rand, atoms []Atom) (perFact, batches, flat *FactStore) {
	perFact = NewFactStore()
	padSymbols(perFact)
	for _, a := range atoms {
		perFact.Add(a)
	}
	batches = NewFactStore()
	half := len(atoms) / 2
	batches.AddAll(atoms[:half])
	padSymbols(batches)
	for i := half; i < len(atoms); {
		j := min(len(atoms), i+1+rng.Intn(3))
		batches.AddAll(atoms[i:j])
		i = j
	}
	flat = NewFactStore()
	padSymbols(flat)
	flattened := false
	for _, a := range atoms {
		flat.Add(a)
		if !flattened {
			flat = flat.Snapshot()
			flattened = flat.parent == nil
		}
	}
	return perFact, batches, flat
}

// keysLoad loads the atoms into s through AddKeys, as a caller that
// builds instances as packed keys does: each batch's keys are interned
// in s's own table first. batch bounds the batch size (0: one batch).
func keysLoad(s *FactStore, atoms []Atom, batch int, rng *rand.Rand) *FactStore {
	for i := 0; i < len(atoms); {
		j := len(atoms)
		if batch > 0 {
			j = min(j, i+1+rng.Intn(batch))
		}
		var blob []byte
		offs := []int32{0}
		for _, a := range atoms[i:j] {
			blob, _ = s.syms.appendAtomKey(a, blob, true)
			offs = append(offs, int32(len(blob)))
		}
		s.AddKeys(blob, offs)
		i = j
	}
	return s
}

// withRepeats returns atoms with, after each one, a repeat of an
// earlier atom of the list with probability 1/3; first occurrences keep
// their order.
func withRepeats(atoms []Atom, pick func(n int) int) []Atom {
	var out []Atom
	for i, a := range atoms {
		out = append(out, a)
		if pick(3) == 0 {
			out = append(out, atoms[pick(i+1)])
		}
	}
	return out
}

// layeredKeys builds a chain whose top layer takes batch as packed keys:
// below it a root bulk-loaded with atoms[:cuts[0]] and, for each further
// cut, a snapshot layer holding the next run of atoms, added fact by
// fact. The top layer, a snapshot, gets the whole batch through one
// AddKeys call, or through one AddKey call per key when perKey is set.
func layeredKeys(atoms []Atom, cuts []int, batch []Atom, perKey bool) *FactStore {
	s := NewFactStore()
	s.AddAll(atoms[:cuts[0]])
	for i := 1; i < len(cuts); i++ {
		s = s.Snapshot()
		for _, a := range atoms[cuts[i-1]:cuts[i]] {
			s.Add(a)
		}
	}
	s = s.Snapshot()
	if !perKey {
		return keysLoad(s, batch, 0, nil)
	}
	for _, a := range batch {
		key, _ := s.syms.appendAtomKey(a, nil, true)
		s.AddKey(key)
	}
	return s
}

// keyBatchArms returns the snapshot builds whose top layer takes the
// tail of atoms as one AddKeys batch — over a bulk-loaded root, and over
// a three-layer chain — each beside the same keys added one AddKey at a
// time. The batch starts below the last cut, so it repeats keys the
// layers below hold, and it repeats keys within itself.
func keyBatchArms(atoms []Atom, pick func(n int) int) map[string]*FactStore {
	arms := map[string]*FactStore{}
	n := len(atoms)
	a := pick(n + 1)
	b := a + pick(n-a+1)
	for _, arm := range []struct {
		name string
		cuts []int
	}{{"bulk root", []int{b}}, {"three-layer chain", []int{a, b}}} {
		batch := withRepeats(atoms[pick(b+1):], pick)
		arms["key batch on "+arm.name] = layeredKeys(atoms, arm.cuts, batch, false)
		arms["per-key on "+arm.name] = layeredKeys(atoms, arm.cuts, batch, true)
	}
	return arms
}

// checkLayerDomains pins the domain's first-wins rule across layers:
// every layer of the batch build records exactly the domain terms, at
// exactly the store indices, that the same layer of the per-key build
// records.
func checkLayerDomains(t *testing.T, label string, batch, perKey *FactStore) {
	t.Helper()
	doms := func(s *FactStore) []string {
		var out []string
		for st := s; st != nil; st = st.parent {
			var layer []string
			if st.ix != nil {
				for _, e := range st.ix.dom.entries {
					layer = append(layer, fmt.Sprintf("%s@%d", s.syms.TermOf(e.term), e.idx))
				}
			}
			sort.Strings(layer)
			out = append(out, fmt.Sprint(layer))
		}
		return out
	}
	if got, want := doms(batch), doms(perKey); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: layer domains differ from the per-key build:\n%v\n%v", label, got, want)
	}
}

// checkStoresAgree pins every read surface of each store against the
// per-fact reference build.
func checkStoresAgree(t *testing.T, iter int, atoms []Atom, perFact *FactStore, stores map[string]*FactStore) {
	t.Helper()
	for name, s := range stores {
		if s.Len() != perFact.Len() {
			t.Fatalf("iter %d: %s Len = %d, per-fact = %d", iter, name, s.Len(), perFact.Len())
		}
		if !s.Equal(perFact) || !perFact.Equal(s) {
			t.Fatalf("iter %d: %s differs from per-fact build", iter, name)
		}
		if got, want := s.CanonicalString(), perFact.CanonicalString(); got != want {
			t.Fatalf("iter %d: %s canonical form differs:\n%s\n%s", iter, name, got, want)
		}
		if got, want := fmt.Sprint(s.Domain()), fmt.Sprint(perFact.Domain()); got != want {
			t.Fatalf("iter %d: %s Domain differs:\n%s\n%s", iter, name, got, want)
		}
		if got, want := fmt.Sprint(s.Preds()), fmt.Sprint(perFact.Preds()); got != want {
			t.Fatalf("iter %d: %s Preds differs: %s vs %s", iter, name, got, want)
		}
		for _, a := range atoms {
			idx, ok := s.IndexOfAtom(a)
			if !ok {
				t.Fatalf("iter %d: %s lost atom %s", iter, name, a)
			}
			if got := s.AtomAt(idx); !got.Equal(a) {
				t.Fatalf("iter %d: %s AtomAt(%d) = %s, want %s", iter, name, idx, got, a)
			}
			if !s.Has(a) {
				t.Fatalf("iter %d: %s Has(%s) = false", iter, name, a)
			}
		}
		// Dense stable indices: AtomAt enumerates without gaps and in
		// the same global order as Atoms.
		all := s.Atoms()
		for i, a := range all {
			if got := s.AtomAt(i); !got.Equal(a) {
				t.Fatalf("iter %d: %s AtomAt(%d) = %s, Atoms[%d] = %s", iter, name, i, got, i, a)
			}
		}
	}
}

// randBody draws a hom-search body over the vocabulary: positive atoms
// with shared and repeated variables, plus negative literals whose
// variables all occur positively (the safety condition).
func randBody(rng *rand.Rand) (pos, neg []Atom, init Subst) {
	vars := []string{"X", "Y", "Z"}
	consts := []string{"a", "b", "c", "d"}
	arg := func() Term {
		if rng.Intn(2) == 0 {
			return V(vars[rng.Intn(len(vars))])
		}
		return C(consts[rng.Intn(len(consts))])
	}
	atom := func() Atom {
		switch rng.Intn(3) {
		case 0:
			return A("p", arg())
		case 1:
			return A("q", arg(), arg())
		default:
			return A("s", arg(), arg(), arg())
		}
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		pos = append(pos, atom())
	}
	pv := VarSet(pos...)
	for i, n := 0, rng.Intn(2); i < n; i++ {
		a := atom()
		safe := true
		var buf []string
		for _, v := range a.Vars(buf[:0]) {
			if !pv[v] {
				safe = false
			}
		}
		if safe {
			neg = append(neg, a)
		}
	}
	init = Subst{}
	if rng.Intn(3) == 0 {
		init[vars[rng.Intn(len(vars))]] = C(consts[rng.Intn(len(consts))])
	}
	return pos, neg, init
}

func collectHomSet(pos, neg []Atom, s *FactStore, from int, init Subst) []string {
	var out []string
	FindHomsFrom(pos, neg, s, from, init, func(h Subst) bool {
		out = append(out, h.String())
		return true
	})
	sort.Strings(out)
	return out
}

// TestStorageDifferential is the randomized pin: N random fact sets,
// each built several ways and probed across every read surface plus
// the hom search (full and delta windows) against the naive oracle.
// The unpadded builds include AddKeys batches on a snapshot's top layer
// (keyBatchArms), whose sequence ends with an atom of terms nothing
// else uses. The last iterations take the padded builds, whose writes
// land on a symbol table of more than 1,024 terms.
func TestStorageDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	flattened := 0
	for iter := 0; iter < 80; iter++ {
		padded := iter >= 60
		n := 1 + rng.Intn(40)
		if padded {
			n = 60 + rng.Intn(40)
		}
		atoms := make([]Atom, 0, n)
		for i := 0; i < n; i++ {
			atoms = append(atoms, randPackedAtom(rng))
		}
		var perFact *FactStore
		var stores map[string]*FactStore
		if padded {
			perFact = NewFactStore()
			for _, a := range atoms {
				perFact.Add(a)
			}
			pf, batches, flat := buildPadded(rng, atoms)
			if flat.parent == nil {
				flattened++
			}
			padKeys := NewFactStore()
			padSymbols(padKeys)
			stores = map[string]*FactStore{"padded per-fact": pf, "padded batches": batches, "padded flattened": flat,
				"padded key batches": keysLoad(padKeys, atoms, 3, rand.New(rand.NewSource(int64(iter))))}
		} else {
			atoms = append(atoms, A("q", C("fresh"), F("f", N("n7"))))
			var bulk, chain *FactStore
			perFact, bulk, chain = buildThreeWays(rng, atoms)
			stores = map[string]*FactStore{"bulk": bulk, "chain": chain, "keys": keysLoad(NewFactStore(), atoms, 0, nil)}
			for name, s := range keyBatchArms(atoms, rng.Intn) {
				stores[name] = s
			}
			for _, name := range []string{"bulk root", "three-layer chain"} {
				checkLayerDomains(t, fmt.Sprintf("iter %d: %s", iter, name), stores["key batch on "+name], stores["per-key on "+name])
			}
		}
		stores["per-fact"] = perFact
		checkStoresAgree(t, iter, atoms, perFact, stores)

		for bi := 0; bi < 3; bi++ {
			pos, neg, init := randBody(rng)
			var want []string
			naiveFindHoms(pos, neg, perFact, init, func(h Subst) bool {
				want = append(want, h.String())
				return true
			})
			sort.Strings(want)
			for name, s := range stores {
				if got := collectHomSet(pos, neg, s, 0, init); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("iter %d: %s FindHoms differs for %v not %v init %v:\ngot  %v\nwant %v",
						iter, name, pos, neg, init, got, want)
				}
			}
			// Delta windows against the per-index oracle, on every build
			// (layered and root paths alike).
			from := rng.Intn(perFact.Len() + 1)
			var dwant []string
			naiveFindHoms(pos, neg, perFact, init, func(h Subst) bool {
				for _, a := range pos {
					if idx, ok := perFact.IndexOfAtom(h.ApplyAtom(a)); ok && idx >= from {
						dwant = append(dwant, h.String())
						break
					}
				}
				return true
			})
			sort.Strings(dwant)
			for name, s := range stores {
				if got := collectHomSet(pos, neg, s, from, init); fmt.Sprint(got) != fmt.Sprint(dwant) {
					t.Fatalf("iter %d: %s FindHomsFrom(%d) differs:\ngot  %v\nwant %v", iter, name, from, got, dwant)
				}
			}
		}
	}
	if flattened == 0 {
		t.Fatal("no padded chain flattened: the per-fact path on a flattened root went untested")
	}
}

// FuzzStorage replays the PR 6 fuzz vocabulary against the storage
// layer: an arbitrary byte string decodes into a fact sequence and a
// body; the per-fact, bulk, and snapshot-chain builds, and AddKeys
// batches on a snapshot's top layer with their per-key twins
// (keyBatchArms, cut and repeated at byte-chosen points), must agree
// with each other and with the naive hom oracle, over full joins and a
// byte-chosen delta window.
func FuzzStorage(f *testing.F) {
	f.Add([]byte("\x05\x01\x00\x01\x01\x01\x02\x01\x02\x03\x00\x00\x02\x00\x02\x01\x01\x00\x02\x01\x02\x04\x01\x00\x00\x00"))
	f.Add([]byte("\x18\x03\x00\x00\x01\x03\x00\x01\x01\x03\x01\x01\x01\x01\x00\x00\x01\x03"))
	f.Add([]byte("\x00\x00\x01\x01\x03\x00\x00"))
	// Key batches on a snapshot over a three-layer chain that hold
	// keys present below, repeats and terms new to the domain.
	f.Add([]byte("72020000020100010\x16000001"))
	f.Add([]byte("720200000201000100000001"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		nFacts := int(r.next()) % 25
		atoms := make([]Atom, 0, nFacts)
		for i := 0; i < nFacts; i++ {
			p := fuzzPreds[int(r.next())%len(fuzzPreds)]
			args := make([]Term, p.arity)
			for j := range args {
				args[j] = C(fuzzConsts[int(r.next())%len(fuzzConsts)])
			}
			atoms = append(atoms, A(p.name, args...))
		}
		pos := fuzzBodyAtoms(r, 1+int(r.next())%3)

		perFact := NewFactStore()
		for _, a := range atoms {
			perFact.Add(a)
		}
		bulk := NewFactStore()
		bulk.AddAll(atoms)
		// Chain layered at byte-chosen split points.
		chain := NewFactStore()
		for _, a := range atoms {
			if r.next()%3 == 0 {
				chain = chain.Snapshot()
			}
			chain.Add(a)
		}

		stores := map[string]*FactStore{"per-fact": perFact, "bulk": bulk, "chain": chain}
		arms := keyBatchArms(atoms, func(n int) int { return int(r.next()) % n })
		for name, s := range arms {
			stores[name] = s
		}
		for _, name := range []string{"bulk root", "three-layer chain"} {
			checkLayerDomains(t, name, arms["key batch on "+name], arms["per-key on "+name])
		}
		checkStoresAgree(t, 0, atoms, perFact, stores)
		want := fuzzCollectHoms(func(fn HomVisitor) bool {
			return naiveFindHoms(pos, nil, perFact, Subst{}, fn)
		})
		from := int(r.next()) % (perFact.Len() + 1)
		dwant := fuzzCollectHoms(func(fn HomVisitor) bool {
			return naiveFindHoms(pos, nil, perFact, Subst{}, func(h Subst) bool {
				for _, a := range pos {
					if idx, ok := perFact.IndexOfAtom(h.ApplyAtom(a)); ok && idx >= from {
						return fn(h)
					}
				}
				return true
			})
		})
		for name, s := range stores {
			sameHoms(t, "FuzzStorage "+name, fuzzCollectHoms(func(fn HomVisitor) bool {
				return FindHoms(pos, nil, s, Subst{}, fn)
			}), want)
			sameHoms(t, fmt.Sprintf("FuzzStorage %s from %d", name, from), fuzzCollectHoms(func(fn HomVisitor) bool {
				return FindHomsFrom(pos, nil, s, from, Subst{}, fn)
			}), dwant)
		}
	})
}
