package logic

import (
	"fmt"
	"testing"
)

// bulkAtoms builds n distinct binary facts over a universe of k
// constants, each occurring in ~n/k tuples, in arbitrary (unsorted)
// arrival order — the shape of a real extensional database, where
// terms recur across tuples and loading is index-bound rather than
// interner-bound. Distinctness: the pair (a, b) determines
// i = a + k*((b-a) mod k) uniquely for n <= k².
func bulkAtoms(n, k int) []Atom {
	names := make([]Term, k)
	for i := range names {
		names[i] = C(fmt.Sprintf("c%d", i))
	}
	atoms := make([]Atom, n)
	for i := 0; i < n; i++ {
		a := i % k
		atoms[i] = A("e", names[a], names[(a+i/k)%k])
	}
	return atoms
}

// bulkKeys interns the atoms into a fresh table and renders their
// packed keys into one blob, key i being blob[offs[i]:offs[i+1]]. The
// keys arms build their own, so the table and the blob are not live
// while the other arms run.
func bulkKeys(atoms []Atom) (syms *Symbols, blob []byte, offs []int32) {
	syms, offs = NewSymbols(), make([]int32, 1, len(atoms)+1)
	for _, a := range atoms {
		blob, _ = syms.appendAtomKey(a, blob, true)
		offs = append(offs, int32(len(blob)))
	}
	return syms, blob, offs
}

// BenchmarkBulkLoad compares the bulk loader with per-fact Add on 10⁶
// facts. AddAll batches the interner lock, renders every packed key
// into one shared buffer, and builds all posting lists by counting sort
// over the dense ids; per-fact Add pays a lock round trip and an
// incremental insert into every table per fact. On a 2-vCPU VM, AddAll
// loads the facts about 3x faster than per-fact Add. The keys and
// perkey arms load the same facts as packed keys already interned in
// the store's table, the way the grounder adds its head instances: in
// one AddKeys batch, which takes the bulk loader's indexing pass, and
// one AddKey at a time.
func BenchmarkBulkLoad(b *testing.B) {
	atoms := bulkAtoms(1_000_000, 100_000)
	b.Run("keys", func(b *testing.B) {
		syms, blob, offs := bulkKeys(atoms)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := &FactStore{syms: syms}
			if got := s.AddKeys(blob, offs); got != len(atoms) {
				b.Fatalf("loaded %d of %d", got, len(atoms))
			}
		}
	})
	b.Run("perkey", func(b *testing.B) {
		syms, blob, offs := bulkKeys(atoms)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := &FactStore{syms: syms}
			for j := range atoms {
				s.AddKey(blob[offs[j]:offs[j+1]])
			}
			if s.Len() != len(atoms) {
				b.Fatalf("loaded %d of %d", s.Len(), len(atoms))
			}
		}
	})
	b.Run("perfact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewFactStore()
			for _, a := range atoms {
				s.Add(a)
			}
			if s.Len() != len(atoms) {
				b.Fatalf("loaded %d of %d", s.Len(), len(atoms))
			}
		}
	})
	b.Run("addall", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewFactStore()
			if got := s.AddAll(atoms); got != len(atoms) {
				b.Fatalf("loaded %d of %d", got, len(atoms))
			}
		}
	})
}

// BenchmarkStoreProbe measures point reads against a 10⁶-fact root:
// the packed-key membership probe (Has) and the posting-list-driven
// bound hom search, both of which must stay flat in store size.
func BenchmarkStoreProbe(b *testing.B) {
	atoms := bulkAtoms(1_000_000, 100_000)
	s := NewFactStore()
	s.AddAll(atoms)
	b.Run("has", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !s.Has(atoms[i%len(atoms)]) {
				b.Fatal("probe missed a loaded fact")
			}
		}
	})
	b.Run("find-bound", func(b *testing.B) {
		b.ReportAllocs()
		pat := []Atom{A("e", C("c500"), V("Y"))}
		for i := 0; i < b.N; i++ {
			count := 0
			FindHoms(pat, nil, s, Subst{}, func(Subst) bool { count++; return true })
			if count != 10 {
				b.Fatalf("count=%d", count)
			}
		}
	})
}
