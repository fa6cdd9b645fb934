package logic

// Native fuzz targets pinning the id join kernel (join.go) and its
// planner to the naive oracle. The fuzzer decodes an arbitrary byte
// string into a 1–3-layer snapshot chain of facts — constants, labeled
// nulls, ground function terms, and one predicate name at two arities —
// plus a body with negation, repeated variables, constants, nulls and
// ground and non-ground function terms, and an initial substitution
// (which may bind a term never interned). It then checks four
// implementations against naiveFindHoms:
//
//   - FindHoms with planning on (the default),
//   - FindHoms with planning off (written-order baseline),
//   - BodyPlans through the Subst adapter (the cached per-rule planner),
//   - BodyPlans with a Match visitor, the path the search uses, which
//     must also report for every positive body atom a store index
//     holding h(atom),
//
// all of which must produce exactly the same homomorphism set.
// FuzzFindHomsFrom additionally checks the delta-window contract: for
// any split point `from`, the emitted homs are exactly those whose
// positive image touches at least one atom with index >= from, each
// emitted exactly once.
//
// The checked-in seed corpus lives under testdata/fuzz/ and is
// replayed by a plain `go test`, and TestFuzzSeedCorpusDecodes pins what
// each seed decodes to; CI also runs a short -fuzz smoke.

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fuzzReader consumes the fuzz input byte-by-byte, yielding 0 once
// exhausted so every input decodes deterministically.
type fuzzReader struct {
	data []byte
	i    int
}

func (r *fuzzReader) next() byte {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return b
}

// The decode vocabulary: five predicates — p at arities 1 and 2 — four
// constants, two nulls, two function symbols, four variables. Small on
// purpose — collisions (repeated variables, shared terms, bodies
// re-matching the same fact, keys of two arities under one name) are
// where join bugs live.
var fuzzPreds = []struct {
	name  string
	arity int
}{
	{"p", 1}, {"q", 2}, {"r", 2}, {"s", 3}, {"p", 2},
}

var fuzzConsts = []string{"a", "b", "c", "d"}
var fuzzNulls = []string{"n1", "n2"}
var fuzzVars = []string{"X", "Y", "Z", "W"}

// fuzzGround decodes a ground term: mostly constants, then nulls and
// the function terms f(c) and g(c, n).
func fuzzGround(b byte) Term {
	hi := int(b / 8)
	switch b % 8 {
	case 0, 1, 2, 3:
		return C(fuzzConsts[hi%len(fuzzConsts)])
	case 4, 5:
		return N(fuzzNulls[hi%len(fuzzNulls)])
	case 6:
		return F("f", C(fuzzConsts[hi%len(fuzzConsts)]))
	default:
		return F("g", C(fuzzConsts[hi%len(fuzzConsts)]), N(fuzzNulls[(hi/4)%len(fuzzNulls)]))
	}
}

// fuzzPattern decodes a body argument: a variable half the time, else a
// ground term or a non-ground function term f(V) or g(c, V).
func fuzzPattern(b byte) Term {
	hi := int(b / 8)
	v := V(fuzzVars[hi%len(fuzzVars)])
	switch b % 8 {
	case 0, 1, 2, 3:
		return v
	case 4:
		return F("f", v)
	case 5:
		return F("g", C(fuzzConsts[(hi/4)%len(fuzzConsts)]), v)
	default:
		return fuzzGround(byte(hi))
	}
}

func fuzzBodyAtoms(r *fuzzReader, n int) []Atom {
	atoms := make([]Atom, 0, n)
	for i := 0; i < n; i++ {
		p := fuzzPreds[int(r.next())%len(fuzzPreds)]
		args := make([]Term, p.arity)
		for j := range args {
			args[j] = fuzzPattern(r.next())
		}
		atoms = append(atoms, A(p.name, args...))
	}
	return atoms
}

// decodeHomFuzz turns the byte stream into (store, pos, neg, init). The
// store is a chain of one to three snapshot layers holding up to 24
// ground facts in all; the body always has at least one positive atom.
func decodeHomFuzz(r *fuzzReader) (store *FactStore, pos, neg []Atom, init Subst) {
	store = NewFactStore()
	layers := 1 + int(r.next())%3
	for l := 0; l < layers; l++ {
		if l > 0 {
			store = store.Snapshot()
		}
		nFacts := int(r.next()) % (25 / layers)
		for i := 0; i < nFacts; i++ {
			p := fuzzPreds[int(r.next())%len(fuzzPreds)]
			args := make([]Term, p.arity)
			for j := range args {
				args[j] = fuzzGround(r.next())
			}
			store.Add(A(p.name, args...))
		}
	}
	pos = fuzzBodyAtoms(r, 1+int(r.next())%4)
	neg = fuzzBodyAtoms(r, int(r.next())%3)
	init = Subst{}
	for i, n := 0, int(r.next())%3; i < n; i++ {
		v := fuzzVars[int(r.next())%len(fuzzVars)]
		if b := r.next(); b%16 == 15 {
			init[v] = C("zz") // never interned: matches no fact
		} else {
			init[v] = fuzzGround(b)
		}
	}
	return store, pos, neg, init
}

// fuzzFrom decodes FuzzFindHomsFrom's split point, the byte after the
// input decodeHomFuzz read: a store index in [0, store.Len()].
func fuzzFrom(r *fuzzReader, store *FactStore) int {
	if n := store.Len(); n > 0 {
		return int(r.next()) % (n + 1)
	}
	return 0
}

// renderHomFuzz renders a decoded input: the facts of each layer of the
// store's snapshot chain, root first, then the body and init.
func renderHomFuzz(store *FactStore, pos, neg []Atom, init Subst) string {
	var chain []*FactStore
	for st := store; st != nil; st = st.parent {
		chain = append([]*FactStore{st}, chain...)
	}
	var b strings.Builder
	for l, st := range chain {
		hi := store.Len()
		if l+1 < len(chain) {
			hi = chain[l+1].base
		}
		if l > 0 {
			b.WriteString(" / ")
		}
		b.WriteByte('{')
		for i := st.base; i < hi; i++ {
			if i > st.base {
				b.WriteByte(' ')
			}
			b.WriteString(store.AtomAt(i).String())
		}
		b.WriteByte('}')
	}
	fmt.Fprintf(&b, " pos %v neg %v init %v", pos, neg, init)
	return b.String()
}

// readFuzzSeed reads a corpus file of the form `go test fuzz v1`
// followed by one []byte("...") line.
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(lit, "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	s, err := strconv.Unquote(lit)
	if header != "go test fuzz v1" || !ok || !ok2 || err != nil {
		t.Fatalf("%s: not a one-value []byte corpus file", path)
	}
	return []byte(s)
}

// TestFuzzSeedCorpusDecodes pins what every checked-in seed decodes to,
// so a change to the decoder cannot silently turn a seed into another
// test case: a decoder change must re-encode the seeds to keep them.
func TestFuzzSeedCorpusDecodes(t *testing.T) {
	pinned := map[string]bool{}
	for _, tc := range []struct{ file, want string }{
		{"FuzzFindHoms/seed-chain-negation",
			"{q(a,b) q(b,c) q(c,d) p(a) r(a,c)} pos [q(X,Y) q(Y,Z)] neg [p(X)] init {}"},
		{"FuzzFindHoms/seed-dense-mixed",
			"{q(a,b) q(b,c) q(c,d) q(d,a) q(a,c) q(c,a) q(d,d) r(a,b) r(b,c) r(c,d) r(d,a) p(a) p(b) p(c) p(d) s(a,b,c) s(b,c,a) s(c,b,a) s(b,a,d) s(c,c,a) r(a,c) r(b,a) r(c,c)} pos [p(X)] neg [] init {}"},
		{"FuzzFindHoms/seed-ground-empty-store",
			"{} pos [q(a,b)] neg [] init {}"},
		{"FuzzFindHoms/seed-init-never-interned",
			"{p(_:n1) p(a,_:n2) q(_:n1,a)} / {p(a) p(_:n1,b) s(b,a,a)} pos [p(Y)] neg [p(Y,X)] init {X->zz}"},
		{"FuzzFindHoms/seed-layered-func-neg-blocked",
			"{q(f(a),_:n1) p(a,f(b))} / {p(g(a,_:n1)) q(f(b),b)} / {r(_:n1,f(a)) p(b,_:n2)} pos [q(f(X),Y) r(Y,f(a)) p(X,f(Z))] neg [p(g(a,Y))] init {}"},
		{"FuzzFindHoms/seed-layered-func-open",
			"{q(f(a),_:n1) p(a,f(b))} / {p(g(a,_:n1)) q(f(b),b)} / {r(_:n1,f(a)) p(b,_:n2)} pos [q(f(X),Y) r(Y,f(a)) p(X,f(Z))] neg [p(g(a,Z))] init {}"},
		{"FuzzFindHoms/seed-repeated-vars-init",
			"{s(a,a,b) s(a,b,b) s(b,b,b) q(a,a)} pos [s(X,X,Y) q(X,X)] neg [] init {X->a}"},
		{"FuzzFindHoms/seed-two-arities-nulls",
			"{p(_:n1) p(a,_:n2) q(_:n1,a)} / {p(a) p(_:n1,b) s(b,a,a)} pos [p(Y) p(Y,X)] neg [] init {}"},
		{"FuzzFindHomsFrom/seed-chain-negation-mid",
			"{q(a,b) q(b,c) q(c,d) p(a) r(a,c)} pos [q(X,Y) q(Y,Z)] neg [p(X)] init {} from 2"},
		{"FuzzFindHomsFrom/seed-dense-delta-window",
			"{q(a,b) q(b,c) q(c,d) q(d,a) q(a,c) q(c,a) q(d,d) r(a,b) r(b,c) r(c,d) r(d,a) p(a) p(b) p(c) p(d) s(a,b,c) s(b,c,a) s(c,b,a) s(b,a,d) s(c,c,a) r(a,c) r(b,a) r(c,c)} pos [p(X)] neg [] init {} from 0"},
		{"FuzzFindHomsFrom/seed-empty-store",
			"{} pos [q(a,b)] neg [] init {} from 0"},
		{"FuzzFindHomsFrom/seed-init-never-interned",
			"{p(_:n1) p(a,_:n2) q(_:n1,a)} / {p(a) p(_:n1,b) s(b,a,a)} pos [p(Y)] neg [p(Y,X)] init {X->zz} from 2"},
		{"FuzzFindHomsFrom/seed-layered-func-neg-blocked",
			"{q(f(a),_:n1) p(a,f(b))} / {p(g(a,_:n1)) q(f(b),b)} / {r(_:n1,f(a)) p(b,_:n2)} pos [q(f(X),Y) r(Y,f(a)) p(X,f(Z))] neg [p(g(a,Y))] init {} from 1"},
		{"FuzzFindHomsFrom/seed-layered-func-open",
			"{q(f(a),_:n1) p(a,f(b))} / {p(g(a,_:n1)) q(f(b),b)} / {r(_:n1,f(a)) p(b,_:n2)} pos [q(f(X),Y) r(Y,f(a)) p(X,f(Z))] neg [p(g(a,Z))] init {} from 4"},
		{"FuzzFindHomsFrom/seed-repeated-vars-tail",
			"{s(a,a,b) s(a,b,b) s(b,b,b) q(a,a)} pos [s(X,X,Y) q(X,X)] neg [] init {X->a} from 3"},
		{"FuzzFindHomsFrom/seed-two-arities-nulls",
			"{p(_:n1) p(a,_:n2) q(_:n1,a)} / {p(a) p(_:n1,b) s(b,a,a)} pos [p(Y) p(Y,X)] neg [] init {} from 2"},
	} {
		pinned[tc.file] = true
		r := &fuzzReader{data: readFuzzSeed(t, "testdata/fuzz/"+tc.file)}
		store, pos, neg, init := decodeHomFuzz(r)
		got := renderHomFuzz(store, pos, neg, init)
		if strings.HasPrefix(tc.file, "FuzzFindHomsFrom/") {
			got += fmt.Sprintf(" from %d", fuzzFrom(r, store))
		}
		if got != tc.want {
			t.Errorf("%s decodes to\n  %s\nwant\n  %s", tc.file, got, tc.want)
		}
	}
	for _, target := range []string{"FuzzFindHoms", "FuzzFindHomsFrom"} {
		entries, err := os.ReadDir("testdata/fuzz/" + target)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !pinned[target+"/"+e.Name()] {
				t.Errorf("seed %s/%s is not pinned here", target, e.Name())
			}
		}
	}
}

// matchHoms runs bp's Match path and renders each match as the
// substitution it denotes, failing t when a reported body index does
// not hold h(body atom).
func matchHoms(t *testing.T, bp *BodyPlans, store *FactStore, from int, init Subst) []string {
	t.Helper()
	vals, ok := substSlots(bp, store, init)
	if !ok {
		return nil
	}
	var out []string
	var sc Scratch
	bp.FindHomsFrom(&sc, store, from, vals, func(m *Match) bool {
		h := init.Clone()
		for i, v := range bp.Slots() {
			if vals[i] == unbound && m.IDs()[i] != unbound {
				h[v] = m.Term(i)
			}
		}
		for i, a := range bp.pos {
			if got, want := store.AtomAt(m.Index(i)), h.ApplyAtom(a); !got.Equal(want) {
				t.Fatalf("Match.Index(%d) = %d holds %v, want %v", i, m.Index(i), got, want)
			}
		}
		out = append(out, h.String())
		return true
	})
	sort.Strings(out)
	return out
}

// fuzzCollectHoms renders every visited hom with the deterministic
// Subst.String and returns the sorted multiset.
func fuzzCollectHoms(find func(fn HomVisitor) bool) []string {
	var out []string
	find(func(h Subst) bool {
		out = append(out, h.String())
		return true
	})
	sort.Strings(out)
	return out
}

func sameHoms(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d homs, oracle has %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: hom sets differ at %d: got %s, want %s", label, i, got[i], want[i])
		}
	}
}

func FuzzFindHoms(f *testing.F) {
	// Chain join with negation: q(a,b) q(b,c) q(c,d) p(a) r(a,c);
	// body q(X,Y), q(Y,Z), not p(X).
	f.Add([]byte("\x00\x05\x01\x00\x08\x01\x08\x10\x01\x10\x18\x00\x00\x02\x00\x10\x01\x01\x00\x08\x01\x08\x10\x01\x00\x00\x00"))
	// Repeated variables: s(X,X,Y), q(X,X) with init X->a.
	f.Add([]byte("\x00\x04\x03\x00\x00\x08\x03\x00\x08\x08\x03\x08\x08\x08\x01\x00\x00\x01\x03\x00\x00\x08\x01\x00\x00\x00\x01\x00\x00"))
	// Empty store, fully-ground body atom q(a,b).
	f.Add([]byte("\x00\x00\x00\x01\x06\x46\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		store, pos, neg, init := decodeHomFuzz(&fuzzReader{data: data})
		want := fuzzCollectHoms(func(fn HomVisitor) bool {
			return naiveFindHoms(pos, neg, store, init, fn)
		})
		restore := SetJoinPlanning(true)
		defer restore()
		sameHoms(t, "FindHoms planner-on", fuzzCollectHoms(func(fn HomVisitor) bool {
			return FindHoms(pos, neg, store, init, fn)
		}), want)
		bp := NewBodyPlans(pos, neg)
		// Twice through the same BodyPlans: the second run exercises the
		// plan-cache hit path.
		for pass := 0; pass < 2; pass++ {
			sameHoms(t, "BodyPlans.FindHoms", fuzzCollectHoms(func(fn HomVisitor) bool {
				return bp.searchSubst(new(Scratch), store, 0, init, fn)
			}), want)
			sameHoms(t, "BodyPlans Match", matchHoms(t, bp, store, 0, init), want)
		}
		SetJoinPlanning(false)
		sameHoms(t, "FindHoms planner-off", fuzzCollectHoms(func(fn HomVisitor) bool {
			return FindHoms(pos, neg, store, init, fn)
		}), want)
	})
}

// deltaOracle enumerates, via the naive oracle over the full store,
// exactly the homs whose positive image touches an atom with index >=
// from — the delta-window contract of FindHomsFrom.
func deltaOracle(pos, neg []Atom, store *FactStore, from int, init Subst) []string {
	var want []string
	naiveFindHoms(pos, neg, store, init, func(h Subst) bool {
		for _, a := range pos {
			if idx, ok := store.IndexOfAtom(h.ApplyAtom(a)); ok && idx >= from {
				want = append(want, h.String())
				break
			}
		}
		return true
	})
	sort.Strings(want)
	return want
}

func FuzzFindHomsFrom(f *testing.F) {
	// Same bodies as FuzzFindHoms with a trailing split-point byte.
	f.Add([]byte("\x00\x05\x01\x00\x08\x01\x08\x10\x01\x10\x18\x00\x00\x02\x00\x10\x01\x01\x00\x08\x01\x08\x10\x01\x00\x00\x00\x02"))
	f.Add([]byte("\x00\x04\x03\x00\x00\x08\x03\x00\x08\x08\x03\x08\x08\x08\x01\x00\x00\x01\x03\x00\x00\x08\x01\x00\x00\x00\x01\x00\x00\x03"))
	f.Add([]byte("\x00\x00\x00\x01\x06\x46\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		store, pos, neg, init := decodeHomFuzz(r)
		from := fuzzFrom(r, store)
		want := deltaOracle(pos, neg, store, from, init)
		check := func(label string) {
			var got []string
			FindHomsFrom(pos, neg, store, from, init, func(h Subst) bool {
				got = append(got, h.String())
				return true
			})
			sort.Strings(got)
			for i := 1; i < len(got); i++ {
				if got[i] == got[i-1] {
					t.Fatalf("%s: delta hom emitted twice: %s (from=%d)", label, got[i], from)
				}
			}
			sameHoms(t, label, got, want)
		}
		restore := SetJoinPlanning(true)
		defer restore()
		check("FindHomsFrom planner-on")
		SetJoinPlanning(false)
		check("FindHomsFrom planner-off")
		SetJoinPlanning(true)
		bp := NewBodyPlans(pos, neg)
		for pass := 0; pass < 2; pass++ {
			var got []string
			bp.searchSubst(new(Scratch), store, from, init, func(h Subst) bool {
				got = append(got, h.String())
				return true
			})
			sort.Strings(got)
			sameHoms(t, "BodyPlans.FindHomsFrom", got, want)
			sameHoms(t, "BodyPlans Match delta", matchHoms(t, bp, store, from, init), want)
		}
	})
}
