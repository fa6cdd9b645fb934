package logic

import (
	"fmt"
	"testing"
)

// benchStore builds a chain graph with n edges.
func benchStore(n int) *FactStore {
	s := NewFactStore()
	for i := 0; i < n; i++ {
		s.Add(A("edge", C(fmt.Sprintf("v%d", i)), C(fmt.Sprintf("v%d", i+1))))
	}
	return s
}

func BenchmarkHomSearchPath2(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		s := benchStore(n)
		pat := []Atom{A("edge", V("X"), V("Y")), A("edge", V("Y"), V("Z"))}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				count := 0
				FindHoms(pat, nil, s, Subst{}, func(Subst) bool { count++; return true })
				if count != n-1 {
					b.Fatalf("count=%d", count)
				}
			}
		})
	}
}

// BenchmarkHomBoundProbe measures a high-selectivity probe on large
// stores: one body atom with a bound first position over up to 10⁵
// facts. The indexed search answers from a posting list of size ~1;
// the naive oracle scans the whole predicate.
func BenchmarkHomBoundProbe(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		s := benchStore(n)
		pat := []Atom{A("edge", C(fmt.Sprintf("v%d", n/2)), V("Y"))}
		run := func(name string, search func([]Atom, []Atom, *FactStore, Subst, HomVisitor) bool) {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					count := 0
					search(pat, nil, s, Subst{}, func(Subst) bool { count++; return true })
					if count != 1 {
						b.Fatalf("count=%d", count)
					}
				}
			})
		}
		run("indexed", FindHoms)
		run("naive", naiveFindHoms)
	}
}

// BenchmarkHomJoinLarge measures the 2-atom path join at store sizes
// where the naive quadratic scan is prohibitive; only the indexed
// search runs at the top size.
func BenchmarkHomJoinLarge(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		s := benchStore(n)
		pat := []Atom{A("edge", V("X"), V("Y")), A("edge", V("Y"), V("Z"))}
		b.Run(fmt.Sprintf("indexed/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				count := 0
				FindHoms(pat, nil, s, Subst{}, func(Subst) bool { count++; return true })
				if count != n-1 {
					b.Fatalf("count=%d", count)
				}
			}
		})
	}
}

// BenchmarkFindHomsFromDelta measures semi-naive seeding: 10⁵ old
// facts plus a small delta; the seeded search touches only
// delta-joined candidates, the naive equivalent re-enumerates every
// hom and filters.
func BenchmarkFindHomsFromDelta(b *testing.B) {
	n, delta := 100000, 64
	s := benchStore(n)
	from := s.Len()
	for i := n; i < n+delta; i++ {
		s.Add(A("edge", C(fmt.Sprintf("v%d", i)), C(fmt.Sprintf("v%d", i+1))))
	}
	pat := []Atom{A("edge", V("X"), V("Y")), A("edge", V("Y"), V("Z"))}
	b.Run("seeded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count := 0
			FindHomsFrom(pat, nil, s, from, Subst{}, func(Subst) bool { count++; return true })
			if count != delta {
				b.Fatalf("count=%d", count)
			}
		}
	})
}

// BenchmarkJoinOrderAdversarial pins the join planner's win on a
// worst-selectivity-first body over 10⁵ facts: in written order the
// enumeration scans the big relation and drags ~10⁵ partial joins to
// the selective last atom; the planner starts from the single sel
// fact and touches a few hundred candidates. The CI gate tracks all
// three arms; planned must stay ≥ 2x faster than written (PR 6
// acceptance), and cached shows the per-rule BodyPlans reuse on top.
func BenchmarkJoinOrderAdversarial(b *testing.B) {
	const nBig, nMid = 100000, 512
	s := NewFactStore()
	for i := 0; i < nBig; i++ {
		s.Add(A("big", C(fmt.Sprintf("c%d", i)), C(fmt.Sprintf("d%d", i%nMid))))
	}
	for j := 0; j < nMid; j++ {
		s.Add(A("mid", C(fmt.Sprintf("d%d", j)), C(fmt.Sprintf("e%d", j))))
	}
	s.Add(A("sel", C("e7")))
	body := []Atom{
		A("big", V("X"), V("Y")),
		A("mid", V("Y"), V("Z")),
		A("sel", V("Z")),
	}
	want := 0
	restoreW := SetJoinPlanning(false)
	FindHoms(body, nil, s, Subst{}, func(Subst) bool { want++; return true })
	restoreW()
	if want == 0 {
		b.Fatal("adversarial body has no homs")
	}
	run := func(name string, planning bool, search func([]Atom, []Atom, *FactStore, Subst, HomVisitor) bool) {
		b.Run(name, func(b *testing.B) {
			restore := SetJoinPlanning(planning)
			defer restore()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				count := 0
				search(body, nil, s, Subst{}, func(Subst) bool { count++; return true })
				if count != want {
					b.Fatalf("count=%d, want %d", count, want)
				}
			}
		})
	}
	run("planned", true, FindHoms)
	run("written", false, FindHoms)
	bp := NewBodyPlans(body, nil)
	var sc Scratch
	run("cached", true, func(_, _ []Atom, st *FactStore, init Subst, fn HomVisitor) bool {
		return bp.searchSubst(&sc, st, 0, init, fn)
	})
}

func BenchmarkStoreAddHas(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewFactStore()
		for j := 0; j < 256; j++ {
			s.Add(A("p", C(fmt.Sprintf("c%d", j%64)), C(fmt.Sprintf("d%d", j))))
		}
		if s.Len() != 256 {
			b.Fatal("bad store")
		}
	}
}

func BenchmarkAtomKey(b *testing.B) {
	a := A("predicate", C("constant"), N("null1"), F("f", C("x"), V("Y")))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Key()
	}
}

func BenchmarkModelCheck(b *testing.B) {
	s := benchStore(128)
	// Closure rule unsatisfied: every trigger is a violation candidate.
	r := NewRule("tc",
		[]Literal{Pos(A("edge", V("X"), V("Y"))), Pos(A("edge", V("Y"), V("Z")))},
		[]Atom{A("edge", V("X"), V("Z"))})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if SatisfiesRule(r, s) {
			b.Fatal("chain is not transitively closed")
		}
	}
}

// BenchmarkDomain pins the incrementally maintained domain: the store
// has 128x more atoms than domain terms, so a regression to walking
// every atom per call shows up immediately.
func BenchmarkDomain(b *testing.B) {
	s := NewFactStore()
	for i := 0; i < 8192; i++ {
		s.Add(A("e", C(fmt.Sprintf("c%d", i%64)), C(fmt.Sprintf("c%d", (i/64)%64))))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := s.Domain(); len(d) != 64 {
			b.Fatalf("domain = %d, want 64", len(d))
		}
	}
}

// BenchmarkStoreBranch compares the two ways to branch a store: a
// copy-on-write snapshot plus one write versus a deep clone plus one
// write — the operation the stable-model search performs at every
// branch child.
func BenchmarkStoreBranch(b *testing.B) {
	s := benchStore(4096)
	extra := A("edge", C("x"), C("y"))
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := s.Snapshot()
			c.Add(extra)
			if c.Len() != 4097 {
				b.Fatal("bad branch")
			}
		}
	})
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := s.Clone()
			c.Add(extra)
			if c.Len() != 4097 {
				b.Fatal("bad branch")
			}
		}
	})
}

// BenchmarkHomDeltaLayered gates the regime that dominates the stable
// model search: a cached BodyPlans delta join of a 9-atom body shaped
// like the QBF encoding's saturate rule, run once per layer of a
// depth-16 snapshot chain over that layer's 1–3-atom window — what an
// agenda refresh does at every search node. Warm calls allocate nothing
// (see TestHomSearchAllocations), so allocs/op must stay 0.
func BenchmarkHomDeltaLayered(b *testing.B) {
	root := NewFactStore()
	const nvars = 8
	for i := 0; i < nvars; i++ {
		q := "exists"
		if i%2 == 1 {
			q = "forall"
		}
		root.Add(A(q, C(fmt.Sprintf("v%d", i))))
	}
	star := C("*")
	v := func(i int) Term { return C(fmt.Sprintf("v%d", i%nvars)) }
	// Variable i is assigned one when i%4 < 2, zero otherwise, so the
	// terms with t%4 == 0 become satisfied as the chain assigns them.
	for t := 0; t < 12; t++ {
		root.Add(A("cl", v(t), v(t+1), star, v(t+2), star, v(t+3)))
	}
	root.Add(A("assign", star, N("o")))
	root.Add(A("assign", star, N("z")))
	zero, one := N("z"), N("o")
	type window struct {
		store *FactStore
		from  int
	}
	var windows []window
	st := root
	for layer := 0; layer < 16; layer++ {
		st = st.Snapshot()
		from := st.Len()
		switch layer {
		case 0:
			st.Add(A("zero", zero))
		case 1:
			st.Add(A("one", one))
		}
		for k := 0; k <= layer%3 && st.Len()-from < 3; k++ {
			val := zero
			if (layer+k)%4 < 2 {
				val = one
			}
			st.Add(A("assign", v(layer+k), val))
		}
		windows = append(windows, window{st, from})
	}
	body := NewBodyPlans([]Atom{
		A("cl", V("P1"), V("P2"), V("P3"), V("N1"), V("N2"), V("N3")),
		A("assign", V("P1"), V("O")), A("assign", V("P2"), V("O")), A("assign", V("P3"), V("O")), A("one", V("O")),
		A("assign", V("N1"), V("Z")), A("assign", V("N2"), V("Z")), A("assign", V("N3"), V("Z")), A("zero", V("Z")),
	}, nil)
	var sc Scratch
	sweep := func() int {
		n := 0
		for _, w := range windows {
			body.FindHomsFrom(&sc, w.store, w.from, nil, func(*Match) bool {
				n++
				return true
			})
		}
		return n
	}
	want := sweep()
	if want == 0 {
		b.Fatal("the layered windows complete no saturate match")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := sweep(); got != want {
			b.Fatalf("sweep found %d matches, want %d", got, want)
		}
	}
}
