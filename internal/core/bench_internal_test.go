package core

import (
	"fmt"
	"testing"

	"ntgd/internal/logic"
	"ntgd/internal/parser"
)

// legacyTriggerKey is an earlier trigger identity, kept here for the
// benchmark below: it concatenated the rule label with hom.String(),
// which sorts the variable names and renders every binding through a
// fresh strings.Builder on every call.
func legacyTriggerKey(r *logic.Rule, hom logic.Subst) string { return r.Label + "|" + hom.String() }

func benchTrigger(b *testing.B) (*searcher, *trigger, logic.Subst) {
	b.Helper()
	prog, err := parser.Parse("e(X,Y), f(Y,Z), not u(X) -> u(Z).\n")
	if err != nil {
		b.Fatal(err)
	}
	s := &searcher{run: &run{ruleSet: newRuleSet(prog.Rules), syms: logic.NewFactStore().Symbols()}}
	hom := logic.Subst{
		"X": logic.C("alpha"),
		"Y": logic.N("n17"),
		"Z": logic.F("sk", logic.C("alpha"), logic.C("beta")),
	}
	return s, &trigger{ruleIdx: 0, ids: s.idsOf(0, hom)}, hom
}

// BenchmarkTriggerKey compares the compact trigger key (rule index plus
// the cached canonical keys of the bound term ids in the rule's
// precomputed variable order, assembled in a reused buffer) against the
// legacy Label+"|"+hom.String() key. The cached-key fast path (the
// common case: every deferred-set probe after the first) is measured
// separately.
func BenchmarkTriggerKey(b *testing.B) {
	s, t, hom := benchTrigger(b)
	rule := s.rules[0]
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if legacyTriggerKey(rule, hom) == "" {
				b.Fatal("empty key")
			}
		}
	})
	b.Run("compact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t.key.Store(nil) // force a rebuild
			if s.triggerKey(t) == "" {
				b.Fatal("empty key")
			}
		}
	})
	b.Run("compact-cached", func(b *testing.B) {
		b.ReportAllocs()
		t.key.Store(nil)
		for i := 0; i < b.N; i++ {
			if s.triggerKey(t) == "" {
				b.Fatal("empty key")
			}
		}
	})
}

// BenchmarkWitnessPool pins the witness-pool construction: the domain
// is maintained incrementally by FactStore.Add and extra constants are
// deduplicated by hash lookups, so building the pool costs O(domain),
// not O(atoms) for the old full-store walk plus O(pool²) Equal scans.
// The store deliberately has many more atoms (8192) than domain terms
// (64) — a regression to per-call domain recomputation shows up as an
// ~128x blowup here.
func BenchmarkWitnessPool(b *testing.B) {
	st := &state{A: logic.NewFactStore()}
	for i := 0; i < 8192; i++ {
		st.A.Add(logic.A("e",
			logic.C(fmt.Sprintf("c%d", i%64)),
			logic.C(fmt.Sprintf("c%d", (i/64)%64))))
	}
	var extras []logic.Term
	for i := 0; i < 8; i++ {
		extras = append(extras, logic.C(fmt.Sprintf("c%d", 60+i))) // half duplicate the domain
	}
	s := &searcher{run: &run{opt: Options{ExtraConstants: extras}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tuples := s.witnessTuples(st, []string{"Z"})
		if len(tuples) != 64+4+1 {
			b.Fatalf("tuples = %d, want 69", len(tuples))
		}
	}
}
