package core

import (
	"math/rand"
	"strconv"
	"testing"

	"ntgd/internal/logic"
	"ntgd/internal/parser"
)

// randKeyTerm draws a ground term for TestTriggerKeyMatchesAppendKey:
// constants, nulls and function terms nested up to depth.
func randKeyTerm(rng *rand.Rand, depth int) logic.Term {
	names := []string{"a", "b", "alpha", "n1", "f"}
	switch k := rng.Intn(4); {
	case k == 0 && depth > 0:
		args := make([]logic.Term, 1+rng.Intn(2))
		for i := range args {
			args[i] = randKeyTerm(rng, depth-1)
		}
		return logic.F(names[rng.Intn(len(names))], args...)
	case k == 1:
		return logic.N(names[rng.Intn(len(names))])
	default:
		return logic.C(names[rng.Intn(len(names))])
	}
}

// TestTriggerKeyMatchesAppendKey pins the id-built trigger key to the
// rendering it replaced — the rule index, then '|' and Term.AppendKey of
// each bound term in the rule's variable order — on random triggers
// whose bindings mix constants, nulls and nested function terms. The
// branching order sorts on these keys, so any difference would change
// which stable models a search reaches.
func TestTriggerKeyMatchesAppendKey(t *testing.T) {
	prog, err := parser.Parse("e(X,Y), f(Y,Z), not u(X) -> u(Z).\np(W) -> q(W,V).\n")
	if err != nil {
		t.Fatal(err)
	}
	s := &searcher{run: &run{ruleSet: newRuleSet(prog.Rules), syms: logic.NewFactStore().Symbols()}}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		ri := rng.Intn(len(prog.Rules))
		hom := logic.Subst{}
		for _, v := range s.plans[ri].Vars {
			hom[v] = randKeyTerm(rng, 3)
		}
		want := strconv.AppendInt(nil, int64(ri), 10)
		for _, v := range s.plans[ri].Vars {
			want = hom[v].AppendKey(append(want, '|'))
		}
		tr := &trigger{ruleIdx: ri, ids: s.idsOf(ri, hom)}
		if got := s.triggerKey(tr); got != string(want) {
			t.Fatalf("trigger %d of rule %d under %v: key %q, want %q", i, ri, hom, got, want)
		}
	}
}
