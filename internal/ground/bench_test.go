package ground_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ntgd/internal/ground"
	"ntgd/internal/logic"
	"ntgd/internal/parser"
)

// BenchmarkGroundBulkLP pins the LP write path: grounding the four LP
// rules of perfbench's bulkdb workload, Skolemized, over a database of
// its shape — 10⁴ random edges over 10³ nodes, 10³ employees in 100
// departments, 30 managers — which every new database version
// compiles once.
func BenchmarkGroundBulkLP(b *testing.B) {
	rules := ground.Skolemize(parser.MustParse(`
emp(E,D) -> badge(E,B).
mgr(D,M) -> boss(M).
emp(E,D), not boss(E) -> staff(E).
edge(X,Y), not edge(Y,X) -> oneway(X,Y).
`).Rules)
	rng := rand.New(rand.NewSource(1))
	c := func(prefix string, n int) logic.Term { return logic.C(fmt.Sprintf("%s%d", prefix, rng.Intn(n))) }
	var facts []logic.Atom
	for i := 0; i < 10000; i++ {
		facts = append(facts, logic.A("edge", c("n", 1000), c("n", 1000)))
	}
	for e := 0; e < 1000; e++ {
		facts = append(facts, logic.A("emp", logic.C(fmt.Sprintf("e%d", e)), c("d", 100)))
	}
	for d := 0; d < 30; d++ {
		facts = append(facts, logic.A("mgr", c("d", 100), c("e", 1000)))
	}
	db := logic.StoreOf(facts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ground.Ground(db, rules, ground.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
