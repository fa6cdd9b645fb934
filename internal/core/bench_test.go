package core_test

import (
	"fmt"
	"testing"

	"ntgd/internal/core"
	"ntgd/internal/parser"
)

// benchChoiceProgram is a branch-heavy stable-model search over a store
// that is large relative to its per-branch deltas: nItems choice pairs
// (2^nItems stable models, 2^nItems-1 branch nodes) on top of nPad
// inert facts plus one datalog rule doubling them. Pre-PR, every branch
// child deep-copied the whole store and every node re-ran full trigger
// detection; the snapshot + agenda engine pays O(delta) for both.
func benchChoiceProgram(nItems, nPad int) string {
	src := ""
	for i := 0; i < nItems; i++ {
		src += fmt.Sprintf("item(i%d).\n", i)
	}
	for i := 0; i < nPad; i++ {
		src += fmt.Sprintf("pad(p%d).\n", i)
	}
	src += "pad(X) -> padded(X).\n"
	src += "item(X), not out(X) -> in(X).\n"
	src += "item(X), not in(X) -> out(X).\n"
	return src
}

func BenchmarkStableSearchChoiceWide(b *testing.B) {
	for _, cfg := range []struct{ items, pad int }{{5, 64}, {7, 256}} {
		prog, err := parser.Parse(benchChoiceProgram(cfg.items, cfg.pad))
		if err != nil {
			b.Fatal(err)
		}
		db := prog.Database()
		opt := core.Options{MaxAtoms: 4096}
		want := 1 << cfg.items
		b.Run(fmt.Sprintf("items=%d/pad=%d", cfg.items, cfg.pad), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := stableModels(b, db, prog.Rules, opt)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Models) != want {
					b.Fatalf("models = %d, want %d", len(res.Models), want)
				}
				if res.Stats.Branches < int64(want)-1 {
					b.Fatalf("branch nodes = %d, want >= %d", res.Stats.Branches, want-1)
				}
			}
		})
	}
}

// BenchmarkParallelSearch pins the worker pool on a branch-heavy
// search (512 models over a padded store): workers=1 is the sequential
// baseline; larger pools must emit the identical model set while
// spreading the subtree exploration and the per-model stability checks
// across cores. On a multi-core runner workers=4 is the headline
// speedup number; on a single core it measures the pool's overhead.
func BenchmarkParallelSearch(b *testing.B) {
	prog, err := parser.Parse(benchChoiceProgram(9, 64))
	if err != nil {
		b.Fatal(err)
	}
	db := prog.Database()
	const want = 1 << 9
	for _, workers := range []int{1, 2, 4} {
		opt := core.Options{MaxAtoms: 4096, Workers: workers}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := stableModels(b, db, prog.Rules, opt)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Models) != want {
					b.Fatalf("models = %d, want %d", len(res.Models), want)
				}
			}
		})
	}
}

// benchDisjExistProgram combines disjunctive branching with existential
// witnesses (fresh-only policy, so the witness pool stays canonical):
// 2-coloring an even cycle of nNodes nodes, where every red node grows
// an existential successor. Constraints prune improper colorings, so
// the search explores a deep branch-heavy tree (well over 64 branch
// nodes) but completes only the two alternating colorings — the cost is
// almost entirely branching machinery, which is what this benchmark
// pins. nPad inert facts (plus one datalog rule doubling them) keep the
// store large relative to the per-branch deltas.
func benchDisjExistProgram(nNodes, nPad int) string {
	src := ""
	for i := 0; i < nNodes; i++ {
		src += fmt.Sprintf("node(v%d).\n", i)
		src += fmt.Sprintf("edge(v%d,v%d).\n", i, (i+1)%nNodes)
	}
	for i := 0; i < nPad; i++ {
		src += fmt.Sprintf("pad(p%d).\n", i)
	}
	src += "pad(X) -> padded(X).\n"
	src += ":- edge(X,Y), red(X), red(Y).\n"
	src += ":- edge(X,Y), green(X), green(Y).\n"
	src += "node(X) -> red(X) | green(X).\n"
	src += "red(X) -> succ(X,Y).\n"
	return src
}

func BenchmarkStableSearchDisjunctiveExistential(b *testing.B) {
	for _, cfg := range []struct{ nodes, pad int }{{32, 128}} {
		prog, err := parser.Parse(benchDisjExistProgram(cfg.nodes, cfg.pad))
		if err != nil {
			b.Fatal(err)
		}
		db := prog.Database()
		opt := core.Options{MaxAtoms: 4096, WitnessPolicy: core.WitnessFreshOnly}
		b.Run(fmt.Sprintf("nodes=%d/pad=%d", cfg.nodes, cfg.pad), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := stableModels(b, db, prog.Rules, opt)
				if err != nil {
					b.Fatal(err)
				}
				// The two alternating 2-colorings of the even cycle.
				if len(res.Models) != 2 {
					b.Fatalf("models = %d, want 2", len(res.Models))
				}
				if res.Stats.Branches < 64 {
					b.Fatalf("branch nodes = %d, want >= 64", res.Stats.Branches)
				}
			}
		})
	}
}

// BenchmarkStabilitySession pins the incremental stability sessions on
// the two shapes they were built for. deep-pad grows a store that is
// very large relative to its per-branch deltas (few choices over a big
// inert prefix): pre-session, every emitted model re-encoded the whole
// prefix for its stability check; the session encodes it once at the
// root and each model pays only its delta window plus reloading its
// chain's clauses into the worker's solver. wide-choice is branch-heavy
// (2^10 models over a small prefix), stressing per-branch window
// encoding and the per-check reload of a chain whose layers are shared
// down the tree. Workers=2 forks whenever the single pool token frees,
// and Workers=8 forks more often; forks encode the pending chain and
// copy nothing (on a multi-core runner they also spread the per-model
// solves).
func BenchmarkStabilitySession(b *testing.B) {
	shapes := []struct {
		name       string
		items, pad int
		wantModels int
	}{
		{"deep-pad", 4, 1024, 1 << 4},
		{"wide-choice", 10, 32, 1 << 10},
	}
	for _, shape := range shapes {
		prog, err := parser.Parse(benchChoiceProgram(shape.items, shape.pad))
		if err != nil {
			b.Fatal(err)
		}
		db := prog.Database()
		for _, workers := range []int{1, 2, 8} {
			opt := core.Options{MaxAtoms: 8192, Workers: workers}
			b.Run(fmt.Sprintf("%s/workers=%d", shape.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := stableModels(b, db, prog.Rules, opt)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Models) != shape.wantModels {
						b.Fatalf("models = %d, want %d", len(res.Models), shape.wantModels)
					}
					if res.Stats.StabilityChecks < int64(shape.wantModels) {
						b.Fatalf("stability checks = %d, want >= %d", res.Stats.StabilityChecks, shape.wantModels)
					}
				}
			})
		}
	}
}
