// Coloring: the CERT3COL-style certain k-colorability problem of
// Section 7.1 — edges are labeled with Boolean literals; the instance
// is certainly colorable iff for EVERY assignment the active subgraph
// is k-colorable (a ΠP2-complete question). The example solves it
// three ways: natively as a WATGD¬,∨ program (Theorem 12/18), through
// the Theorem 15 translation to WATGD¬, and by brute force.
package main

import (
	"context"
	"fmt"
	"log"

	"ntgd"
	"ntgd/internal/encodings"
)

// bravelyEntailed compiles the facts and rules under the SO semantics
// and reports whether some stable model satisfies q.
func bravelyEntailed(db *ntgd.FactStore, rules []*ntgd.Rule, q ntgd.Query) bool {
	s, err := ntgd.Compile(&ntgd.Program{Facts: db.Atoms(), Rules: rules}, ntgd.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Entails(context.Background(), q, ntgd.Brave)
	if err != nil {
		log.Fatal(err)
	}
	return res.Entailed
}

func main() {
	g := encodings.CertColGraph{
		Vertices: []string{"a", "b", "c"},
		Vars:     []string{"p"},
		K:        2,
		Edges: []encodings.LabeledEdge{
			// A conditional triangle: all three edges are active only
			// when p is true.
			{U: "a", W: "b", Var: "p"},
			{U: "b", W: "c", Var: "p"},
			{U: "a", W: "c", Var: "p"},
			// This edge is always inactive-or-active oppositely.
			{U: "a", W: "b", Var: "p", Neg: true},
		},
	}
	fmt.Printf("graph: %d vertices, %d labeled edges, k=%d\n", len(g.Vertices), len(g.Edges), g.K)

	// Native disjunctive run.
	native := !bravelyEntailed(g.Database(), g.DatalogProgram(), g.BadQuery())
	fmt.Printf("native WATGD¬,∨ verdict:    certainly %d-colorable = %v\n", g.K, native)

	// Theorem 15 translation.
	w, err := g.WATGDProgram()
	if err != nil {
		log.Fatal(err)
	}
	qT := ntgd.Query{Pos: []ntgd.Atom{ntgd.A(w.QueryPred)}}
	fmt.Printf("Theorem 15 WATGD¬ verdict:  certainly %d-colorable = %v\n", g.K, !bravelyEntailed(g.Database(), w.Rules, qT))

	// Brute force reference.
	fmt.Printf("brute force reference:      certainly %d-colorable = %v\n", g.K, g.BruteForce())

	// With three colors every assignment is fine.
	g.K = 3
	fmt.Printf("\nwith k=3: certainly colorable = %v (brute: %v)\n", !bravelyEntailed(g.Database(), g.DatalogProgram(), g.BadQuery()), g.BruteForce())
}
