package encodings_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ntgd/internal/classify"
	"ntgd/internal/encodings"
)

// solveCertCol decides the instance through the native disjunctive
// engine (WATGD¬,∨): YES iff bad is not bravely entailed.
func solveCertCol(t *testing.T, g encodings.CertColGraph) bool {
	t.Helper()
	res := entails(t, g.Database(), g.DatalogProgram(), g.BadQuery(), true)
	if res.Exhausted {
		t.Fatalf("budget exhausted")
	}
	return !res.Entailed
}

func TestCertColHandPicked(t *testing.T) {
	// Triangle with always-active edges: 3-colorable, not 2-colorable.
	triangle := func(k int) encodings.CertColGraph {
		return encodings.CertColGraph{
			Vertices: []string{"a", "b", "c"},
			Vars:     []string{"p"},
			K:        k,
			Edges: []encodings.LabeledEdge{
				// p and ~p labels make each edge active under every
				// assignment.
				{U: "a", W: "b", Var: "p"}, {U: "a", W: "b", Var: "p", Neg: true},
				{U: "b", W: "c", Var: "p"}, {U: "b", W: "c", Var: "p", Neg: true},
				{U: "a", W: "c", Var: "p"}, {U: "a", W: "c", Var: "p", Neg: true},
			},
		}
	}
	if got := triangle(3).BruteForce(); !got {
		t.Fatalf("brute force: triangle should be certainly 3-colorable")
	}
	if got := triangle(2).BruteForce(); got {
		t.Fatalf("brute force: triangle should not be certainly 2-colorable")
	}
	if got := solveCertCol(t, triangle(3)); !got {
		t.Fatalf("encoding: triangle should be certainly 3-colorable")
	}
	if got := solveCertCol(t, triangle(2)); got {
		t.Fatalf("encoding: triangle should not be certainly 2-colorable")
	}

	// A single edge active only when p is true: 1-colorable for p
	// false, not for p true → not certainly 1-colorable, but
	// certainly 2-colorable.
	oneEdge := encodings.CertColGraph{
		Vertices: []string{"a", "b"},
		Vars:     []string{"p"},
		K:        1,
		Edges:    []encodings.LabeledEdge{{U: "a", W: "b", Var: "p"}},
	}
	if oneEdge.BruteForce() {
		t.Fatalf("brute force: one conditional edge is not certainly 1-colorable")
	}
	if solveCertCol(t, oneEdge) {
		t.Fatalf("encoding: one conditional edge is not certainly 1-colorable")
	}
	oneEdge.K = 2
	if !oneEdge.BruteForce() || !solveCertCol(t, oneEdge) {
		t.Fatalf("one conditional edge should be certainly 2-colorable")
	}
}

func TestCertColRandomAgainstBrute(t *testing.T) {
	if testing.Short() {
		t.Skip("random cert-col agreement is slow")
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5; i++ {
		g := randomCertCol(rng, 3, 1, 3, 2)
		want := g.BruteForce()
		if got := solveCertCol(t, g); got != want {
			t.Fatalf("instance %d: encoding = %v, brute = %v (%+v)", i, got, want, g)
		}
	}
}

// TestCertColDatalogProgramIsWeaklyAcyclic: the DATALOG∨ encoding is
// trivially weakly acyclic (no existentials), and its Theorem 15
// translation is weakly acyclic by construction.
func TestCertColDatalogProgramIsWeaklyAcyclic(t *testing.T) {
	g := randomCertCol(rand.New(rand.NewSource(1)), 3, 2, 3, 3)
	if !classify.IsWeaklyAcyclic(g.DatalogProgram()) {
		t.Fatalf("DATALOG∨ encoding should be weakly acyclic")
	}
	w, err := g.WATGDProgram()
	if err != nil {
		t.Fatalf("WATGDProgram: %v", err)
	}
	if !classify.IsWeaklyAcyclic(w.Rules) {
		t.Fatalf("Theorem 15 translation must be weakly acyclic")
	}
	for _, r := range w.Rules {
		if r.IsDisjunctive() {
			t.Fatalf("Theorem 15 translation must be disjunction-free: %s", r)
		}
	}
}

func randomCertCol(rng *rand.Rand, nVertices, nVars, nEdges, k int) encodings.CertColGraph {
	g := encodings.CertColGraph{K: k}
	for i := 0; i < nVertices; i++ {
		g.Vertices = append(g.Vertices, fmt.Sprintf("v%d", i))
	}
	for i := 0; i < nVars; i++ {
		g.Vars = append(g.Vars, fmt.Sprintf("p%d", i))
	}
	for i := 0; i < nEdges; i++ {
		u := rng.Intn(nVertices)
		w := rng.Intn(nVertices)
		for w == u {
			w = rng.Intn(nVertices)
		}
		g.Edges = append(g.Edges, encodings.LabeledEdge{
			U:   g.Vertices[u],
			W:   g.Vertices[w],
			Var: g.Vars[rng.Intn(nVars)],
			Neg: rng.Intn(2) == 1,
		})
	}
	return g
}
