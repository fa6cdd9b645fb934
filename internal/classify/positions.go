// Package classify implements the syntactic decidability paradigms the
// paper studies: weak-acyclicity (via the position graph of Fagin et
// al., Definition 3), stickiness (via the marking procedure of Calì,
// Gottlob and Pieris, illustrated in Figure 1), and guardedness. All
// three notions are defined on Σ⁺ (respectively Σ⁺,∧): negative body
// literals are treated as positive atoms and disjunctive heads as
// conjunctions, exactly as prescribed in Sections 4.1–4.3 and 6.
package classify

import (
	"fmt"
	"sort"

	"ntgd/internal/logic"
)

// Position is an attribute position p[i] of an n-ary predicate p, with
// i ∈ [n] (1-based, as in the paper).
type Position struct {
	Pred string
	Idx  int
}

// String renders the position as p[i].
func (p Position) String() string { return fmt.Sprintf("%s[%d]", p.Pred, p.Idx) }

// Edge is an edge of the position graph. Special edges record that
// propagating a value into From's rule also creates a fresh value at
// To (an existential position).
type Edge struct {
	From, To Position
	Special  bool
	// Rule is the label of the rule that induced the edge.
	Rule string
}

// PositionGraph is the dependency graph PoG(Σ) of Definition 3.
type PositionGraph struct {
	Nodes []Position
	Edges []Edge

	adj map[Position][]int // node -> indexes into Edges (outgoing)
}

// BuildPositionGraph constructs PoG(Σ⁺,∧): for each rule, negative body
// literals are dropped and all head disjuncts are merged into one
// conjunction. For each universally quantified variable X occurring in
// the (merged) head and each body position π of X: a regular edge to
// every head position of X, and a special edge to every head position
// of an existential variable of the same rule.
func BuildPositionGraph(rules []*logic.Rule) *PositionGraph {
	g := &PositionGraph{adj: make(map[Position][]int)}
	nodeSet := make(map[Position]bool)
	addNode := func(p Position) {
		if !nodeSet[p] {
			nodeSet[p] = true
			g.Nodes = append(g.Nodes, p)
		}
	}
	edgeSeen := make(map[string]bool)
	addEdge := func(e Edge) {
		key := fmt.Sprintf("%s>%s>%v", e.From, e.To, e.Special)
		addNode(e.From)
		addNode(e.To)
		if edgeSeen[key] {
			return
		}
		edgeSeen[key] = true
		g.Edges = append(g.Edges, e)
		g.adj[e.From] = append(g.adj[e.From], len(g.Edges)-1)
	}

	for _, r := range rules {
		// Register every position so isolated ones appear as nodes.
		for _, a := range r.PosBody() {
			for i := range a.Args {
				addNode(Position{a.Pred, i + 1})
			}
		}
		head := mergedHead(r)
		for _, a := range head {
			for i := range a.Args {
				addNode(Position{a.Pred, i + 1})
			}
		}
		pb := r.PosBodyVars()
		// Head positions per variable, split by universal/existential.
		headPos := make(map[string][]Position)
		for _, a := range head {
			for i, t := range a.Args {
				if t.Kind == logic.Var {
					headPos[t.Name] = append(headPos[t.Name], Position{a.Pred, i + 1})
				}
			}
		}
		var existPos []Position
		for v, ps := range headPos {
			if !pb[v] {
				existPos = append(existPos, ps...)
			}
		}
		sort.Slice(existPos, func(i, j int) bool {
			return existPos[i].Pred < existPos[j].Pred ||
				(existPos[i].Pred == existPos[j].Pred && existPos[i].Idx < existPos[j].Idx)
		})
		// Body positions of each universal variable that occurs in the
		// head.
		for _, a := range r.PosBody() {
			for i, t := range a.Args {
				if t.Kind != logic.Var {
					continue
				}
				v := t.Name
				hps, occursInHead := headPos[v]
				if !occursInHead || !pb[v] {
					continue
				}
				from := Position{a.Pred, i + 1}
				for _, hp := range hps {
					addEdge(Edge{From: from, To: hp, Rule: r.Label})
				}
				for _, ep := range existPos {
					addEdge(Edge{From: from, To: ep, Special: true, Rule: r.Label})
				}
			}
		}
	}
	sort.Slice(g.Nodes, func(i, j int) bool {
		return g.Nodes[i].Pred < g.Nodes[j].Pred ||
			(g.Nodes[i].Pred == g.Nodes[j].Pred && g.Nodes[i].Idx < g.Nodes[j].Idx)
	})
	return g
}

// mergedHead returns the union of all head disjuncts (Σ⁺,∧ of
// Section 6). Constraints yield an empty head.
func mergedHead(r *logic.Rule) []logic.Atom {
	if len(r.Heads) == 1 {
		return r.Heads[0]
	}
	var out []logic.Atom
	for _, d := range r.Heads {
		out = append(out, d...)
	}
	return out
}

// reaches reports whether to is reachable from from (following edges of
// any kind), including via a non-empty path when from == to.
func (g *PositionGraph) reaches(from, to Position) bool {
	visited := make(map[Position]bool)
	stack := []Position{from}
	first := true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !first && n == to {
			return true
		}
		if !first {
			if visited[n] {
				continue
			}
			visited[n] = true
		}
		first = false
		for _, ei := range g.adj[n] {
			e := g.Edges[ei]
			if e.To == to {
				return true
			}
			if !visited[e.To] {
				stack = append(stack, e.To)
			}
		}
	}
	return false
}

// HasSpecialCycle reports whether some cycle contains a special edge —
// the negation of weak-acyclicity.
func (g *PositionGraph) HasSpecialCycle() bool {
	for _, e := range g.Edges {
		if e.Special && (e.To == e.From || g.reaches(e.To, e.From)) {
			return true
		}
	}
	return false
}

// Ranks computes the rank of every position: the maximum number of
// special edges on any path ending at the position (Fagin et al.'s
// termination argument for the weakly-acyclic chase). It returns
// (nil, false) if the graph has a cycle through a special edge, in
// which case ranks are unbounded.
func (g *PositionGraph) Ranks() (map[Position]int, bool) {
	if g.HasSpecialCycle() {
		return nil, false
	}
	rank := make(map[Position]int, len(g.Nodes))
	// Bellman-Ford style relaxation; path special-counts are bounded by
	// the number of special edges, so at most |Edges|+1 rounds settle.
	bound := 0
	for _, e := range g.Edges {
		if e.Special {
			bound++
		}
	}
	for round := 0; ; round++ {
		changed := false
		for _, e := range g.Edges {
			w := 0
			if e.Special {
				w = 1
			}
			if r := rank[e.From] + w; r > rank[e.To] {
				rank[e.To] = r
				changed = true
			}
		}
		if !changed {
			break
		}
		if round > len(g.Edges)+bound+1 {
			// Defensive: cannot happen when HasSpecialCycle is false.
			return nil, false
		}
	}
	return rank, true
}

// IsWeaklyAcyclic reports whether the rule set is weakly acyclic
// (WATGD¬ / WATGD¬,∨ membership test): no cycle of PoG(Σ⁺,∧) contains a
// special edge.
func IsWeaklyAcyclic(rules []*logic.Rule) bool {
	return !BuildPositionGraph(rules).HasSpecialCycle()
}
