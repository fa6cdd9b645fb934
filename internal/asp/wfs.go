package asp

import "fmt"

// WFSResult is the well-founded model of a normal program: the sets of
// well-founded true and false atoms; everything else is undefined.
type WFSResult struct {
	True      []int
	False     []int
	Undefined []int
	trueSet   []bool
}

// IsTrue reports whether the atom is well-founded true.
func (w *WFSResult) IsTrue(id int) bool { return w.trueSet[id] }

// WellFounded computes the well-founded model of a normal program via
// the alternating fixpoint of Van Gelder: with Γ(S) the least model of
// the reduct P^S, the sequence U₀=∅, Vᵢ=Γ(Uᵢ), Uᵢ₊₁=Γ(Vᵢ) converges;
// lfp(Γ²) is the set of well-founded true atoms and the complement of
// gfp(Γ²) the well-founded false ones. Constraints and disjunctions
// are rejected.
func WellFounded(p *Program) (*WFSResult, error) {
	for i, r := range p.Rules {
		if len(r.Disjuncts) > 1 {
			return nil, fmt.Errorf("asp: well-founded semantics is defined for normal programs (rule %d is disjunctive)", i)
		}
		if r.IsConstraint() {
			return nil, fmt.Errorf("asp: well-founded semantics does not support constraints (rule %d)", i)
		}
	}
	ev := newGammaEval(p)
	u := make([]bool, p.NAtoms) // under-approximation of true atoms
	v := ev.gamma(u)            // over-approximation
	for {
		u2 := ev.gamma(v)
		v2 := ev.gamma(u2)
		if boolsEqual(u, u2) && boolsEqual(v, v2) {
			break
		}
		u, v = u2, v2
	}
	res := &WFSResult{trueSet: u}
	for a := 0; a < p.NAtoms; a++ {
		switch {
		case u[a]:
			res.True = append(res.True, a)
		case !v[a]:
			res.False = append(res.False, a)
		default:
			res.Undefined = append(res.Undefined, a)
		}
	}
	return res, nil
}

// gammaEval computes least models of reducts P^S by delta-driven
// (semi-naive) propagation instead of scanning every rule until no
// pass changes anything: occurrence lists map each atom to the rules
// whose positive body mentions it (once per occurrence), a counter per
// rule tracks how many positive body atoms are still unsatisfied, and
// a worklist of newly derived atoms drives the counters to zero. One
// evaluator is built per WellFounded call and reused across the
// alternating-fixpoint iterations.
type gammaEval struct {
	p   *Program
	occ [][]int32 // atom -> indices of rules with that atom in Pos (per occurrence)
}

func newGammaEval(p *Program) *gammaEval {
	ev := &gammaEval{p: p, occ: make([][]int32, p.NAtoms)}
	for ri, r := range p.Rules {
		for _, b := range r.Pos {
			ev.occ[b] = append(ev.occ[b], int32(ri))
		}
	}
	return ev
}

// gamma computes the least model of the reduct P^S: drop rules with a
// negative literal whose atom is in S, strip negative literals, and
// forward-chain. gammaNaive is the scan-until-fixpoint original, kept
// as the differential-test oracle.
func (ev *gammaEval) gamma(s []bool) []bool {
	p := ev.p
	out := make([]bool, p.NAtoms)
	remaining := make([]int32, len(p.Rules))
	var queue []int32
	fire := func(ri int32) {
		for _, h := range p.Rules[ri].Disjuncts[0] {
			if !out[h] {
				out[h] = true
				queue = append(queue, int32(h))
			}
		}
	}
	for ri := range p.Rules {
		r := &p.Rules[ri]
		blocked := false
		for _, n := range r.Neg {
			if s[n] {
				blocked = true
				break
			}
		}
		if blocked {
			remaining[ri] = -1
			continue
		}
		remaining[ri] = int32(len(r.Pos))
		if remaining[ri] == 0 {
			fire(int32(ri))
		}
	}
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range ev.occ[a] {
			if remaining[ri] <= 0 {
				continue // blocked, or already fired
			}
			remaining[ri]--
			if remaining[ri] == 0 {
				fire(ri)
			}
		}
	}
	return out
}

func gammaNaive(p *Program, s []bool) []bool {
	out := make([]bool, p.NAtoms)
	for changed := true; changed; {
		changed = false
		for _, r := range p.Rules {
			blocked := false
			for _, n := range r.Neg {
				if s[n] {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			fire := true
			for _, b := range r.Pos {
				if !out[b] {
					fire = false
					break
				}
			}
			if !fire {
				continue
			}
			for _, h := range r.Disjuncts[0] {
				if !out[h] {
					out[h] = true
					changed = true
				}
			}
		}
	}
	return out
}

func boolsEqual(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
