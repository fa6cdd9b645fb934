package encodings

import (
	"context"
	"fmt"
	"sort"

	"ntgd/internal/core"
	"ntgd/internal/engine"
	"ntgd/internal/logic"
)

// CQAInstance is a consistent query answering instance in the style of
// ten Cate, Fontaine and Kolaitis ([30] in the paper, cited in
// Section 7.1): a database that may violate a set of denial
// constraints, repaired by taking ⊆-maximal consistent subsets, with a
// weakly-acyclic set of TGDs used for ontological reasoning on top of
// each repair. An n-ary query is certain iff it holds in every stable
// model of (D', Σ_TGD) for every subset repair D'.
//
// (The paper only states that such an encoding exists for its
// languages; the concrete encoding below is ours.
// TestCQAEncodingAgreesWithBrute validates it against brute-force
// repair enumeration.)
type CQAInstance struct {
	DB *logic.FactStore
	// Denials are constraint rules (empty heads) over the database
	// predicates; a repair must not trigger any of them.
	Denials []*logic.Rule
	// TGDs are (negation-free, non-disjunctive) weakly-acyclic TGDs
	// applied over the repaired database.
	TGDs []*logic.Rule
}

// Validate checks the shape restrictions.
func (in *CQAInstance) Validate() error {
	for _, d := range in.Denials {
		if !d.IsConstraint() {
			return fmt.Errorf("cqa: %s is not a denial constraint", d.Label)
		}
		if d.HasNegation() {
			return fmt.Errorf("cqa: denial %s uses negation", d.Label)
		}
	}
	for _, t := range in.TGDs {
		if !t.IsTGD() {
			return fmt.Errorf("cqa: %s is not a plain TGD", t.Label)
		}
	}
	return nil
}

func dbPred(p string) string     { return "db_" + p }
func inPred(p string) string     { return "in_" + p }
func outPred(p string) string    { return "out_" + p }
func blamedPred(p string) string { return "bl_" + p }

// Encode compiles the instance into a single (D*, Σ*) pair whose
// stable models are exactly the pairs (repair, TGD model): database
// facts are moved to shadow db_ predicates; in/out membership is
// guessed by the standard cyclic-negation choice; repairs must satisfy
// the denials (via the false/aux idiom) and be maximal (every out atom
// must be *blamed*: re-adding it would trigger a denial together with
// in atoms); in_ atoms are copied to the original predicates, over
// which the TGDs and the query run unchanged.
func (in *CQAInstance) Encode() (*logic.FactStore, []*logic.Rule, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	db := logic.NewFactStore()
	preds := map[string]int{}
	for _, f := range in.DB.Atoms() {
		preds[f.Pred] = f.Arity()
		db.Add(logic.Atom{Pred: dbPred(f.Pred), Args: f.Args})
	}
	var rules []*logic.Rule
	var predList []string
	for p := range preds {
		predList = append(predList, p)
	}
	sort.Strings(predList)

	vars := func(n int) []logic.Term {
		ts := make([]logic.Term, n)
		for i := range ts {
			ts[i] = logic.V("X" + fmt.Sprint(i))
		}
		return ts
	}
	for _, p := range predList {
		xs := vars(preds[p])
		// Choice: db_p ∧ ¬out_p → in_p; db_p ∧ ¬in_p → out_p.
		rules = append(rules,
			&logic.Rule{Label: "keep_" + p,
				Body: []logic.Literal{
					logic.Pos(logic.Atom{Pred: dbPred(p), Args: xs}),
					logic.Neg(logic.Atom{Pred: outPred(p), Args: xs})},
				Heads: [][]logic.Atom{{{Pred: inPred(p), Args: xs}}}},
			&logic.Rule{Label: "drop_" + p,
				Body: []logic.Literal{
					logic.Pos(logic.Atom{Pred: dbPred(p), Args: xs}),
					logic.Neg(logic.Atom{Pred: inPred(p), Args: xs})},
				Heads: [][]logic.Atom{{{Pred: outPred(p), Args: xs}}}},
			// Copy to the reasoning layer: in_p → p.
			&logic.Rule{Label: "copy_" + p,
				Body:  []logic.Literal{logic.Pos(logic.Atom{Pred: inPred(p), Args: xs})},
				Heads: [][]logic.Atom{{{Pred: p, Args: xs}}}},
			// Maximality: a dropped atom must be blamed.
			&logic.Rule{Label: "maxim_" + p,
				Body: []logic.Literal{
					logic.Pos(logic.Atom{Pred: outPred(p), Args: xs}),
					logic.Neg(logic.Atom{Pred: blamedPred(p), Args: xs})},
				Heads: [][]logic.Atom{{logic.A("false")}}},
		)
	}
	// Denial satisfaction on the repair: body over in_ predicates.
	for _, d := range in.Denials {
		body := make([]logic.Literal, 0, len(d.Body))
		for _, l := range d.Body {
			body = append(body, logic.Pos(logic.Atom{Pred: inPred(l.Atom.Pred), Args: l.Atom.Args}))
		}
		rules = append(rules, &logic.Rule{
			Label: d.Label + "_denial",
			Body:  body,
			Heads: [][]logic.Atom{{logic.A("false")}},
		})
		// Blame rules: for every non-empty unifiable subset S of body
		// positions, re-adding the (unified) atom at S completes the
		// denial with in_ atoms elsewhere.
		rules = append(rules, blameRules(d)...)
	}
	// The false/aux killer.
	rules = append(rules, &logic.Rule{
		Label: "killfalse",
		Body: []logic.Literal{
			logic.Pos(logic.A("false")),
			logic.Neg(logic.A("aux"))},
		Heads: [][]logic.Atom{{logic.A("aux")}},
	})
	rules = append(rules, in.TGDs...)
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, nil, fmt.Errorf("cqa: generated rule %s invalid: %w", r.Label, err)
		}
	}
	return db, rules, nil
}

// blameRules generates, for one denial with body atoms a₁…a_m, the
// rules bl_p(ā_S) ← out_p(ā_S), ∧_{i∉S} in(a_i) for each non-empty
// subset S of positions whose atoms unify to a single atom ā_S (the
// re-added tuple may occur at several body positions at once).
func blameRules(d *logic.Rule) []*logic.Rule {
	atoms := d.PosBody()
	m := len(atoms)
	var out []*logic.Rule
	for mask := 1; mask < 1<<m; mask++ {
		// All selected positions must share a predicate and unify.
		var sel []int
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				sel = append(sel, i)
			}
		}
		u, ok := unifyAtoms(atoms, sel)
		if !ok {
			continue
		}
		target := u.ApplyAtom(atoms[sel[0]])
		body := []logic.Literal{logic.Pos(logic.Atom{Pred: outPred(target.Pred), Args: target.Args})}
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				continue
			}
			a := u.ApplyAtom(atoms[i])
			body = append(body, logic.Pos(logic.Atom{Pred: inPred(a.Pred), Args: a.Args}))
		}
		out = append(out, &logic.Rule{
			Label: fmt.Sprintf("%s_blame%d", d.Label, mask),
			Body:  body,
			Heads: [][]logic.Atom{{{Pred: blamedPred(target.Pred), Args: target.Args}}},
		})
	}
	return out
}

// unifyAtoms computes a most general unifier of the selected body
// atoms (flat terms: variables and constants only).
func unifyAtoms(atoms []logic.Atom, sel []int) (logic.Subst, bool) {
	u := logic.Subst{}
	first := atoms[sel[0]]
	for _, i := range sel[1:] {
		a := atoms[i]
		if a.Pred != first.Pred || len(a.Args) != len(first.Args) {
			return nil, false
		}
	}
	resolve := func(t logic.Term) logic.Term {
		for t.Kind == logic.Var {
			b, ok := u[t.Name]
			if !ok {
				return t
			}
			t = b
		}
		return t
	}
	for _, i := range sel[1:] {
		a := atoms[i]
		for k := range a.Args {
			s, t := resolve(first.Args[k]), resolve(a.Args[k])
			switch {
			case s.Equal(t):
			case s.Kind == logic.Var:
				u[s.Name] = t
			case t.Kind == logic.Var:
				u[t.Name] = s
			default:
				return nil, false
			}
		}
	}
	return u, true
}

// BruteForceRepairs enumerates the ⊆-maximal subsets of the database
// that satisfy every denial constraint.
func (in *CQAInstance) BruteForceRepairs() ([]*logic.FactStore, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	facts := in.DB.Atoms()
	n := len(facts)
	if n > 20 {
		return nil, fmt.Errorf("cqa: brute force limited to 20 facts")
	}
	consistent := func(sub *logic.FactStore) bool {
		for _, d := range in.Denials {
			if logic.ExistsHom(d.PosBody(), nil, sub, logic.Subst{}) {
				return false
			}
		}
		return true
	}
	var subsets []*logic.FactStore
	var masks []int
	for mask := 0; mask < 1<<n; mask++ {
		sub := logic.NewFactStore()
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub.Add(facts[i])
			}
		}
		if consistent(sub) {
			subsets = append(subsets, sub)
			masks = append(masks, mask)
		}
	}
	var repairs []*logic.FactStore
	for i, sub := range subsets {
		maximal := true
		for j, other := range subsets {
			if i != j && masks[i]&masks[j] == masks[i] && masks[i] != masks[j] {
				maximal = false
				_ = other
				break
			}
		}
		if maximal {
			repairs = append(repairs, sub)
		}
	}
	return repairs, nil
}

// CertainBrute decides certain answers by brute force: q must hold in
// every stable model of (D', TGDs) for every repair D'.
func (in *CQAInstance) CertainBrute(q logic.Query, opt core.Options) (bool, error) {
	repairs, err := in.BruteForceRepairs()
	if err != nil {
		return false, err
	}
	for _, rep := range repairs {
		ok, err := certain(rep, in.TGDs, q, opt)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// CertainEncoded decides certain answers through the declarative
// encoding and the stable model engine.
func (in *CQAInstance) CertainEncoded(q logic.Query, opt core.Options) (bool, error) {
	db, rules, err := in.Encode()
	if err != nil {
		return false, err
	}
	return certain(db, rules, q, opt)
}

// certain compiles (db, rules) under the SO semantics and decides
// whether q holds in every stable model.
func certain(db *logic.FactStore, rules []*logic.Rule, q logic.Query, opt core.Options) (bool, error) {
	c, err := core.Compile(db, rules, opt)
	if err != nil {
		return false, err
	}
	res, err := engine.CautiousEntails(context.Background(), c, engine.Params{}, q)
	if err != nil {
		return false, err
	}
	return res.Entailed, nil
}
