package ground

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ntgd/internal/asp"
	"ntgd/internal/logic"
	"ntgd/internal/parser"
)

// TestGroundMatchesTwoPassRandomized pins the one-pass grounder against
// the two-pass grounder it replaced (groundTwoPass, below), on random
// Skolemized programs with recursion, negation over predicates derived
// in later rounds, disjunction, Skolem function terms, constraints, one
// predicate at two arities, and rules repeated up to variable names.
// Ground programs are compared rendered by atom name, independent of
// order: the atom sets; the facts; the instances, as a set against the
// reference, which merged identical instances of different rules; and
// the instances as a multiset against the reference run rule by rule
// over the final base, which merges nothing the one-pass grounder keeps.
// Each program is grounded over a root store of its facts and over a
// two-layer chain of them (twoLayerDatabase).
func TestGroundMatchesTwoPassRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const programs = 240
	skipped := 0
	var negs, disjs, funcs, dups int
	for trial := 0; trial < programs; trial++ {
		src := randSkolemProgram(rng)
		prog := parser.MustParse(src)
		db, rules := prog.Database(), Skolemize(prog.Rules)
		got := checkAgainstTwoPass(t, fmt.Sprintf("trial %d", trial), src, db, rules)
		layered := checkAgainstTwoPass(t, fmt.Sprintf("trial %d, two-layer database", trial), src, twoLayerDatabase(prog.Facts), rules)
		if (got == nil) != (layered == nil) {
			t.Fatalf("trial %d: the budget verdict depends on the database's layers on\n%s", trial, src)
		}
		if got == nil {
			skipped++
			continue
		}
		nf := db.Len()
		for _, r := range got.Prog.Rules[nf:] {
			if len(r.Neg) > 0 {
				negs++
			}
			if len(r.Disjuncts) > 1 {
				disjs++
			}
		}
		for _, a := range got.Base.Atoms() {
			if strings.Contains(a.String(), "sk_") {
				funcs++
			}
		}
		gotInst := renderRules(got, got.Prog.Rules[nf:])
		dups += len(gotInst) - len(distinct(gotInst))
	}
	t.Logf("%d of %d programs over budget; %d instances with negative literals, %d disjunctive instances, %d Skolem atoms, %d cross-rule duplicates",
		skipped, programs, negs, disjs, funcs, dups)
	if negs == 0 || disjs == 0 || funcs == 0 || dups == 0 {
		t.Fatalf("the generator no longer exercises every feature")
	}
	if 4*skipped > programs {
		t.Fatalf("%d of %d programs skipped; the property was barely checked", skipped, programs)
	}
}

// checkAgainstTwoPass grounds the rules over db with Ground and with
// groundTwoPass and compares the two as TestGroundMatchesTwoPassRandomized
// describes. It returns Ground's grounding, or nil when the program is
// over budget.
func checkAgainstTwoPass(t *testing.T, label, src string, db *logic.FactStore, rules []*logic.Rule) *Grounding {
	t.Helper()
	opt := Options{MaxAtoms: 200, MaxInstances: 4000}
	got, errGot := Ground(db, rules, opt)
	want, errWant := groundTwoPass(db, rules, opt)
	if errGot != nil && !errors.Is(errGot, ErrBudget) || errWant != nil && !errors.Is(errWant, ErrBudget) {
		t.Fatalf("%s: one-pass %v, two-pass %v on\n%s", label, errGot, errWant, src)
	}
	// The base is computed alike, and the one-pass grounder counts at
	// least the reference's instances: it may hit the instance budget
	// where the reference does not, never the other way.
	if errGot == nil && errWant != nil {
		t.Fatalf("%s: only the reference hit the budget: %v on\n%s", label, errWant, src)
	}
	if errGot != nil {
		return nil
	}
	if err := got.Prog.Validate(); err != nil {
		t.Fatalf("%s: %v on\n%s", label, err, src)
	}
	if g, w := atomNames(got), atomNames(want); strings.Join(g, " ") != strings.Join(w, " ") {
		t.Fatalf("%s: atoms differ\none-pass: %v\ntwo-pass: %v\non\n%s", label, g, w, src)
	}
	nf := db.Len()
	gotFacts, gotInst := renderRules(got, got.Prog.Rules[:nf]), renderRules(got, got.Prog.Rules[nf:])
	wantFacts, wantInst := renderRules(want, want.Prog.Rules[:nf]), renderRules(want, want.Prog.Rules[nf:])
	if !equalMultisets(gotFacts, wantFacts) {
		t.Fatalf("%s: facts differ\none-pass: %v\ntwo-pass: %v", label, gotFacts, wantFacts)
	}
	if g, w := distinct(gotInst), distinct(wantInst); strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatalf("%s: instance sets differ\none-pass:\n%s\ntwo-pass:\n%s\non\n%s",
			label, strings.Join(g, "\n"), strings.Join(w, "\n"), src)
	}
	// Rule by rule over the final base: every rule's instances, and
	// identical instances of different rules each kept once per rule.
	final := logic.StoreOf(got.Base.Atoms()...)
	var perRule []string
	for _, r := range rules {
		one, err := groundTwoPass(final, []*logic.Rule{r}, opt)
		if err != nil {
			t.Fatalf("%s: two-pass over the final base: %v", label, err)
		}
		if one.Prog.NAtoms != got.Base.Len() {
			t.Fatalf("%s: the final base is not closed under %v", label, r)
		}
		perRule = append(perRule, renderRules(one, one.Prog.Rules[final.Len():])...)
	}
	if !equalMultisets(gotInst, perRule) {
		t.Fatalf("%s: instance multisets differ\none-pass:\n%s\nrule by rule:\n%s\non\n%s",
			label, strings.Join(sorted(gotInst), "\n"), strings.Join(sorted(perRule), "\n"), src)
	}
	return got
}

// twoLayerDatabase loads facts as a two-layer chain: a root bulk-loaded
// with the first half and a snapshot layer holding the rest, the shape
// ntgd.Compile builds for a program compiled against a Database.
func twoLayerDatabase(facts []logic.Atom) *logic.FactStore {
	root := logic.NewFactStore()
	root.AddAll(facts[:len(facts)/2])
	db := root.Snapshot()
	db.AddAll(facts[len(facts)/2:])
	return db
}

// randSkolemProgram returns a random program over the constants c0..c3:
// database-only predicates e/2 and b/1, p at two arities in the
// database, derived predicates p/1, p/2, q/1, r/1 and s/2 with negation
// over any of them, and rules that are recursive, disjunctive,
// existential (Skolemized by the caller), or constraints. A rule is
// sometimes repeated with its variables renamed.
func randSkolemProgram(rng *rand.Rand) string {
	var b strings.Builder
	c := func() string { return fmt.Sprintf("c%d", rng.Intn(4)) }
	for i := 0; i < 3+rng.Intn(6); i++ {
		fmt.Fprintf(&b, "e(%s,%s).\n", c(), c())
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		fmt.Fprintf(&b, "b(%s).\n", c())
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		fmt.Fprintf(&b, "p(%s).\n", c())
	}
	for i := 0; i < rng.Intn(3); i++ {
		fmt.Fprintf(&b, "p(%s,%s).\n", c(), c())
	}
	type pred struct {
		name  string
		arity int
	}
	bodyPreds := []pred{{"e", 2}, {"b", 1}, {"p", 1}, {"p", 2}, {"q", 1}, {"r", 1}, {"s", 2}}
	edbPreds, headPreds := bodyPreds[:2], bodyPreds[2:]
	atom := func(p pred, arg func() string) string {
		args := make([]string, p.arity)
		for i := range args {
			args[i] = arg()
		}
		return p.name + "(" + strings.Join(args, ",") + ")"
	}
	var prev []string
	for i, n := 0, 3+rng.Intn(5); i < n; i++ {
		if len(prev) > 0 && rng.Intn(8) == 0 {
			r := strings.NewReplacer("X", "U", "Y", "V", "Z", "T").Replace(prev[rng.Intn(len(prev))])
			b.WriteString(r)
			continue
		}
		var vars []string
		fresh := func() string {
			if rng.Intn(6) == 0 {
				return c()
			}
			v := []string{"X", "Y", "Z"}[rng.Intn(3)]
			if !slices.Contains(vars, v) {
				vars = append(vars, v)
			}
			return v
		}
		bound := func() string {
			if len(vars) == 0 || rng.Intn(6) == 0 {
				return c()
			}
			return vars[rng.Intn(len(vars))]
		}
		// An existential rule joins database-only predicates, so Skolem
		// terms never nest: a Skolem function over two arguments that
		// are themselves Skolem terms grows exponentially with depth.
		kind := rng.Intn(10)
		preds := bodyPreds
		if kind >= 3 && kind < 5 {
			preds = edbPreds
		}
		var body []string
		for k := 0; k < 1+rng.Intn(3); k++ {
			body = append(body, atom(preds[rng.Intn(len(preds))], fresh))
		}
		for k := 0; k < rng.Intn(3); k++ {
			body = append(body, "not "+atom(headPreds[rng.Intn(len(headPreds))], bound))
		}
		var rule string
		switch k := kind; {
		case k == 0:
			rule = ":- " + strings.Join(body, ", ") + ".\n"
		case k < 3:
			rule = strings.Join(body, ", ") + " -> " + atom(headPreds[rng.Intn(len(headPreds))], bound) +
				" | " + atom(headPreds[rng.Intn(len(headPreds))], bound) + ".\n"
		case k < 5:
			// One existential argument, Skolemized into sk_<rule>_W(...).
			h := []pred{{"p", 2}, {"s", 2}}[rng.Intn(2)]
			w := rng.Intn(2)
			args := []string{bound(), bound()}
			args[w] = "W"
			rule = strings.Join(body, ", ") + " -> " + h.name + "(" + strings.Join(args, ",") + ").\n"
		default:
			rule = strings.Join(body, ", ") + " -> " + atom(headPreds[rng.Intn(len(headPreds))], bound) + ".\n"
		}
		b.WriteString(rule)
		prev = append(prev, rule)
	}
	return b.String()
}

// atomNames returns the grounding's atoms rendered and sorted.
func atomNames(g *Grounding) []string {
	out := make([]string, g.Base.Len())
	for i, a := range g.Base.Atoms() {
		out[i] = a.String()
	}
	slices.Sort(out)
	return out
}

// renderRules renders ground rules by atom name.
func renderRules(g *Grounding, rules []asp.Rule) []string {
	names := func(ids []int) string {
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = g.Base.AtomAt(id).String()
		}
		return strings.Join(parts, ",")
	}
	out := make([]string, len(rules))
	for i, r := range rules {
		disj := make([]string, len(r.Disjuncts))
		for d, h := range r.Disjuncts {
			disj[d] = names(h)
		}
		out[i] = strings.Join(disj, " | ") + " :- " + names(r.Pos) + " ; not " + names(r.Neg)
	}
	return out
}

func sorted(xs []string) []string {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// distinct returns the sorted distinct elements of xs.
func distinct(xs []string) []string { return slices.Compact(sorted(xs)) }

func equalMultisets(a, b []string) bool {
	return strings.Join(sorted(a), "\n") == strings.Join(sorted(b), "\n")
}

// groundTwoPass is the grounder before the one-pass rewrite, kept as
// the reference: it computes the derivable base first, then joins every
// rule body again over the final base, and merges identical ground
// rules.
func groundTwoPass(db *logic.FactStore, rules []*logic.Rule, opt Options) (*Grounding, error) {
	if !IsSkolemized(rules) {
		return nil, fmt.Errorf("ground: rules must be Skolemized first (existential head variables present)")
	}
	if opt.MaxAtoms <= 0 {
		opt.MaxAtoms = 1 << 18
	}
	if opt.MaxInstances <= 0 {
		opt.MaxInstances = 1 << 20
	}

	// Each rule is compiled once, its body joins enumerating every
	// homomorphism of the positive body (negative literals are grounded
	// from the match's ids, not checked), and its head disjuncts laid
	// out over the body's slots, so a match's ids build their packed
	// keys directly (see logic.RulePlans).
	comp := make([]*logic.RulePlans, len(rules))
	for i, r := range rules {
		comp[i] = logic.CompileRule(r, false)
	}
	var sc logic.Scratch
	var kb []byte

	// Phase 1: derivable base, computed semi-naively: after the first
	// round each rule's body homomorphisms are seeded from the atoms
	// added in the previous round (FindHomsFrom), so a round costs
	// O(new facts) instead of re-scanning the whole base. Head instances
	// are built and deduplicated as packed keys and added as one batch
	// once the round's joins are done (FactStore.AddKeys).
	base := db.Clone()
	for from := 0; ; {
		mark := base.Len()
		var additions []byte
		ends := []int32{0}
		pending := make(map[string]bool)
		var overflow error
		for i, c := range comp {
			c.Body.FindHomsFrom(&sc, base, from, nil, func(m *logic.Match) bool {
				for d, hp := range c.Heads {
					for k := range rules[i].Heads[d] {
						key, _ := hp.AppendKey(base, kb[:0], k, m.IDs(), true)
						kb = key[:0]
						if _, in := base.IndexOfKey(key); !in && !pending[string(key)] {
							pending[string(key)] = true
							additions = append(additions, key...)
							ends = append(ends, int32(len(additions)))
						}
					}
				}
				if base.Len()+len(ends)-1 > opt.MaxAtoms {
					overflow = ErrBudget
					return false
				}
				return true
			})
			if overflow != nil {
				return nil, overflow
			}
		}
		from = mark
		if base.AddKeys(additions, ends) == 0 {
			break
		}
		if base.Len() > opt.MaxAtoms {
			return nil, ErrBudget
		}
	}

	// Atom ids are base store indices: base is a clone of the database
	// (which keeps its store indices), so the facts are ids 0..|D|-1,
	// and phase 2 reads the body's ids from the match and resolves the
	// negative and head instances by one key probe each into base.
	g := &Grounding{Base: base, db: db}
	prog := &asp.Program{NAtoms: base.Len()}

	// Facts.
	for id := 0; id < db.Len(); id++ {
		prog.Rules = append(prog.Rules, asp.Rule{Disjuncts: [][]int{{id}}})
	}

	// Phase 2: rule instances.
	seen := make(map[string]bool)
	for i, c := range comp {
		var overflow error
		c.Body.FindHoms(&sc, base, nil, func(m *logic.Match) bool {
			gr := asp.Rule{}
			for b := range c.Pos {
				gr.Pos = append(gr.Pos, m.Index(b))
			}
			for j := range c.Neg {
				key, ok := c.Body.AppendKey(base, kb[:0], len(c.Pos)+j, m.IDs(), false)
				kb = key[:0]
				if id, in := base.IndexOfKey(key); ok && in {
					gr.Neg = append(gr.Neg, id)
				}
				// else: the negative literal is vacuously true.
			}
			for d, hp := range c.Heads {
				var disj []int
				for k := range rules[i].Heads[d] {
					key, _ := hp.AppendKey(base, kb[:0], k, m.IDs(), false)
					kb = key[:0]
					id, _ := base.IndexOfKey(key)
					disj = append(disj, id)
				}
				gr.Disjuncts = append(gr.Disjuncts, disj)
			}
			key := ruleKey(gr)
			if !seen[key] {
				seen[key] = true
				prog.Rules = append(prog.Rules, gr)
				if len(prog.Rules) > opt.MaxInstances {
					overflow = ErrBudget
					return false
				}
			}
			return true
		})
		if overflow != nil {
			return nil, overflow
		}
	}
	g.Prog = prog
	return g, nil
}

func ruleKey(r asp.Rule) string {
	var b []byte
	for _, d := range r.Disjuncts {
		b = append(b, 'd')
		for _, a := range d {
			b = appendInt(b, a)
		}
	}
	b = append(b, 'p')
	for _, a := range r.Pos {
		b = appendInt(b, a)
	}
	b = append(b, 'n')
	for _, a := range r.Neg {
		b = appendInt(b, a)
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ',')
}
