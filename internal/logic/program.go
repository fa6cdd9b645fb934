package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Program bundles a set of rules (NTGDs/NDTGDs) with a database and the
// queries parsed from the same source. It corresponds to the paper's
// pair (D, Σ) plus the NBCQs under consideration.
type Program struct {
	Rules   []*Rule
	Facts   []Atom
	Queries []Query
}

// Database returns the facts as a store.
func (p *Program) Database() *FactStore { return StoreOf(p.Facts...) }

// Validate checks every rule and query for safety and checks that the
// database is ground and null-free (databases contain constants only,
// Section 2).
func (p *Program) Validate() error {
	for _, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	for i, f := range p.Facts {
		if !f.IsGround() {
			return fmt.Errorf("fact %d (%s): databases must be ground", i, f)
		}
		if f.HasNull() {
			return fmt.Errorf("fact %d (%s): databases must not contain nulls", i, f)
		}
	}
	for i := range p.Queries {
		if err := p.Queries[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// String renders the program in surface syntax.
func (p *Program) String() string {
	var b strings.Builder
	for _, f := range p.Facts {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteString(".\n")
	}
	for _, q := range p.Queries {
		b.WriteString(q.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Query is an n-ary normal conjunctive query (NCQ, Section 2):
//
//	∃Y ( ∧ᵢ pᵢ(X,Y) ∧ ∧ⱼ ¬pⱼ(X,Y) )
//
// with answer variables X (empty for an NBCQ). Safety requires every
// variable of a negative literal to occur in a positive literal.
type Query struct {
	// AnswerVars are the free variables X; empty for Boolean queries.
	AnswerVars []string
	Pos        []Atom
	Neg        []Atom
}

// IsBoolean reports whether the query has no answer variables.
func (q Query) IsBoolean() bool { return len(q.AnswerVars) == 0 }

// Validate checks safety and that answer variables occur in a positive
// literal.
func (q Query) Validate() error {
	if len(q.Pos) == 0 {
		return fmt.Errorf("query %s: at least one positive literal is required (m ≥ 1)", q)
	}
	pv := VarSet(q.Pos...)
	var buf []string
	for _, a := range q.Neg {
		buf = a.Vars(buf[:0])
		for _, v := range buf {
			if !pv[v] {
				return fmt.Errorf("query %s: unsafe variable %s in negative literal", q, v)
			}
		}
	}
	for _, v := range q.AnswerVars {
		if !pv[v] {
			return fmt.Errorf("query %s: answer variable %s does not occur positively", q, v)
		}
	}
	return nil
}

// Constants returns the constants occurring in the query, sorted.
func (q Query) Constants() []Term {
	seen := make(map[string]Term)
	var walk func(t Term)
	walk = func(t Term) {
		switch t.Kind {
		case Const:
			seen[t.Key()] = t
		case Func:
			for _, a := range t.Args {
				walk(a)
			}
		}
	}
	for _, a := range q.Pos {
		for _, t := range a.Args {
			walk(t)
		}
	}
	for _, a := range q.Neg {
		for _, t := range a.Args {
			walk(t)
		}
	}
	out := make([]Term, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	SortTerms(out)
	return out
}

// Holds evaluates the Boolean query over an interpretation given by its
// positive part: true iff some homomorphism maps Pos into store and no
// Neg instance is present (closed-world reading of ¬, as in q(I) of
// Section 2).
func (q Query) Holds(store *FactStore) bool {
	return ExistsHom(q.Pos, q.Neg, store, Subst{})
}

// Answers evaluates the query over an interpretation and returns the
// set of answer tuples (as canonical strings mapping to tuples).
// Only tuples consisting entirely of constants are returned, matching
// the paper's definition q(I) ⊆ C^n.
func (q Query) Answers(store *FactStore) []AnswerTuple {
	seen := make(map[string][]Term)
	FindHoms(q.Pos, q.Neg, store, Subst{}, func(h Subst) bool {
		tuple := make([]Term, len(q.AnswerVars))
		for i, v := range q.AnswerVars {
			t, ok := h[v]
			if !ok || t.Kind != Const {
				return true // not a constant tuple; skip
			}
			tuple[i] = t
		}
		key := tupleKey(tuple)
		if _, ok := seen[key]; !ok {
			seen[key] = tuple
		}
		return true
	})
	out := make([]AnswerTuple, 0, len(seen))
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, AnswerTuple(seen[k]))
	}
	return out
}

// AnswerTuple is a tuple of constants answering an NCQ.
type AnswerTuple []Term

// String renders the tuple as (c1,...,cn).
func (t AnswerTuple) String() string {
	parts := make([]string, len(t))
	for i, c := range t {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Key returns a canonical key for the tuple.
func (t AnswerTuple) Key() string { return tupleKey(t) }

func tupleKey(tuple []Term) string {
	var b strings.Builder
	for i, t := range tuple {
		if i > 0 {
			b.WriteByte(',')
		}
		t.writeKey(&b)
	}
	return b.String()
}

// String renders the query in surface syntax: "?- p(X), not q(X)." with
// answer variables listed when present.
func (q Query) String() string {
	var b strings.Builder
	b.WriteString("?-")
	if len(q.AnswerVars) > 0 {
		b.WriteByte('[')
		b.WriteString(strings.Join(q.AnswerVars, ","))
		b.WriteByte(']')
	}
	b.WriteByte(' ')
	first := true
	for _, a := range q.Pos {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(a.String())
	}
	for _, a := range q.Neg {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString("not ")
		b.WriteString(a.String())
	}
	b.WriteByte('.')
	return b.String()
}
