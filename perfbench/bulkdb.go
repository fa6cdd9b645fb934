package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"ntgd"
)

// The bulkdb rules. SO gets existential-free Datalog joins: its witness
// pools span the whole domain, so an existential over 10⁴ facts makes
// every query search a huge tree. LP gets stratified negation and an
// existential, which Skolemization turns into one function term per
// employee.
const (
	bulkSORules = `edge(X,Y), hub(Y) -> near(X,Y).
near(X,Y), edge(Y,Z), hub(Z) -> twohop(X,Z).
emp(E,D), mgr(D,M) -> reports(E,M).
`
	bulkLPRules = `emp(E,D) -> badge(E,B).
mgr(D,M) -> boss(M).
emp(E,D), not boss(E) -> staff(E).
edge(X,Y), not edge(Y,X) -> oneway(X,Y).
`
	bulkEntities = 1000
	bulkEdges    = 10000
	bulkDepts    = 100
)

// bulkOp is one bulkdb op: a write (a new database version with extra
// facts) or a read of one query template for one entity.
type bulkOp struct {
	write bool
	add   []ntgd.Atom
	kind  int // index into bulkQueries
	ent   int // entity id
}

// bulkdb is the bulkdb workload (see the package doc).
type bulkdb struct {
	base []ntgd.Atom
	ops  []bulkOp
	// perm maps a Zipf rank to an entity id, so hot entities are spread
	// over the id space.
	perm []int

	// system state
	facts  []ntgd.Atom
	so, lp *prog
	// oracle state: the facts of the version the last read queried
	oracle *bulkFacts

	// the current read's query, and its answer as bulkFacts.answer
	// renders it
	q   ntgd.Query
	got []string
}

func node(i int) ntgd.Term { return ntgd.C(fmt.Sprintf("n%d", i)) }
func empl(i int) ntgd.Term { return ntgd.C(fmt.Sprintf("e%d", i)) }
func dept(i int) ntgd.Term { return ntgd.C(fmt.Sprintf("d%d", i)) }

func randomEdge(rng *rand.Rand) ntgd.Atom {
	return ntgd.A("edge", node(rng.Intn(bulkEntities)), node(rng.Intn(bulkEntities)))
}

func newBulkDB(seed int64, _ float64) closedLoop {
	rng := rand.New(rand.NewSource(seed))
	w := &bulkdb{perm: rng.Perm(bulkEntities)}
	for i := 0; i < bulkEdges; i++ {
		w.base = append(w.base, randomEdge(rng))
	}
	for e := 0; e < bulkEntities; e++ {
		w.base = append(w.base, ntgd.A("emp", empl(e), dept(rng.Intn(bulkDepts))))
	}
	for _, h := range rng.Perm(bulkEntities)[:10] {
		w.base = append(w.base, ntgd.A("hub", node(h)))
	}
	for _, d := range rng.Perm(bulkDepts)[:30] {
		w.base = append(w.base, ntgd.A("mgr", dept(d), empl(rng.Intn(bulkEntities))))
	}
	// Four times the ops of a 20-second run on the reference machine; a
	// longer run wraps around.
	zipf := rand.NewZipf(rng, 1.1, 1, bulkEntities-1)
	for i := 0; i < 4000; i++ {
		if rng.Intn(10) == 0 {
			op := bulkOp{write: true}
			for k := 0; k < 40; k++ {
				op.add = append(op.add, randomEdge(rng))
			}
			op.add = append(op.add, ntgd.A("emp", empl(rng.Intn(bulkEntities)), dept(rng.Intn(bulkDepts))))
			w.ops = append(w.ops, op)
			continue
		}
		w.ops = append(w.ops, bulkOp{kind: rng.Intn(len(bulkQueries)), ent: w.perm[zipf.Uint64()]})
	}
	return w
}

// bulkQueries are the read templates: SO reads first, then LP reads.
var bulkQueries = []struct {
	lp      bool
	answers bool
	src     func(ent int) string
}{
	{false, true, func(e int) string { return fmt.Sprintf("?-[M] reports(e%d, M).", e) }},
	{false, true, func(e int) string { return fmt.Sprintf("?-[Z] near(n%d, Z).", e) }},
	{false, false, func(e int) string { return fmt.Sprintf("?- twohop(n%d, Z).", e) }},
	{true, false, func(e int) string { return fmt.Sprintf("?- staff(e%d).", e) }},
	{true, true, func(e int) string { return fmt.Sprintf("?-[Y] oneway(n%d, Y).", e) }},
	{true, false, func(e int) string { return fmt.Sprintf("?- badge(e%d, B).", e) }},
}

func (w *bulkdb) setup(ctx context.Context, tr *tracer) error {
	w.facts = w.base
	w.oracle = newBulkFacts(w.base)
	return w.load(tr)
}

// load builds a database version from w.facts and compiles both
// solvers against it.
func (w *bulkdb) load(tr *tracer) error {
	db, err := loadDatabase(tr, w.facts)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		rules string
		sem   ntgd.Semantics
		dst   **prog
	}{{bulkSORules, ntgd.SO, &w.so}, {bulkLPRules, ntgd.LP, &w.lp}} {
		p, err := parse(tr, c.rules)
		if err != nil {
			return err
		}
		if *c.dst, err = compile(tr, p, c.sem, db, ntgd.Options{}); err != nil {
			return err
		}
	}
	return nil
}

func (w *bulkdb) limit() int { return 0 }

func (w *bulkdb) prepare(i int, _ *tracer) error {
	if op := w.ops[i%len(w.ops)]; !op.write {
		w.q = ntgd.MustParse(bulkQueries[op.kind].src(op.ent)).Queries[0]
	}
	return nil
}

func (w *bulkdb) op(ctx context.Context, i int, tr *tracer) error {
	w.got = nil
	op := w.ops[i%len(w.ops)]
	if op.write {
		w.facts = append(slices.Clip(w.facts), op.add...)
		return w.load(tr)
	}
	t := bulkQueries[op.kind]
	p := w.so
	if t.lp {
		p = w.lp
	}
	if t.answers {
		res, err := p.answers(ctx, tr, w.q, ntgd.Cautious)
		if err != nil {
			return err
		}
		if !res.Complete {
			return fmt.Errorf("incomplete answers")
		}
		for _, tu := range res.Tuples {
			w.got = append(w.got, tu.String())
		}
		return nil
	}
	res, err := p.entails(ctx, tr, w.q, ntgd.Cautious)
	if err != nil {
		return err
	}
	if res.Exhausted {
		return fmt.Errorf("enumeration exhausted")
	}
	if res.Entailed {
		w.got = []string{""}
	}
	return nil
}

func (w *bulkdb) verify(i int) error {
	op := w.ops[i%len(w.ops)]
	if op.write {
		w.oracle.add(op.add)
		return nil
	}
	want := w.oracle.answer(op.kind, op.ent)
	sort.Strings(w.got)
	if !slices.Equal(w.got, want) {
		return fmt.Errorf("bulkdb op %d %q: got %v, want %v", i, bulkQueries[op.kind].src(op.ent), w.got, want)
	}
	return nil
}

// bulkFacts evaluates the bulkdb rules directly over the facts with Go
// maps: the oracle for every read.
type bulkFacts struct {
	edge  map[[2]string]bool
	out   map[string][]string // edge successors
	hub   map[string]bool
	empD  map[string][]string // employee -> departments
	mgrs  map[string][]string // department -> managers
	bosse map[string]bool
}

func newBulkFacts(facts []ntgd.Atom) *bulkFacts {
	f := &bulkFacts{
		edge: map[[2]string]bool{}, out: map[string][]string{}, hub: map[string]bool{},
		empD: map[string][]string{}, mgrs: map[string][]string{}, bosse: map[string]bool{},
	}
	f.add(facts)
	return f
}

func (f *bulkFacts) add(facts []ntgd.Atom) {
	for _, a := range facts {
		x := a.Args[0].String()
		switch a.Pred {
		case "edge":
			y := a.Args[1].String()
			if !f.edge[[2]string{x, y}] {
				f.edge[[2]string{x, y}] = true
				f.out[x] = append(f.out[x], y)
			}
		case "hub":
			f.hub[x] = true
		case "emp":
			f.empD[x] = append(f.empD[x], a.Args[1].String())
		case "mgr":
			m := a.Args[1].String()
			f.mgrs[x] = append(f.mgrs[x], m)
			f.bosse[m] = true
		}
	}
}

// answer evaluates read template kind for entity e: the sorted answer
// tuples, rendered as the engine renders them, or [""] for a true
// Boolean query and nil for a false one.
func (f *bulkFacts) answer(kind, e int) []string {
	set := map[string]bool{}
	n, em := fmt.Sprintf("n%d", e), fmt.Sprintf("e%d", e)
	tuple := func(s string) { set["("+s+")"] = true }
	switch kind {
	case 0: // reports(E,M) :- emp(E,D), mgr(D,M)
		for _, d := range f.empD[em] {
			for _, m := range f.mgrs[d] {
				tuple(m)
			}
		}
	case 1: // near(X,Y) :- edge(X,Y), hub(Y)
		for _, y := range f.out[n] {
			if f.hub[y] {
				tuple(y)
			}
		}
	case 2: // twohop(X,Z) :- near(X,Y), edge(Y,Z), hub(Z)
		for _, y := range f.out[n] {
			if !f.hub[y] {
				continue
			}
			for _, z := range f.out[y] {
				if f.hub[z] {
					set[""] = true
				}
			}
		}
	case 3: // staff(E) :- emp(E,D), not boss(E)
		if len(f.empD[em]) > 0 && !f.bosse[em] {
			set[""] = true
		}
	case 4: // oneway(X,Y) :- edge(X,Y), not edge(Y,X)
		for _, y := range f.out[n] {
			if !f.edge[[2]string{y, n}] {
				tuple(y)
			}
		}
	case 5: // badge(E,B) :- emp(E,D), with B a Skolem witness
		if len(f.empD[em]) > 0 {
			set[""] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	if len(out) == 0 {
		return nil
	}
	return out
}
