package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"ntgd"
	"ntgd/internal/encodings"
	"ntgd/internal/qbf"
)

// searchInstance is one search-workload input and its oracle verdict.
type searchInstance struct {
	src   string
	sem   ntgd.Semantics
	query *ntgd.Query // nil: enumerate every stable model
	mode  ntgd.Mode
	// want is the entailment verdict for a query, the model count
	// otherwise.
	want int
}

// searchBlock is the fixed mix of one block of 20 instances. Every seed
// runs the same number of instances of each kind and size, drawn from
// the generator until the oracle gives the wanted verdict, so only the
// random content varies between seeds. The mix is laid out around the
// percentiles, so that neither sits on the seam between two kinds, where
// a percentile moves with every seed: 8 of 20 instances cost under
// ~45 ms on the reference machine, the next 8 are unsatisfiable QBFs
// with one existential variable (~55 ms), so op_p50_ms falls inside
// them, 2 are SO choice programs (~80 ms), and the top 2 are
// unsatisfiable QBFs with two existential variables (~850 ms), so
// op_tail_ms (p95) falls inside those. The
// two-existential refutations, the hardest regime of the reduction, take
// about 70% of the op time, and with it of ops_per_s and cpu_ms_per_op.
var searchBlock = []struct {
	n   int
	gen func(rng *rand.Rand, b, k int, seen map[string]bool) searchInstance
}{
	{8, func(rng *rand.Rand, b, k int, seen map[string]bool) searchInstance { // ~55 ms
		return qbfInstance(rng, [3]int{1, 1, 2 + k%2}, false, seen)
	}},
	{2, func(rng *rand.Rand, b, k int, seen map[string]bool) searchInstance { // ~850 ms
		return qbfInstance(rng, [3]int{2, 1, 2 + k%2}, false, seen)
	}},
	{2, func(rng *rand.Rand, b, k int, seen map[string]bool) searchInstance { // ~3 ms
		return qbfInstance(rng, [3]int{1, 1, 2 + k%2}, true, seen)
	}},
	{2, func(rng *rand.Rand, b, k int, seen map[string]bool) searchInstance { // ~5 ms
		return qbfInstance(rng, [3]int{2, 1, 2 + k%2}, true, seen)
	}},
	{1, func(rng *rand.Rand, b, k int, seen map[string]bool) searchInstance { // 7–35 ms
		return colourInstance(rng, 4+b%2, true, seen)
	}},
	{1, func(rng *rand.Rand, b, k int, seen map[string]bool) searchInstance { // ~2 ms
		return colourInstance(rng, 4+b%2, false, seen)
	}},
	{2, func(rng *rand.Rand, b, k int, seen map[string]bool) searchInstance { // 20–45 ms
		return choiceInstance(7+k%2, ntgd.LP, k)
	}},
	{2, func(rng *rand.Rand, b, k int, seen map[string]bool) searchInstance { // ~80 ms
		return choiceInstance(8, ntgd.SO, k)
	}},
}

// searchBlockSize is the number of instances in a block.
const searchBlockSize = 20

// qbfInstance draws a 2-QBF∃ formula of the given size (∃ vars, ∀ vars,
// terms) that is satisfiable iff sat and that no earlier instance used,
// and encodes it (Section 5.3): ϕ is satisfiable iff error is not
// cautiously entailed.
func qbfInstance(rng *rand.Rand, size [3]int, sat bool, seen map[string]bool) searchInstance {
	for {
		f := qbf.Random(rng, size[0], size[1], size[2])
		if seen[f.String()] || f.EvalBrute() != sat {
			continue
		}
		seen[f.String()] = true
		inst, err := encodings.EncodeQBF(f)
		if err != nil {
			panic(err) // qbf.Random only draws valid formulas
		}
		p := &ntgd.Program{Rules: inst.Rules, Facts: inst.DB.Atoms()}
		q := inst.Query
		return searchInstance{src: p.String(), sem: ntgd.SO, query: &q, mode: ntgd.Cautious, want: b2i(!sat)}
	}
}

// colourInstance draws a certain-2-colourability graph (Section 7.1)
// with nv vertices and nv edges labelled over two variables that is
// certainly colourable iff yes: bad is bravely entailed iff it is not.
func colourInstance(rng *rand.Rand, nv int, yes bool, seen map[string]bool) searchInstance {
	for {
		g := encodings.CertColGraph{K: 2, Vars: []string{"p", "q"}}
		for v := 0; v < nv; v++ {
			g.Vertices = append(g.Vertices, fmt.Sprintf("v%d", v))
		}
		for e := 0; e < nv; e++ {
			u, w := rng.Intn(nv), rng.Intn(nv-1)
			if w >= u {
				w++
			}
			g.Edges = append(g.Edges, encodings.LabeledEdge{
				U: g.Vertices[u], W: g.Vertices[w], Var: g.Vars[rng.Intn(2)], Neg: rng.Intn(2) == 1,
			})
		}
		p := &ntgd.Program{Rules: g.DatalogProgram(), Facts: g.Database().Atoms()}
		src := p.String()
		if seen[src] || g.BruteForce() != yes {
			continue
		}
		seen[src] = true
		q := g.BadQuery()
		return searchInstance{src: src, sem: ntgd.SO, query: &q, mode: ntgd.Brave, want: b2i(!yes)}
	}
}

// choiceInstance is a subset-choice program over n items padded with
// 128 inert facts and a Datalog rule over them: 2ⁿ stable models under
// both semantics. The instance number k keeps the constants distinct.
func choiceInstance(n int, sem ntgd.Semantics, k int) searchInstance {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "item(i%d_%d).\n", k, i)
	}
	for i := 0; i < 128; i++ {
		fmt.Fprintf(&b, "pad(p%d_%d).\n", k, i)
	}
	b.WriteString("pad(X) -> padded(X).\nitem(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n")
	return searchInstance{src: b.String(), sem: sem, want: 1 << n}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// search is the search workload (see the package doc). Only a window of
// searchWindow blocks is compiled at a time, so the live heap holds a
// few blocks' solvers, not the run's.
type search struct {
	insts []searchInstance
	progs []*prog // the compiled window's, by instance number
	got   []int
}

// searchWindow is the number of blocks compiled at a time.
const searchWindow = 4

// newSearch generates enough blocks for twice the measured time at the
// reference machine's ~2.4 s per block.
func newSearch(seed int64, seconds float64) closedLoop {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	w := &search{}
	for b := 0; b < int(seconds)+1; b++ {
		lo := len(w.insts)
		for _, kind := range searchBlock {
			for range kind.n {
				w.insts = append(w.insts, kind.gen(rng, b, len(w.insts), seen))
			}
		}
		// Shuffled so that consecutive ops are not always of one kind.
		blk := w.insts[lo:]
		if len(blk) != searchBlockSize {
			panic("perfbench: searchBlock does not hold searchBlockSize instances")
		}
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	w.got = make([]int, len(w.insts))
	w.progs = make([]*prog, len(w.insts))
	return w
}

// setup compiles the first window, dropping whatever else is compiled.
func (w *search) setup(ctx context.Context, tr *tracer) error {
	clear(w.progs)
	for b := 0; b < searchWindow; b++ {
		if err := w.compileBlock(b, tr); err != nil {
			return err
		}
	}
	return nil
}

// compileBlock compiles block b's instances, if the run has a block b.
func (w *search) compileBlock(b int, tr *tracer) error {
	for i := b * searchBlockSize; i < min((b+1)*searchBlockSize, len(w.insts)); i++ {
		in := w.insts[i]
		p, err := parse(tr, in.src)
		if err != nil {
			return err
		}
		if w.progs[i], err = compile(tr, p, in.sem, nil, ntgd.Options{}); err != nil {
			return err
		}
	}
	return nil
}

func (w *search) limit() int { return len(w.insts) }

// prepare slides the window at a block's first op: the previous block's
// solvers are dropped and the block searchWindow-1 ahead is compiled.
func (w *search) prepare(i int, tr *tracer) error {
	if b := i / searchBlockSize; b > 0 && i%searchBlockSize == 0 {
		clear(w.progs[(b-1)*searchBlockSize : b*searchBlockSize])
		return w.compileBlock(b+searchWindow-1, tr)
	}
	return nil
}

func (w *search) op(ctx context.Context, i int, tr *tracer) error {
	in, p := w.insts[i], w.progs[i]
	if in.query == nil {
		res, err := p.collect(ctx, tr, 0)
		if err != nil {
			return err
		}
		w.got[i] = len(res.Models)
		return nil
	}
	res, err := p.entails(ctx, tr, *in.query, in.mode)
	if err != nil {
		return err
	}
	if res.Exhausted {
		return fmt.Errorf("enumeration exhausted")
	}
	w.got[i] = b2i(res.Entailed)
	return nil
}

func (w *search) verify(i int) error {
	if w.got[i] != w.insts[i].want {
		return fmt.Errorf("search instance %d: got %d, oracle says %d", i, w.got[i], w.insts[i].want)
	}
	return nil
}
