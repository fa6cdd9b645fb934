package logic

import (
	"encoding/binary"
	"math"
	"slices"
)

// This file implements the one homomorphism kernel behind every join of
// the library: the trigger agenda and the stability encoder of the
// stable model search, the chase, the grounding, and — through the
// Subst adapters in hom.go — model checking and query evaluation.
//
// A body is compiled once per Symbols table (see BodyPlans.compiled):
// every variable becomes a dense slot of a frame of interned term ids,
// predicates and ground terms become ids, and non-ground function terms
// stay structural patterns matched against the interned argument ids of
// the candidate fact's term. Candidates are matched on the id words of
// the layers' packed keys, after a key-width check (one predicate name
// may carry two arities), so a probe never decodes an Atom, compares a
// string or takes the Symbols lock unless a function term is involved.
// Ids are never renumbered, so a published compilation stays valid for
// the table's whole life.

const (
	// unbound marks a frame slot no binding has reached yet.
	unbound = math.MaxUint32
	// missingID stands for a predicate or ground term that was never
	// interned: it matches no fact, so a probe for it misses.
	missingID = math.MaxUint32 - 1
)

// Slot kinds of a compiled term other than a variable slot (>= 0).
const (
	slotGround int32 = -1 // a ground term, interned as id
	slotFunc   int32 = -2 // a non-ground function term, matched structurally
)

// cterm is one compiled argument of a body atom.
type cterm struct {
	slot int32  // variable slot, or slotGround / slotFunc
	id   uint32 // slotGround: the interned id, or missingID
	term *Term  // slotGround: the ground term; slotFunc: the pattern
	args []cterm
}

// catom is one compiled body atom.
type catom struct {
	pred  uint32 // interned predicate id, or missingID
	name  string
	args  []cterm
	slots []int32 // the distinct slots occurring in the atom
}

// compiledBody is a BodyPlans body compiled against one Symbols table:
// the positive atoms followed by the negative ones. missing counts the
// symbol references that were not interned at compile time; such a
// body is recompiled once one of them appears (see BodyPlans.compiled).
type compiledBody struct {
	syms    *Symbols
	atoms   []catom
	missing int
	argBuf  []cterm // backing array of the atoms' arguments
	slotBuf []int32 // backing array of the atoms' slot lists
}

// compileBody compiles the positive atoms, then the negative ones, over
// the slot layout, every variable of the atoms having a slot.
func compileBody(syms *Symbols, pos, neg []Atom, slots []string) *compiledBody {
	c := &compiledBody{}
	c.compile(syms, pos, neg, slots)
	return c
}

// compile fills c with the compilation of (pos, neg) over slots, reusing
// c's buffers: the atoms' arguments and slot lists share one backing
// array each.
func (c *compiledBody) compile(syms *Symbols, pos, neg []Atom, slots []string) {
	n, nargs, nvars := len(pos)+len(neg), 0, 0
	for _, atoms := range [2][]Atom{pos, neg} {
		for _, a := range atoms {
			nargs += len(a.Args)
			nvars += countVars(a.Args)
		}
	}
	c.syms, c.missing = syms, 0
	c.atoms = slices.Grow(c.atoms[:0], n)
	c.argBuf = slices.Grow(c.argBuf[:0], nargs)[:nargs]
	c.slotBuf = slices.Grow(c.slotBuf[:0], nvars)
	args, slotBuf := c.argBuf, c.slotBuf
	syms.mu.RLock()
	defer syms.mu.RUnlock()
	for _, atoms := range [2][]Atom{pos, neg} {
		for _, a := range atoms {
			ca := catom{name: a.Pred, pred: missingID, args: args[:len(a.Args):len(a.Args)]}
			args = args[len(a.Args):]
			if id, ok := syms.preds[a.Pred]; ok {
				ca.pred = id
			} else {
				c.missing++
			}
			for j := range a.Args {
				ca.args[j] = c.termRLocked(&a.Args[j], slots)
			}
			// Within the atom's own region: nvars bounds every region.
			ca.slots = appendSlots(slotBuf[len(slotBuf):], ca.args)
			ca.slots = ca.slots[:len(ca.slots):len(ca.slots)]
			slotBuf = slotBuf[:len(slotBuf)+len(ca.slots)]
			c.atoms = append(c.atoms, ca)
		}
	}
}

func (c *compiledBody) termRLocked(t *Term, slots []string) cterm {
	switch {
	case t.Kind == Var:
		return cterm{slot: slotIndex(slots, t.Name)}
	case t.IsGround():
		ct := cterm{slot: slotGround, id: missingID, term: t}
		if id, ok := c.syms.lookupRLocked(*t); ok {
			ct.id = id
		} else {
			c.missing++
		}
		return ct
	default:
		ct := cterm{slot: slotFunc, term: t, args: make([]cterm, len(t.Args))}
		for i := range t.Args {
			ct.args[i] = c.termRLocked(&t.Args[i], slots)
		}
		return ct
	}
}

// countVars counts the variable occurrences in ts, function terms
// included.
func countVars(ts []Term) int {
	n := 0
	for _, t := range ts {
		switch t.Kind {
		case Var:
			n++
		case Func:
			n += countVars(t.Args)
		}
	}
	return n
}

// appendSlots appends the distinct variable slots of args onto dst.
func appendSlots(dst []int32, args []cterm) []int32 {
	for i := range args {
		t := &args[i]
		switch {
		case t.slot >= 0:
			dup := false
			for _, s := range dst {
				if s == t.slot {
					dup = true
					break
				}
			}
			if !dup {
				dst = append(dst, t.slot)
			}
		case t.slot == slotFunc:
			dst = appendSlots(dst, t.args)
		}
	}
	return dst
}

// resolvable reports whether a symbol this body missed at compile time
// has been interned since.
func (c *compiledBody) resolvable() bool {
	c.syms.mu.RLock()
	defer c.syms.mu.RUnlock()
	for i := range c.atoms {
		a := &c.atoms[i]
		if a.pred == missingID {
			if _, ok := c.syms.preds[a.name]; ok {
				return true
			}
		}
		if c.argsResolvableRLocked(a.args) {
			return true
		}
	}
	return false
}

func (c *compiledBody) argsResolvableRLocked(args []cterm) bool {
	for i := range args {
		t := &args[i]
		switch t.slot {
		case slotGround:
			if t.id == missingID {
				if _, ok := c.syms.lookupRLocked(*t.term); ok {
					return true
				}
			}
		case slotFunc:
			if c.argsResolvableRLocked(t.args) {
				return true
			}
		}
	}
	return false
}

// termID resolves the id of the compiled term under the slot values.
// With intern set, symbols never seen are interned; otherwise ok is
// false when the term was never interned (no store sharing the table
// contains it). ok is also false when a slot of the term is unbound.
func (c *compiledBody) termID(t *cterm, vals []uint32, intern bool) (uint32, bool) {
	switch t.slot {
	case slotGround:
		if t.id != missingID {
			return t.id, true
		}
		if !intern {
			return 0, false
		}
		return c.syms.Intern(*t.term), true
	case slotFunc:
		var buf [8]uint32
		ids := buf[:0]
		for i := range t.args {
			id, ok := c.termID(&t.args[i], vals, intern)
			if !ok {
				return 0, false
			}
			ids = append(ids, id)
		}
		return c.syms.funcID(t.term.Name, ids, intern)
	default:
		if int(t.slot) >= len(vals) {
			return 0, false // a slot the caller's ids do not reach: unbound
		}
		v := vals[t.slot]
		return v, v != missingID && v != unbound
	}
}

// appendKey appends the packed key of the atom under the slot values
// (see termID for intern and ok).
func (c *compiledBody) appendKey(dst []byte, a *catom, vals []uint32, intern bool) ([]byte, bool) {
	pid := a.pred
	if pid == missingID {
		if !intern {
			return dst, false
		}
		pid = c.syms.InternPred(a.name)
	}
	dst = binary.LittleEndian.AppendUint32(dst, pid)
	for i := range a.args {
		id, ok := c.termID(&a.args[i], vals, intern)
		if !ok {
			return dst, false
		}
		dst = binary.LittleEndian.AppendUint32(dst, id)
	}
	return dst, true
}

// Match is one homomorphism found by a BodyPlans join: the frame of
// slot ids (in the body's slot layout, see BodyPlans.Slots), and the
// store index each positive body atom matched. A Match is only valid
// during the visit that receives it; copy IDs if they escape.
type Match struct{ f *frame }

// MatchVisitor receives one match; returning false stops the search.
type MatchVisitor func(*Match) bool

// IDs returns the frame: the interned term id of every slot (slots the
// body does not bind hold no meaningful id). The slice is reused.
func (m *Match) IDs() []uint32 { return m.f.vals }

// Term materializes the term bound to a slot.
func (m *Match) Term(slot int) Term { return m.f.c.syms.TermOf(m.f.vals[slot]) }

// Index returns the store index of the fact positive body atom i (in
// written order) matched.
func (m *Match) Index(i int) int { return m.f.idx[i] }

// Scratch holds one goroutine's reusable join frames: a warm join
// allocates nothing. Joins nested inside a visitor (a head check inside
// a body enumeration) each take the next frame. The zero value is ready
// to use; a Scratch must not be shared between goroutines.
type Scratch struct {
	frames []*frame
	top    int

	// shot is the throwaway body of a package-level adapter call, and
	// shotComp its compilation, rebuilt in place by every call (see
	// oneShot).
	shot     BodyPlans
	shotComp compiledBody
}

// oneShot returns sc's throwaway body for (pos, neg), compiled against
// syms: a package-level adapter call joins through it without
// allocating a body, a compilation or a plan. It is valid until sc's
// next oneShot.
func (sc *Scratch) oneShot(syms *Symbols, pos, neg []Atom) *BodyPlans {
	bp := &sc.shot
	bp.pos, bp.neg, bp.oneShot = pos, neg, true
	bp.slots = bodySlots(bp.slots[:0], pos, neg)
	sc.shotComp.compile(syms, pos, neg, bp.slots)
	bp.comp.Store(&sc.shotComp)
	return bp
}

// frame is the working state of one join: the slot values, the store
// index each positive atom matched, the store's layers bottom-up with
// their visibility bounds, the current plan, and a key buffer.
type frame struct {
	c       *compiledBody
	store   *FactStore
	vals    []uint32
	idx     []int
	chain   []chainLayer
	steps   []step
	lists   []int32 // the plan's step lists (see step)
	negs    []int
	from, n int
	key     []byte
	m       Match
	// plan and flags are the reused storage of plans that are not
	// cached (see planFor) and of makePlan's slot flags.
	plan  plan
	flags []bool
}

// chainLayer is one layer of the joined store's snapshot chain and the
// bound below which its own atoms are visible.
type chainLayer struct {
	st    *FactStore
	bound int
}

// push takes the next frame for a join of c over store, with the first
// len(init) slots pre-bound to init (unbound entries stay free).
func (sc *Scratch) push(c *compiledBody, store *FactStore, nslots, npos int, init []uint32) *frame {
	if sc.top == len(sc.frames) {
		sc.frames = append(sc.frames, &frame{})
	}
	f := sc.frames[sc.top]
	sc.top++
	f.c, f.store, f.n = c, store, store.Len()
	f.m.f = f
	if cap(f.vals) < nslots {
		f.vals = make([]uint32, nslots)
	}
	f.vals = f.vals[:nslots]
	n := copy(f.vals, init)
	for i := n; i < nslots; i++ {
		f.vals[i] = unbound
	}
	if cap(f.idx) < npos {
		f.idx = make([]int, npos)
	}
	f.idx = f.idx[:npos]
	f.chain = f.chain[:0]
	bound := f.n
	for st := store; st != nil; st = st.parent {
		if st.ix != nil && bound > st.base {
			f.chain = append(f.chain, chainLayer{st: st, bound: bound})
		}
		bound = min(bound, st.base)
	}
	for i, j := 0, len(f.chain)-1; i < j; i, j = i+1, j-1 {
		f.chain[i], f.chain[j] = f.chain[j], f.chain[i]
	}
	return f
}

// pop releases the top frame, dropping its references to the store.
func (sc *Scratch) pop() {
	sc.top--
	f := sc.frames[sc.top]
	clear(f.chain)
	f.c, f.store, f.steps, f.lists, f.negs = nil, nil, nil, nil, nil
}

// Window kinds of a plan step: the whole store, the delta [from, n),
// or the old part [0, from) (see FindHomsFrom).
const (
	winFull uint8 = iota
	winDelta
	winOld
)

func (f *frame) window(w uint8) (lo, hi int) {
	switch w {
	case winDelta:
		return f.from, f.n
	case winOld:
		return 0, f.from
	}
	return 0, f.n
}

// overlaps reports whether the layer holds visible atoms in [lo, hi).
func (l *chainLayer) overlaps(lo, hi int) bool { return l.st.base < hi && l.bound > lo }

// countPred counts the facts of predicate pid in [lo, hi).
func (f *frame) countPred(pid uint32, lo, hi int) int {
	n := 0
	for i := range f.chain {
		if l := &f.chain[i]; l.overlaps(lo, hi) {
			n += len(clipWindowU32(l.st.ix.pred(pid), lo, min(hi, l.bound)))
		}
	}
	return n
}

// countPostings counts the facts of pid with term tid at argument pos
// in [lo, hi).
func (f *frame) countPostings(pid uint32, pos int, tid uint32, lo, hi int) int {
	n := 0
	for i := range f.chain {
		if l := &f.chain[i]; l.overlaps(lo, hi) {
			n += len(clipWindowU32(l.st.ix.postings(pid, pos, tid), lo, min(hi, l.bound)))
		}
	}
	return n
}

// probe looks up the atom, every slot of which is bound, by its packed
// key; a symbol never interned is a miss.
func (f *frame) probe(a *catom) (int, bool) {
	key, ok := f.c.appendKey(f.key[:0], a, f.vals, false)
	f.key = key[:0]
	if !ok {
		return 0, false
	}
	return f.store.lookupPacked(key, math.MaxInt)
}

// extend matches plan step i and everything after it, then checks the
// negative atoms and visits the match.
func (f *frame) extend(i int, fn MatchVisitor) bool {
	if i == len(f.steps) {
		for _, k := range f.negs {
			if _, ok := f.probe(&f.c.atoms[k]); ok {
				return true // blocked: not a solution, keep searching
			}
		}
		return fn(&f.m)
	}
	s := &f.steps[i]
	a := &f.c.atoms[s.atom]
	lo, hi := f.window(s.win)
	if s.probe {
		// Every slot is bound: one key probe, no candidate walk.
		if idx, ok := f.probe(a); ok && idx >= lo && idx < hi {
			f.idx[s.atom] = idx
			return f.extend(i+1, fn)
		}
		return true
	}
	if a.pred == missingID {
		return true
	}
	// The candidates are the most selective of the predicate list and
	// the posting lists of the arguments bound before this step; the
	// match below checks every other argument.
	best := f.countPred(a.pred, lo, hi)
	if best == 0 {
		return true
	}
	pos, tid := -1, uint32(0)
	for _, p32 := range f.lists[s.mid:s.hi] {
		p := int(p32)
		id, ok := f.c.termID(&a.args[p], f.vals, false)
		if !ok {
			return true // the term was never interned: no fact matches
		}
		n := f.countPostings(a.pred, p, id, lo, hi)
		if n == 0 {
			return true
		}
		if n < best {
			best, pos, tid = n, p, id
		}
	}
	width := 4 * (1 + len(a.args))
	for li := range f.chain {
		l := &f.chain[li]
		if !l.overlaps(lo, hi) {
			continue
		}
		var list []uint32
		if pos < 0 {
			list = l.st.ix.pred(a.pred)
		} else {
			list = l.st.ix.postings(a.pred, pos, tid)
		}
		keys, base := &l.st.ix.keys, l.st.base
		for _, idx := range clipWindowU32(list, lo, min(hi, l.bound)) {
			key := keys.keyBytes(int(idx) - base)
			if len(key) == width && f.match(a, key) {
				f.idx[s.atom] = int(idx)
				if !f.extend(i+1, fn) {
					f.unbind(s)
					return false
				}
			}
			f.unbind(s)
		}
	}
	return true
}

// unbind clears the slots step s binds.
func (f *frame) unbind(s *step) {
	for _, sl := range f.lists[s.lo:s.mid] {
		f.vals[sl] = unbound
	}
}

// match matches the atom's arguments against the id words of a fact key
// of the same predicate and width, binding free slots.
func (f *frame) match(a *catom, key []byte) bool {
	for p := range a.args {
		if !f.matchTerm(&a.args[p], binary.LittleEndian.Uint32(key[4+4*p:])) {
			return false
		}
	}
	return true
}

func (f *frame) matchTerm(t *cterm, id uint32) bool {
	switch t.slot {
	case slotGround:
		return t.id == id
	case slotFunc:
		var buf [8]uint32
		name, args, ok := f.c.syms.funcOf(id, buf[:0])
		if !ok || name != t.term.Name || len(args) != len(t.args) {
			return false
		}
		for i := range t.args {
			if !f.matchTerm(&t.args[i], args[i]) {
				return false
			}
		}
		return true
	default:
		if v := f.vals[t.slot]; v != unbound {
			return v == id
		}
		f.vals[t.slot] = id
		return true
	}
}
