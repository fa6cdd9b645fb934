package logic

import (
	"encoding/binary"
	"math"
	"sort"
	"strings"

	"ntgd/internal/failpoint"
)

// FactStore is a set of ground atoms with a per-predicate index and a
// (predicate, argument-position, ground-term) index, the basic
// container for databases, chase results, and (the positive part of)
// interpretations. Insertion order is preserved for deterministic
// iteration, and every atom has a stable store index (its insertion
// rank), which the semi-naive evaluation layers use to address deltas
// as index windows. The zero value is not ready to use; call
// NewFactStore.
//
// Ground terms and predicates are interned into a Symbols table shared
// by the whole snapshot chain, facts are addressed by packed FactKey
// tuples, and the posting lists are []uint32 of store indices. Every
// layer of a chain, root included, holds its own atoms in one packed
// index (see layerIndex in storage.go), allocated on the layer's first
// write: Add inserts into it incrementally, and AddAll and AddKeys
// bulk-load large batches into any layer by counting sort.
//
// A store may be a copy-on-write snapshot layer (see Snapshot): it then
// holds a pointer to its parent chain plus only its own additions, and
// every read merges the layers transparently. Store indices are global
// across a chain — a layer's first own atom has index base — so delta
// windows taken against a parent remain valid against its snapshots.
//
// Concurrency. A FactStore is not synchronized; what makes concurrent
// use of snapshot chains safe is a freeze discipline, not locks. Every
// read path (Has/HasFactKey, the posting lists behind FindHoms, Domain,
// Atoms, Len, Snapshot, Clone, CanonicalString, ...) is mutation-free
// (the shared Symbols table has its own lock), so any number of
// goroutines may read through a chain concurrently provided no layer of
// that chain is being written. Add may only be called by the single
// goroutine owning the topmost layer, and only while no other goroutine
// is reading through that layer. The parallel stable-model search
// satisfies this structurally: a search node's layer stops growing
// before its branch children are snapshotted, each child layer has
// exactly one owning worker, and handing a child to a worker (a
// goroutine spawn or channel send) establishes the happens-before edge
// covering the parent chain's earlier writes.
// TestSnapshotConcurrentBranchReaders pins the discipline under -race.
type FactStore struct {
	syms *Symbols

	// parent is the layer below in a copy-on-write snapshot chain; nil
	// for a root store. This layer sees exactly the first base atoms of
	// the parent chain (the parent's length when Snapshot was taken),
	// so the parent may keep growing without affecting snapshots taken
	// earlier: ancestor entries with index >= base are simply invisible
	// here.
	parent *FactStore
	base   int // number of ancestor atoms visible to this layer
	depth  int // number of ancestors, bounded by maxSnapshotDepth

	atoms []Atom      // this layer's atoms; local offset i has store index base+i
	ix    *layerIndex // this layer's packed index; nil until the first write
	tb    int64       // packed bytes of this layer's atoms

	domBuf []uint32 // Add scratch; safe under the one-writer rule
}

// maxSnapshotDepth bounds the length of a snapshot chain: Snapshot
// flattens into a fresh root once the chain would exceed it, so chain
// walks stay O(1) amortized while branch-heavy users (the stable model
// search) still share almost all layers.
const maxSnapshotDepth = 32

// NewFactStore returns an empty root store with a fresh Symbols table.
func NewFactStore() *FactStore {
	return &FactStore{syms: NewSymbols()}
}

// StoreOf returns a store containing the given atoms.
func StoreOf(atoms ...Atom) *FactStore {
	s := NewFactStore()
	s.AddAll(atoms)
	return s
}

// index returns this layer's packed index, allocating it on the first
// write.
func (s *FactStore) index() *layerIndex {
	if s.ix == nil {
		s.ix = newLayerIndex()
	}
	return s.ix
}

// Snapshot returns a copy-on-write child of s: the child sees every
// atom s contains right now plus its own later additions, and writes to
// the child never affect s. Both stores remain fully usable afterwards
// — s may keep growing independently; the child's view of s stays
// frozen at the snapshot length. Taking a snapshot is O(1) (layers that
// never grew are collapsed away; a chain deeper than maxSnapshotDepth
// is flattened into a fresh root, costing one deep copy).
//
// Sibling snapshots may be used from different goroutines once their
// shared ancestors stop growing; see the concurrency notes on
// FactStore.
func (s *FactStore) Snapshot() *FactStore {
	failpoint.Inject(failpoint.StoreSnapshot)
	base := s.Len()
	parent := s
	// A layer that never grew contributes nothing: snapshot its parent
	// instead, keeping chains short across write-free generations.
	for parent.parent != nil && len(parent.atoms) == 0 {
		parent = parent.parent
	}
	if parent.depth+1 > maxSnapshotDepth {
		return s.flatten(base)
	}
	// The index is allocated on the first Add, so snapshots that never
	// write (e.g. deferral branches) cost one struct.
	return &FactStore{syms: s.syms, parent: parent, base: base, depth: parent.depth + 1}
}

// flatten deep-copies the first bound atoms of the chain into a fresh
// root store (sharing the chain's Symbols table) by merging the layers'
// already-built indexes — global indices and packed keys carry over
// unchanged, so no atom or term is ever re-interned.
func (s *FactStore) flatten(bound int) *FactStore {
	failpoint.Inject(failpoint.StoreFlatten)
	out := &FactStore{syms: s.syms, atoms: s.appendAtomsBelow(bound, make([]Atom, 0, bound))}
	for _, a := range out.atoms {
		out.tb += factKeyBytes(len(a.Args))
	}
	ix := out.index()
	ix.keys.reserve(len(out.atoms), int(out.tb))
	var layers []*FactStore
	var bounds []int
	s.forEachLayer(bound, func(st *FactStore, b int) bool {
		layers = append(layers, st)
		bounds = append(bounds, b)
		return true
	})
	// Bottom-up (root first), so keys arrive in store-index order and
	// merged posting lists stay ascending. A layer's visible atoms are
	// a prefix of its own: local offsets below b - base.
	for i := len(layers) - 1; i >= 0; i-- {
		st, b := layers[i], bounds[i]
		n := min(len(st.atoms), b-st.base)
		if n <= 0 {
			continue
		}
		for j := 0; j < n; j++ {
			k := st.ix.keys.keyBytes(j)
			slot, _, _ := ix.keys.findSlotBytes(k)
			ix.keys.insert(slot, k)
		}
		for p, idxs := range st.ix.byPred {
			if w := clipWindowU32(idxs, 0, b); len(w) > 0 {
				ix.byPred[p] = append(ix.byPred[p], w...)
			}
		}
		for _, e := range st.ix.byArg.entries {
			if w := clipWindowU32(e.list, 0, b); len(w) > 0 {
				ix.byArg.appendTo(e.id, w...)
			}
		}
		for _, e := range st.ix.dom.entries {
			if int(e.idx) < b {
				ix.dom.setIfAbsent(e.term, int(e.idx))
			}
		}
	}
	return out
}

// forEachLayer walks the snapshot chain from this layer toward the
// root, invoking fn with each layer and the bound on the store indices
// visible there: a layer's own entries count only when their index is
// below the bound, and descending past a layer shrinks the bound to its
// base. The chain-merging reads go through this iterator; the point
// probes (lookupPacked, lookupFactKey, hasDomainID) inline the same
// check-before-shrink walk. fn returning false stops the walk.
func (s *FactStore) forEachLayer(bound int, fn func(st *FactStore, bound int) bool) {
	for st := s; st != nil; st = st.parent {
		if !fn(st, bound) {
			return
		}
		if st.base < bound {
			bound = st.base
		}
	}
}

// Add inserts the atom, reporting whether it was new: one probe per
// chain layer, then one incremental insert into this layer's index.
func (s *FactStore) Add(a Atom) bool {
	var kb [64]byte
	key, _ := s.syms.appendAtomKey(a, kb[:0], true)
	return s.insert(key, a, true)
}

// AddKey inserts the atom with the given packed key, every id of which
// is interned in the chain's Symbols table, and reports whether it was
// new. The atom is materialized from the table only when it is new, so
// a duplicate costs one probe per chain layer and no allocation — the
// path by which the chase and the grounding add head instances built
// from a match's ids.
func (s *FactStore) AddKey(key []byte) bool {
	return s.insert(key, Atom{}, false)
}

// insert adds the atom with the packed key; a is the atom itself when
// have is set, and is materialized from the key otherwise.
func (s *FactStore) insert(key []byte, a Atom, have bool) bool {
	// Ancestors first, under this layer's visibility bound; this
	// layer's own table last, so its miss hands back the insert slot.
	if _, ok := s.parent.lookupPacked(key, s.base); ok {
		return false
	}
	ix := s.index()
	slot, _, dup := ix.keys.findSlotBytes(key)
	if dup {
		return false
	}
	if !have {
		a = s.syms.atomOf(key)
	}
	idx := s.Len()
	ix.keys.insert(slot, key)
	s.atoms = append(s.atoms, a)
	pid := binary.LittleEndian.Uint32(key)
	ix.byPred[pid] = append(ix.byPred[pid], uint32(idx))
	for i, t := range a.Args {
		tid := binary.LittleEndian.Uint32(key[4+4*i:])
		ix.byArg.appendTo(argID{pred: pid, pos: int32(i), term: tid}, uint32(idx))
		// A constant or null is its own domain term; only function
		// terms need the recursive walk.
		if t.Kind == Func {
			s.domBuf = s.syms.appendDomainIDs(t, s.domBuf[:0])
		} else {
			s.domBuf = append(s.domBuf[:0], tid)
		}
		for _, d := range s.domBuf {
			if !s.parent.hasDomainID(d, s.base) {
				ix.dom.setIfAbsent(d, idx)
			}
		}
	}
	s.tb += factKeyBytes(len(a.Args))
	return true
}

// hasDomainID reports whether the chain from s down introduced the
// domain term id at a store index below bound. A nil s has no domain.
func (s *FactStore) hasDomainID(id uint32, bound int) bool {
	for st := s; st != nil; st = st.parent {
		if idx, ok := st.ix.domainIndex(id); ok && idx < bound {
			return true
		}
		bound = min(bound, st.base)
	}
	return false
}

// HasDomainID reports whether the interned term id occurs in the
// store's domain (see Domain), in O(chain) table probes.
func (s *FactStore) HasDomainID(id uint32) bool { return s.hasDomainID(id, math.MaxInt) }

// Symbols returns the interner shared by the store's snapshot chain:
// term and predicate ids, and therefore packed keys and match ids, mean
// the same thing in every store of the chain.
func (s *FactStore) Symbols() *Symbols { return s.syms }

// AddAll inserts every atom, returning the number that were new. The
// batch is bulk-loaded into this layer (see addBulk) unless it is small
// next to the chain's symbol table, where the bulk loader's
// O(symbol table) counting arrays would dwarf the work; such batches go
// through Add.
func (s *FactStore) AddAll(atoms []Atom) int {
	pairs := 0
	for _, a := range atoms {
		pairs += len(a.Args)
	}
	if s.bulkBatch(pairs) {
		return s.addBulk(atoms)
	}
	n := 0
	for _, a := range atoms {
		if s.Add(a) {
			n++
		}
	}
	return n
}

// bulkBatch reports whether a batch with the given number of
// (atom, argument) pairs takes the bulk loader: it does unless the
// batch is small next to the symbol table.
func (s *FactStore) bulkBatch(pairs int) bool {
	return s.syms.NumTerms() <= 4*pairs+1024
}

// lookupPacked resolves a packed fact key (in a scratch buffer) through
// the snapshot chain from s down, counting only store indices below
// bound: each layer's own entries are consulted under the visibility
// bound imposed by the layers above it. A nil s finds nothing.
func (s *FactStore) lookupPacked(key []byte, bound int) (int, bool) {
	for st := s; st != nil; st = st.parent {
		if off, ok := st.ix.offsetOf(key); ok && st.base+off < bound {
			return st.base + off, true
		}
		bound = min(bound, st.base)
	}
	return 0, false
}

// lookupFactKey is lookupPacked for a stored FactKey, over the whole
// chain.
func (s *FactStore) lookupFactKey(key FactKey) (int, bool) {
	bound := math.MaxInt
	for st := s; st != nil; st = st.parent {
		if off, ok := st.ix.offsetOfKey(key); ok && st.base+off < bound {
			return st.base + off, true
		}
		bound = min(bound, st.base)
	}
	return 0, false
}

// lookupAtom resolves the atom's packed key (without interning) and
// looks it up through the chain; a symbol miss means the atom cannot be
// present.
func (s *FactStore) lookupAtom(a Atom) (int, bool) {
	var kb [64]byte
	key, ok := s.syms.appendAtomKey(a, kb[:0], false)
	if !ok {
		return 0, false
	}
	return s.lookupPacked(key, math.MaxInt)
}

// Has reports whether the atom is in the store.
func (s *FactStore) Has(a Atom) bool {
	_, ok := s.lookupAtom(a)
	return ok
}

// HasFactKey reports whether an atom with the given packed key is in
// the store — the allocation-free probe for callers that hold an
// interned key.
func (s *FactStore) HasFactKey(key FactKey) bool {
	_, ok := s.lookupFactKey(key)
	return ok
}

// IndexOfFactKey returns the global store index of the atom with the
// given packed key, if present.
func (s *FactStore) IndexOfFactKey(key FactKey) (int, bool) {
	return s.lookupFactKey(key)
}

// IndexOfKey returns the global store index of the atom with the packed
// key held in a (scratch) byte slice, if present; it allocates nothing.
func (s *FactStore) IndexOfKey(key []byte) (int, bool) {
	return s.lookupPacked(key, math.MaxInt)
}

// IndexOfAtom returns the global store index of the atom, if present.
func (s *FactStore) IndexOfAtom(a Atom) (int, bool) {
	return s.lookupAtom(a)
}

// Len returns the number of atoms.
func (s *FactStore) Len() int { return s.base + len(s.atoms) }

// TupleBytes returns the total packed size (4 bytes per predicate or
// argument id) of the tuples retained by this chain — the unit the
// engine's MaxMemory watermark charges against. Layers frozen below a
// snapshot are included in full, so deltas taken on a growing top layer
// are exact.
func (s *FactStore) TupleBytes() int64 {
	var n int64
	for st := s; st != nil; st = st.parent {
		n += st.tb
	}
	return n
}

// Atoms returns the atoms in insertion order. For a root store the
// returned slice is shared with the store and must not be modified; a
// snapshot layer materializes a fresh slice.
func (s *FactStore) Atoms() []Atom {
	if s.parent == nil {
		return s.atoms
	}
	return s.appendAtomsBelow(s.Len(), make([]Atom, 0, s.Len()))
}

// appendAtomsBelow appends the atoms with store index < bound onto buf,
// in index order.
func (s *FactStore) appendAtomsBelow(bound int, buf []Atom) []Atom {
	if s.parent != nil {
		buf = s.parent.appendAtomsBelow(min(bound, s.base), buf)
	}
	if n := min(bound-s.base, len(s.atoms)); n > 0 {
		buf = append(buf, s.atoms[:n]...)
	}
	return buf
}

// EachAtomIn invokes fn for every atom whose store index lies in
// [lo, hi), in ascending index order; fn returning false stops the walk
// (and makes EachAtomIn return false). It is the index-window iteration
// delta-driven encoders use to inspect the new atoms of a growing store
// (or snapshot chain) without materializing a slice.
func (s *FactStore) EachAtomIn(lo, hi int, fn func(idx int, a Atom) bool) bool {
	hi = min(hi, s.Len())
	lo = max(lo, 0)
	if lo >= hi {
		return true
	}
	if s.parent != nil && !s.parent.EachAtomIn(lo, min(hi, s.base), fn) {
		return false
	}
	for i := max(lo-s.base, 0); i < len(s.atoms) && s.base+i < hi; i++ {
		if !fn(s.base+i, s.atoms[i]) {
			return false
		}
	}
	return true
}

// ByPred returns the atoms with the given predicate, in insertion
// order.
func (s *FactStore) ByPred(pred string) []Atom {
	pid, ok := s.syms.LookupPred(pred)
	if !ok {
		return nil
	}
	idxs := s.appendPredIndices(pid, 0, s.Len(), nil)
	out := make([]Atom, len(idxs))
	for i, idx := range idxs {
		out[i] = s.atomAt(int(idx))
	}
	return out
}

// CountPred returns the number of atoms with the given predicate.
func (s *FactStore) CountPred(pred string) int {
	pid, ok := s.syms.LookupPred(pred)
	if !ok {
		return 0
	}
	return s.countPredWindow(pid, 0, s.Len())
}

// countPredWindow returns the number of atoms with the given predicate
// id whose store index lies in [lo, hi).
func (s *FactStore) countPredWindow(pid uint32, lo, hi int) int {
	n := 0
	s.forEachLayer(hi, func(st *FactStore, bound int) bool {
		if bound <= lo {
			return false
		}
		n += len(clipWindowU32(st.ix.pred(pid), lo, bound))
		return true
	})
	return n
}

// AtomAt returns the atom with the given store index (insertion rank).
func (s *FactStore) AtomAt(i int) Atom { return s.atomAt(i) }

func (s *FactStore) atomAt(i int) Atom {
	st := s
	for i < st.base {
		st = st.parent
	}
	return st.atoms[i-st.base]
}

// keyAt returns the packed key of the atom with store index i, aliasing
// its layer's key blob.
func (s *FactStore) keyAt(i int) []byte {
	st := s
	for i < st.base {
		st = st.parent
	}
	return st.ix.keys.keyBytes(i - st.base)
}

// appendPredIndices appends the store indices of atoms with the given
// predicate id in [lo, hi) onto buf, ascending.
func (s *FactStore) appendPredIndices(pid uint32, lo, hi int, buf []uint32) []uint32 {
	if s.parent != nil {
		buf = s.parent.appendPredIndices(pid, lo, min(hi, s.base), buf)
	}
	return append(buf, clipWindowU32(s.ix.pred(pid), lo, hi)...)
}

// postings returns the store indices of atoms with predicate id pid
// whose argument at 0-based position pos is the interned term tid,
// ascending. For a root store the result is shared with the store and
// must not be modified (a nil result means no atom matches); a snapshot
// layer materializes the merged list.
func (s *FactStore) postings(pid uint32, pos int, tid uint32) []uint32 {
	if s.parent == nil {
		return s.ix.postings(pid, pos, tid)
	}
	return s.appendPostings(pid, pos, tid, 0, s.Len(), nil)
}

// appendPostings appends the posting-list entries in [lo, hi) onto buf,
// ascending across the snapshot chain (ancestor indices always precede
// this layer's own).
func (s *FactStore) appendPostings(pid uint32, pos int, tid uint32, lo, hi int, buf []uint32) []uint32 {
	if s.parent != nil {
		buf = s.parent.appendPostings(pid, pos, tid, lo, min(hi, s.base), buf)
	}
	return append(buf, clipWindowU32(s.ix.postings(pid, pos, tid), lo, hi)...)
}

// postingsCount returns the number of posting-list entries for
// (pid, pos, tid) with store index in [lo, hi).
func (s *FactStore) postingsCount(pid uint32, pos int, tid uint32, lo, hi int) int {
	n := 0
	s.forEachLayer(hi, func(st *FactStore, bound int) bool {
		if bound <= lo {
			return false
		}
		n += len(clipWindowU32(st.ix.postings(pid, pos, tid), lo, bound))
		return true
	})
	return n
}

// Preds returns the sorted list of predicates occurring in the store.
func (s *FactStore) Preds() []string {
	set := make(map[uint32]bool)
	s.forEachLayer(s.Len(), func(st *FactStore, bound int) bool {
		if st.ix == nil {
			return true
		}
		for p, idxs := range st.ix.byPred {
			if !set[p] && len(clipWindowU32(idxs, 0, bound)) > 0 {
				set[p] = true
			}
		}
		return true
	})
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, s.syms.PredName(p))
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep, independent copy (atoms are immutable and
// shared, as is the chain's append-only Symbols table). The copy is
// always a root store with its own index, even when s is a snapshot
// layer; use Snapshot for an O(1) copy-on-write child instead.
func (s *FactStore) Clone() *FactStore {
	return s.flatten(s.Len())
}

// Domain returns the set of constants and nulls occurring in the store
// (recursing into function terms), sorted by canonical key. The set is
// maintained incrementally by Add, so a call costs O(domain), not
// O(atoms).
func (s *FactStore) Domain() []Term {
	ids := s.DomainIDs()
	out := make([]Term, len(ids))
	for i, id := range ids {
		out[i] = s.syms.TermOf(id)
	}
	return out
}

// DomainIDs returns the interned ids of Domain's terms, in the same
// order (sorted by canonical key).
func (s *FactStore) DomainIDs() []uint32 {
	seen := make(map[uint32]bool)
	var ids []uint32
	s.forEachLayer(s.Len(), func(st *FactStore, bound int) bool {
		if st.ix == nil {
			return true
		}
		for _, e := range st.ix.dom.entries {
			if int(e.idx) < bound && !seen[e.term] {
				seen[e.term] = true
				ids = append(ids, e.term)
			}
		}
		return true
	})
	// The interner caches each term's canonical key: sorting by the
	// cached keys avoids re-rendering every term per comparison.
	keys := make([]string, len(ids))
	s.syms.mu.RLock()
	for i, id := range ids {
		keys[i] = s.syms.keys[id]
	}
	s.syms.mu.RUnlock()
	sort.Sort(idsByKey{ids, keys})
	return ids
}

// idsByKey sorts term ids by their parallel canonical keys.
type idsByKey struct {
	ids  []uint32
	keys []string
}

func (b idsByKey) Len() int           { return len(b.ids) }
func (b idsByKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b idsByKey) Swap(i, j int) {
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// CanonicalString renders the store as a sorted comma-separated list of
// atoms; equal sets of atoms produce equal strings.
func (s *FactStore) CanonicalString() string {
	atoms := s.Atoms()
	keys := make([]string, 0, len(atoms))
	for _, a := range atoms {
		keys = append(keys, a.String())
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// Equal reports whether two stores contain exactly the same atoms. The
// stores need not share a Symbols table: atoms are compared
// structurally via key lookups in o's own table.
func (s *FactStore) Equal(o *FactStore) bool {
	if s.Len() != o.Len() {
		return false
	}
	return s.EachAtomIn(0, s.Len(), func(_ int, a Atom) bool { return o.Has(a) })
}

// SubsetOf reports whether every atom of s is in o.
func (s *FactStore) SubsetOf(o *FactStore) bool {
	if s.Len() > o.Len() {
		return false
	}
	return s.EachAtomIn(0, s.Len(), func(_ int, a Atom) bool { return o.Has(a) })
}

// Sorted returns the atoms sorted by canonical key (a fresh slice).
func (s *FactStore) Sorted() []Atom {
	out := append([]Atom(nil), s.Atoms()...)
	return SortAtoms(out)
}
