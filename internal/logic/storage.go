package logic

import (
	"encoding/binary"
)

// FactKey is the packed identity of a ground atom: the interned
// predicate id followed by one interned term id per argument, each as 4
// little-endian bytes. Keys are only comparable between stores sharing
// one Symbols table (a snapshot chain and everything compiled against
// the same database); they replace the canonical-string atom keys of
// earlier revisions, so equality and hashing are fixed-width integer
// work instead of term rendering.
//
// FactKey is a string type so it can key ordinary Go maps; probing a
// map[FactKey]int with FactKey(buf) for a scratch []byte compiles to an
// allocation-free map lookup, which the hot paths rely on.
type FactKey string

// Pred returns the interned predicate id of the packed key.
func (k FactKey) Pred() uint32 { return binary.LittleEndian.Uint32([]byte(k[:4])) }

// Arity returns the number of argument ids in the packed key.
func (k FactKey) Arity() int { return len(k)/4 - 1 }

// Arg returns the interned term id of the argument at 0-based position
// i.
func (k FactKey) Arg(i int) uint32 {
	return binary.LittleEndian.Uint32([]byte(k[4+4*i : 8+4*i]))
}

// factKeyBytes returns the number of bytes a fact with the given arity
// occupies as a packed tuple; it is the unit of the MaxMemory
// watermark.
func factKeyBytes(arity int) int64 { return int64(4 * (1 + arity)) }

// argID addresses one posting list: all atoms with predicate pred whose
// argument at 0-based position pos is the interned term term.
type argID struct {
	pred uint32
	pos  int32
	term uint32
}

// factIndex is the fact-key table of a layerIndex: an append-only
// open-addressed table from packed keys to the layer's dense local
// offsets (linear probing, power-of-two slots, no deletions — stores
// only grow). Three properties beat the general-purpose map for this
// workload: the hash is integer mixing over the key's id words rather
// than byte-string hashing; a miss hands back the slot the probe ended
// on, so dedup-then-insert — the per-fact hot path and the bulk
// loader's inner loop — costs one traversal instead of two; and the key
// bytes live in one pointer-free blob (blob + ends), so the index holds
// no per-key allocation and the garbage collector never scans it.
type factIndex struct {
	slots []uint32 // local offset + 1; 0 = empty
	blob  []byte   // all key bytes, concatenated in offset order
	ends  []uint32 // ends[i] = end offset of key i (start = ends[i-1])
}

// hashWord folds one 4-byte id word into h (FNV-1a step).
func hashWord(h, w uint64) uint64 { return (h ^ w) * 1099511628211 }

func hashMix(h uint64) uint32 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint32(h)
}

func hashFactKey(k FactKey) uint32 {
	h := uint64(14695981039346656037)
	for ; len(k) >= 4; k = k[4:] {
		h = hashWord(h, uint64(binary.LittleEndian.Uint32([]byte(k[:4]))))
	}
	return hashMix(h)
}

func hashFactKeyBytes(k []byte) uint32 {
	h := uint64(14695981039346656037)
	for ; len(k) >= 4; k = k[4:] {
		h = hashWord(h, uint64(binary.LittleEndian.Uint32(k)))
	}
	return hashMix(h)
}

// keyBytes returns the packed key of local offset i, aliasing the blob.
func (fi *factIndex) keyBytes(i int) []byte {
	lo := uint32(0)
	if i > 0 {
		lo = fi.ends[i-1]
	}
	return fi.blob[lo:fi.ends[i]]
}

// findSlotBytes is findSlot for a packed key held in a scratch buffer,
// resolved without copying it (the conversion below compiles to an
// allocation-free comparison).
func (fi *factIndex) findSlotBytes(key []byte) (slot uint32, idx int, ok bool) {
	mask := uint32(len(fi.slots) - 1)
	s := hashFactKeyBytes(key) & mask
	for {
		v := fi.slots[s]
		if v == 0 {
			return s, 0, false
		}
		if string(fi.keyBytes(int(v-1))) == string(key) {
			return s, int(v - 1), true
		}
		s = (s + 1) & mask
	}
}

// findSlot returns the local offset of k if present, or else the empty
// slot where it belongs. The one-writer rule guarantees nothing is
// inserted between findSlot and the paired insert.
func (fi *factIndex) findSlot(k FactKey) (slot uint32, idx int, ok bool) {
	mask := uint32(len(fi.slots) - 1)
	s := hashFactKey(k) & mask
	for {
		v := fi.slots[s]
		if v == 0 {
			return s, 0, false
		}
		if string(fi.keyBytes(int(v-1))) == string(k) {
			return s, int(v - 1), true
		}
		s = (s + 1) & mask
	}
}

// insert records key as the key of the next local offset, filling the
// slot findSlotBytes returned and growing past 3/4 load (growth
// invalidates outstanding slot positions).
func (fi *factIndex) insert(slot uint32, key []byte) {
	fi.blob = append(fi.blob, key...)
	fi.ends = append(fi.ends, uint32(len(fi.blob)))
	fi.slots[slot] = uint32(len(fi.ends))
	if 4*len(fi.ends) >= 3*len(fi.slots) {
		fi.grow(2 * len(fi.slots))
	}
}

func (fi *factIndex) grow(size int) {
	slots := make([]uint32, size)
	mask := uint32(size - 1)
	for i := range fi.ends {
		s := hashFactKeyBytes(fi.keyBytes(i)) & mask
		for slots[s] != 0 {
			s = (s + 1) & mask
		}
		slots[s] = uint32(i + 1)
	}
	fi.slots = slots
}

// reserve sizes the table and blob so n further inserts totalling
// bytes key bytes never rehash or reallocate.
func (fi *factIndex) reserve(n, bytes int) {
	size := len(fi.slots)
	for 4*(len(fi.ends)+n) >= 3*size {
		size *= 2
	}
	if size != len(fi.slots) {
		fi.grow(size)
	}
	if cap(fi.blob)-len(fi.blob) < bytes {
		newCap := len(fi.blob) + bytes
		if c := 2 * cap(fi.blob); c > newCap {
			newCap = c
		}
		grown := make([]byte, len(fi.blob), newCap)
		copy(grown, fi.blob)
		fi.blob = grown
	}
	if cap(fi.ends)-len(fi.ends) < n {
		newCap := len(fi.ends) + n
		if c := 2 * cap(fi.ends); c > newCap {
			newCap = c
		}
		grown := make([]uint32, len(fi.ends), newCap)
		copy(grown, fi.ends)
		fi.ends = grown
	}
}

// nameMemo is the batch-local constant-name → term-id memo of addBulk:
// an open-addressed table whose entries keep the name header and id on
// one cache line, probed with the same miss-returns-the-slot protocol
// as factIndex. Bulk inputs resolve every argument through it, so the
// probe is on addBulk's critical path; a general-purpose map costs
// roughly twice as much per probe here.
type nameMemo struct {
	slots   []uint32 // entry index + 1; 0 = empty
	entries []nameEntry
}

type nameEntry struct {
	name string
	id   uint32
}

// newNameMemo sizes the initial table for a batch of n atoms: small
// batches get a small table, bulk loads start at 1024 slots and grow
// with their vocabulary.
func newNameMemo(n int) *nameMemo {
	size := 16
	for size < 4*n && size < 1024 {
		size *= 2
	}
	return &nameMemo{slots: make([]uint32, size)}
}

func hashName(s string) uint32 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return hashMix(h)
}

// find returns the memoized id of name, or else the empty slot where
// its entry belongs (fill it with insert before the next find).
func (m *nameMemo) find(name string) (slot uint32, id uint32, ok bool) {
	mask := uint32(len(m.slots) - 1)
	s := hashName(name) & mask
	for {
		v := m.slots[s]
		if v == 0 {
			return s, 0, false
		}
		if e := &m.entries[v-1]; e.name == name {
			return s, e.id, true
		}
		s = (s + 1) & mask
	}
}

func (m *nameMemo) insert(slot uint32, name string, id uint32) {
	m.entries = append(m.entries, nameEntry{name: name, id: id})
	m.slots[slot] = uint32(len(m.entries))
	if 4*len(m.entries) >= 3*len(m.slots) {
		size := 2 * len(m.slots)
		slots := make([]uint32, size)
		mask := uint32(size - 1)
		for i := range m.entries {
			s := hashName(m.entries[i].name) & mask
			for slots[s] != 0 {
				s = (s + 1) & mask
			}
			slots[s] = uint32(i + 1)
		}
		m.slots = slots
	}
}

// argTable is the posting-list table of a layerIndex: argID → ascending
// store indices, open-addressed like factIndex. The three-word key
// hashes with plain integer mixing, and bulk construction probes each
// distinct list exactly once — both several times cheaper than a
// general-purpose map keyed by a struct.
type argTable struct {
	slots   []uint32 // entry index + 1; 0 = empty
	entries []argEntry
}

type argEntry struct {
	id   argID
	list []uint32
}

func hashArgID(id argID) uint32 {
	h := hashWord(14695981039346656037, uint64(id.pred))
	h = hashWord(h, uint64(uint32(id.pos)))
	return hashMix(hashWord(h, uint64(id.term)))
}

func (at *argTable) get(id argID) []uint32 {
	_, i, ok := at.findSlot(id)
	if !ok {
		return nil
	}
	return at.entries[i].list
}

// findSlot returns the entry index of id if present, or else the empty
// slot where it belongs (fill it with setList before the next call).
func (at *argTable) findSlot(id argID) (slot uint32, idx int, ok bool) {
	mask := uint32(len(at.slots) - 1)
	s := hashArgID(id) & mask
	for {
		v := at.slots[s]
		if v == 0 {
			return s, 0, false
		}
		if at.entries[v-1].id == id {
			return s, int(v - 1), true
		}
		s = (s + 1) & mask
	}
}

// setList records list as the postings of a new id, filling the slot
// findSlot returned (growth invalidates outstanding slots).
func (at *argTable) setList(slot uint32, id argID, list []uint32) {
	at.entries = append(at.entries, argEntry{id: id, list: list})
	at.slots[slot] = uint32(len(at.entries))
	if 4*len(at.entries) >= 3*len(at.slots) {
		at.grow(2 * len(at.slots))
	}
}

func (at *argTable) grow(size int) {
	slots := make([]uint32, size)
	mask := uint32(size - 1)
	for i := range at.entries {
		s := hashArgID(at.entries[i].id) & mask
		for slots[s] != 0 {
			s = (s + 1) & mask
		}
		slots[s] = uint32(i + 1)
	}
	at.slots = slots
}

// reserve sizes the table so n further inserts never rehash.
func (at *argTable) reserve(n int) {
	size := len(at.slots)
	for 4*(len(at.entries)+n) >= 3*size {
		size *= 2
	}
	if size != len(at.slots) {
		at.grow(size)
	}
}

// appendTo appends w to the postings of id, creating the entry if
// needed (the created list copies w).
func (at *argTable) appendTo(id argID, w ...uint32) {
	slot, i, ok := at.findSlot(id)
	if ok {
		at.entries[i].list = append(at.entries[i].list, w...)
		return
	}
	at.setList(slot, id, append([]uint32(nil), w...))
}

// domTable maps a constant/null term id to the store index that
// introduced it (first-wins), open-addressed like factIndex.
type domTable struct {
	slots   []uint32 // entry index + 1; 0 = empty
	entries []domEntry
}

type domEntry struct {
	term uint32
	idx  int32
}

func (dt *domTable) find(term uint32) (int, bool) {
	_, i, ok := dt.findSlot(term)
	if !ok {
		return 0, false
	}
	return int(dt.entries[i].idx), true
}

func (dt *domTable) findSlot(term uint32) (slot uint32, idx int, ok bool) {
	mask := uint32(len(dt.slots) - 1)
	s := hashMix(hashWord(14695981039346656037, uint64(term))) & mask
	for {
		v := dt.slots[s]
		if v == 0 {
			return s, 0, false
		}
		if dt.entries[v-1].term == term {
			return s, int(v - 1), true
		}
		s = (s + 1) & mask
	}
}

// setIfAbsent records idx as the introducing index of term unless one
// is already recorded.
func (dt *domTable) setIfAbsent(term uint32, idx int) {
	slot, _, ok := dt.findSlot(term)
	if ok {
		return
	}
	dt.entries = append(dt.entries, domEntry{term: term, idx: int32(idx)})
	dt.slots[slot] = uint32(len(dt.entries))
	if 4*len(dt.entries) >= 3*len(dt.slots) {
		dt.grow(2 * len(dt.slots))
	}
}

func (dt *domTable) grow(size int) {
	slots := make([]uint32, size)
	mask := uint32(size - 1)
	for i := range dt.entries {
		s := hashMix(hashWord(14695981039346656037, uint64(dt.entries[i].term))) & mask
		for slots[s] != 0 {
			s = (s + 1) & mask
		}
		slots[s] = uint32(i + 1)
	}
	dt.slots = slots
}

// layerIndex is the packed index over one snapshot-chain layer's own
// atoms — the root's as much as any snapshot's: the fact-key table
// (keys at local offsets, store index = layer base + offset), the
// per-predicate lists, the posting lists, and the domain. A layer
// allocates its index on its first write, so a snapshot that never
// writes stays one small struct. The read accessors accept a nil index
// and report a miss.
type layerIndex struct {
	keys   factIndex
	byPred map[uint32][]uint32 // store indices per predicate id, ascending
	byArg  argTable            // posting lists, ascending store indices
	dom    domTable            // domain term id -> index of introducing atom
}

const layerIndexMinSlots = 16

func newLayerIndex() *layerIndex {
	// One allocation backs the three initial slot arrays; a table
	// replaces its share when it first grows.
	const n = layerIndexMinSlots
	slots := make([]uint32, 3*n)
	return &layerIndex{
		keys:   factIndex{slots: slots[:n:n]},
		byPred: make(map[uint32][]uint32),
		byArg:  argTable{slots: slots[n : 2*n : 2*n]},
		dom:    domTable{slots: slots[2*n:]},
	}
}

// offsetOf returns the local offset of the packed key held in a scratch
// buffer.
func (ix *layerIndex) offsetOf(key []byte) (int, bool) {
	if ix == nil {
		return 0, false
	}
	_, off, ok := ix.keys.findSlotBytes(key)
	return off, ok
}

// offsetOfKey is offsetOf for a stored FactKey.
func (ix *layerIndex) offsetOfKey(key FactKey) (int, bool) {
	if ix == nil {
		return 0, false
	}
	_, off, ok := ix.keys.findSlot(key)
	return off, ok
}

// pred returns the layer's store indices of atoms with predicate pid.
func (ix *layerIndex) pred(pid uint32) []uint32 {
	if ix == nil {
		return nil
	}
	return ix.byPred[pid]
}

// postings returns the layer's posting list for (pid, pos, tid).
func (ix *layerIndex) postings(pid uint32, pos int, tid uint32) []uint32 {
	if ix == nil {
		return nil
	}
	return ix.byArg.get(argID{pred: pid, pos: int32(pos), term: tid})
}

// domainIndex returns the index of the layer's atom that introduced the
// constant or null with id term into the domain.
func (ix *layerIndex) domainIndex(term uint32) (int, bool) {
	if ix == nil {
		return 0, false
	}
	return ix.dom.find(term)
}

// addBulk is the root bulk loader behind AddAll. It interns and renders
// every packed key under a single interner lock, deduplicates the batch
// against the pre-reserved key table, and then constructs the posting
// lists by counting sort over the dense term and predicate ids:
// grouping touches no maps at all, and each distinct posting list
// costs exactly one (pre-sized) table insert. The counting arrays are
// O(symbol table), which is why AddAll routes batches that are small
// next to the table through per-fact Add instead.
func (s *FactStore) addBulk(atoms []Atom) int {
	if len(atoms) == 0 {
		return 0
	}
	ix := s.index()
	total := 0
	for _, a := range atoms {
		total += int(factKeyBytes(len(a.Args)))
	}
	// Reserve everything up front: no insert below ever rehashes the
	// key table or regrows the atom slice or key blob.
	base := len(s.atoms)
	ix.keys.reserve(len(atoms), total)
	if cap(s.atoms)-len(s.atoms) < len(atoms) {
		// Doubling keeps repeated batches amortized O(1) per atom; a
		// bulk load into a fresh store sizes exactly once.
		newCap := len(s.atoms) + len(atoms)
		if c := 2 * cap(s.atoms); c > newCap {
			newCap = c
		}
		grown := make([]Atom, len(s.atoms), newCap)
		copy(grown, s.atoms)
		s.atoms = grown
	}
	// Phase 1: intern everything and render every packed key into one
	// shared buffer, holding the exclusive interner lock once for the
	// batch. Batch-local memos resolve repeated constant/null names
	// with one cheap probe instead of a walk of the shared interner
	// tables — bulk inputs reuse their vocabulary heavily, so most
	// arguments hit. Rendering and dedup stay separate loops on
	// purpose: each is a tight pass whose cache misses the CPU can
	// overlap across iterations, where a fused loop would serialize
	// them.
	keys := make([]byte, 0, total)
	offs := make([]int32, len(atoms)+1)
	domFlat := make([]uint32, 0, len(atoms))
	domOffs := make([]int32, len(atoms)+1)
	constMemo := newNameMemo(len(atoms))
	predMemo := newNameMemo(1)
	var nullMemo map[string]uint32
	// Last-value caches: bulk inputs often arrive sorted (database
	// dumps) or run-structured, so the constant at a given argument
	// position frequently repeats the previous row's. One string
	// comparison then replaces even the memo probe. Empty names never
	// hit (the zero value would alias them to id 0).
	type lastID struct {
		name string
		id   uint32
	}
	var lastArg [8]lastID
	var lastPred lastID
	s.syms.mu.Lock()
	for i, a := range atoms {
		var pid uint32
		if a.Pred != "" && a.Pred == lastPred.name {
			pid = lastPred.id
		} else {
			slot, hit, ok := predMemo.find(a.Pred)
			if ok {
				pid = hit
			} else {
				pid = s.syms.internPredLocked(a.Pred)
				predMemo.insert(slot, a.Pred, pid)
			}
			lastPred = lastID{name: a.Pred, id: pid}
		}
		keys = binary.LittleEndian.AppendUint32(keys, pid)
		for p, t := range a.Args {
			// For a constant or null the domain id is the term id
			// itself; only function terms need the recursive walk.
			switch t.Kind {
			case Const:
				var id uint32
				if p < len(lastArg) && t.Name != "" && t.Name == lastArg[p].name {
					id = lastArg[p].id
				} else {
					slot, hit, ok := constMemo.find(t.Name)
					if ok {
						id = hit
					} else {
						id = s.syms.internLocked(t)
						constMemo.insert(slot, t.Name, id)
					}
					if p < len(lastArg) {
						lastArg[p] = lastID{name: t.Name, id: id}
					}
				}
				keys = binary.LittleEndian.AppendUint32(keys, id)
				domFlat = append(domFlat, id)
			case Null:
				id, ok := nullMemo[t.Name]
				if !ok {
					id = s.syms.internLocked(t)
					if nullMemo == nil {
						nullMemo = make(map[string]uint32, 16)
					}
					nullMemo[t.Name] = id
				}
				keys = binary.LittleEndian.AppendUint32(keys, id)
				domFlat = append(domFlat, id)
			default:
				id := s.syms.internLocked(t)
				keys = binary.LittleEndian.AppendUint32(keys, id)
				domFlat = s.syms.appendDomainIDsRLocked(t, domFlat)
			}
		}
		offs[i+1] = int32(len(keys))
		domOffs[i+1] = int32(len(domFlat))
	}
	numTerms := len(s.syms.terms)
	numPreds := len(s.syms.predNames)
	s.syms.mu.Unlock()

	// Phase 2: dedup against the key table, assigning dense indices.
	// Every new fact costs exactly one hash-and-probe traversal: the
	// miss hands back the slot the insert fills, and no insert ever
	// rehashes. srcOf maps the j-th accepted atom (store index base+j)
	// back to its batch position, for the domain pass below.
	srcOf := make([]int32, 0, len(atoms))
	nPairs := 0
	for i := range atoms {
		k := keys[offs[i]:offs[i+1]]
		slot, _, dup := ix.keys.findSlotBytes(k)
		if dup {
			continue
		}
		ix.keys.insert(slot, k)
		s.atoms = append(s.atoms, atoms[i])
		srcOf = append(srcOf, int32(i))
		s.tb += factKeyBytes(len(atoms[i].Args))
		nPairs += len(atoms[i].Args)
	}

	// The accepted atoms are exactly store indices base..base+added;
	// their packed keys are read back, zero-copy, from the key blob.
	added := len(s.atoms) - base
	key := func(j int) []byte { return ix.keys.keyBytes(base + j) }

	// Phase 3: index construction. byPred: counting sort over dense
	// predicate ids. One backing array holds every new entry; iterating
	// in index order keeps each list ascending.
	predOff := make([]int32, numPreds+1)
	for j := 0; j < added; j++ {
		predOff[binary.LittleEndian.Uint32(key(j))+1]++
	}
	for p := 0; p < numPreds; p++ {
		predOff[p+1] += predOff[p]
	}
	predBack := make([]uint32, added)
	predCur := make([]int32, numPreds)
	copy(predCur, predOff)
	for j := 0; j < added; j++ {
		pid := binary.LittleEndian.Uint32(key(j))
		predBack[predCur[pid]] = uint32(base + j)
		predCur[pid]++
	}
	for p := 0; p < numPreds; p++ {
		lo, hi := predOff[p], predOff[p+1]
		if lo == hi {
			continue
		}
		pid := uint32(p)
		ix.byPred[pid] = append(ix.byPred[pid], predBack[lo:hi]...)
	}

	// byArg: counting sort over dense term ids buckets every
	// (pred, pos, term, idx) pair; within a bucket, stable sweeps split
	// the few (pred, pos) groups, each becoming one ascending run of
	// the shared output array and one table insert.
	type pairEntry struct {
		pred uint32
		idx  uint32
		pos  int32
	}
	bkt := make([]int32, numTerms+1)
	for j := 0; j < added; j++ {
		k := key(j)
		for o := 4; o < len(k); o += 4 {
			bkt[binary.LittleEndian.Uint32(k[o:])+1]++
		}
	}
	for t := 0; t < numTerms; t++ {
		bkt[t+1] += bkt[t]
	}
	entries := make([]pairEntry, nPairs)
	cur := make([]int32, numTerms)
	copy(cur, bkt)
	for j := 0; j < added; j++ {
		k := key(j)
		pid := binary.LittleEndian.Uint32(k)
		for p := 0; 4+4*p < len(k); p++ {
			tid := binary.LittleEndian.Uint32(k[4+4*p:])
			entries[cur[tid]] = pairEntry{pred: pid, idx: uint32(base + j), pos: int32(p)}
			cur[tid]++
		}
	}
	type run struct {
		id     argID
		lo, hi int32
	}
	idxOut := make([]uint32, nPairs)
	out := int32(0)
	runs := make([]run, 0, nPairs/4+16)
	const consumed = ^uint32(0)
	for t := 0; t < numTerms; t++ {
		b := entries[bkt[t]:bkt[t+1]]
		for i := range b {
			if b[i].pred == consumed {
				continue
			}
			pid, pos := b[i].pred, b[i].pos
			lo := out
			for j := i; j < len(b); j++ {
				if b[j].pred == pid && b[j].pos == pos {
					idxOut[out] = b[j].idx
					out++
					b[j].pred = consumed
				}
			}
			runs = append(runs, run{id: argID{pred: pid, pos: pos, term: uint32(t)}, lo: lo, hi: out})
		}
	}
	ix.byArg.reserve(len(runs))
	for _, r := range runs {
		seg := idxOut[r.lo:r.hi:r.hi]
		slot, i, ok := ix.byArg.findSlot(r.id)
		if ok {
			e := &ix.byArg.entries[i]
			e.list = append(append(make([]uint32, 0, len(e.list)+len(seg)), e.list...), seg...)
			continue
		}
		ix.byArg.setList(slot, r.id, seg)
	}

	// Domain: first-wins inserts, iterating accepted atoms in index
	// order; a dense seen array short-circuits the repeats, so the
	// table is probed once per distinct term.
	seen := make([]bool, numTerms)
	for j := 0; j < added; j++ {
		src := srcOf[j]
		for _, d := range domFlat[domOffs[src]:domOffs[src+1]] {
			if !seen[d] {
				seen[d] = true
				ix.dom.setIfAbsent(d, base+j)
			}
		}
	}
	return added
}
