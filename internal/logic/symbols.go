package logic

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Symbols is a hash-consing interner mapping ground terms and predicate
// names to dense uint32 ids. One table is shared by a whole snapshot
// chain (every layer of a FactStore family points at the root's table),
// so a term id — and therefore a packed FactKey — means the same thing
// in every store of the chain: atom identity checks become integer
// comparisons on packed tuples instead of canonical-string rendering.
//
// Alongside the id maps the table retains, per id, the interned Term
// (with its arguments canonicalized to interned terms, so structurally
// equal subtrees share memory) and the term's canonical key string
// (rendered exactly once). The cached keys preserve the pre-interning
// sort orders — Domain() and trigger selection sort by canonical key —
// without ever re-rendering a term.
//
// Concurrency: all methods are safe for concurrent use. Reads take a
// shared lock; interning escalates to the exclusive lock only when a
// symbol is genuinely new. Ids are assigned in first-intern order and
// never reused, so they are deterministic for a sequential load but not
// across runs of a parallel search — nothing order-sensitive may be
// keyed on raw id order (the cached canonical keys exist for exactly
// that reason).
type Symbols struct {
	mu    sync.RWMutex
	terms []Term   // id -> interned term (arguments interned too)
	keys  []string // id -> canonical key (Term.Key()), rendered once
	// simple maps constants and nulls; funcs maps function terms by
	// name plus packed argument ids (see appendFuncKey).
	simple map[simpleKey]uint32
	funcs  map[string]uint32

	predNames []string
	preds     map[string]uint32

	// keyBytes totals the lengths of keys, for KeyBytes to read without
	// the lock.
	keyBytes atomic.Int64
}

type simpleKey struct {
	kind TermKind
	name string
}

// NewSymbols returns an empty interner.
func NewSymbols() *Symbols {
	return &Symbols{
		simple: make(map[simpleKey]uint32),
		funcs:  make(map[string]uint32),
		preds:  make(map[string]uint32),
	}
}

// appendFuncKey packs the identity of a function term — the symbol name
// (length-prefixed, names may contain any byte) followed by the
// argument term ids — onto dst.
func appendFuncKey(dst []byte, name string, args []uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
	dst = append(dst, name...)
	for _, a := range args {
		dst = binary.LittleEndian.AppendUint32(dst, a)
	}
	return dst
}

// NumTerms returns the number of interned terms.
func (s *Symbols) NumTerms() int {
	s.mu.RLock()
	n := len(s.terms)
	s.mu.RUnlock()
	return n
}

// NumPreds returns the number of interned predicate names.
func (s *Symbols) NumPreds() int {
	s.mu.RLock()
	n := len(s.predNames)
	s.mu.RUnlock()
	return n
}

// TermOf returns the interned term with the given id.
func (s *Symbols) TermOf(id uint32) Term {
	s.mu.RLock()
	t := s.terms[id]
	s.mu.RUnlock()
	return t
}

// PredName returns the predicate name with the given id.
func (s *Symbols) PredName(id uint32) string {
	s.mu.RLock()
	n := s.predNames[id]
	s.mu.RUnlock()
	return n
}

// Intern returns the id of the ground term, interning it (and all of
// its subterms) if new. t must not contain variables.
func (s *Symbols) Intern(t Term) uint32 {
	s.mu.RLock()
	id, ok := s.lookupRLocked(t)
	s.mu.RUnlock()
	if ok {
		return id
	}
	s.mu.Lock()
	id = s.internLocked(t)
	s.mu.Unlock()
	return id
}

// Lookup returns the id of the ground term if it has been interned.
// A miss means no store sharing this table contains the term.
func (s *Symbols) Lookup(t Term) (uint32, bool) {
	s.mu.RLock()
	id, ok := s.lookupRLocked(t)
	s.mu.RUnlock()
	return id, ok
}

// InternPred returns the id of the predicate name, interning it if new.
func (s *Symbols) InternPred(name string) uint32 {
	s.mu.RLock()
	id, ok := s.preds[name]
	s.mu.RUnlock()
	if ok {
		return id
	}
	s.mu.Lock()
	id = s.internPredLocked(name)
	s.mu.Unlock()
	return id
}

// LookupPred returns the id of the predicate name if interned.
func (s *Symbols) LookupPred(name string) (uint32, bool) {
	s.mu.RLock()
	id, ok := s.preds[name]
	s.mu.RUnlock()
	return id, ok
}

func (s *Symbols) internPredLocked(name string) uint32 {
	if id, ok := s.preds[name]; ok {
		return id
	}
	id := uint32(len(s.predNames))
	s.predNames = append(s.predNames, name)
	s.preds[name] = id
	return id
}

func (s *Symbols) lookupRLocked(t Term) (uint32, bool) {
	if t.Kind == Func {
		var buf [64]byte
		ids := make([]uint32, 0, 8)
		for _, a := range t.Args {
			id, ok := s.lookupRLocked(a)
			if !ok {
				return 0, false
			}
			ids = append(ids, id)
		}
		id, ok := s.funcs[string(appendFuncKey(buf[:0], t.Name, ids))]
		return id, ok
	}
	id, ok := s.simple[simpleKey{kind: t.Kind, name: t.Name}]
	return id, ok
}

func (s *Symbols) internLocked(t Term) uint32 {
	switch t.Kind {
	case Var:
		panic("logic: interning a non-ground term")
	case Func:
		ids := make([]uint32, len(t.Args))
		for i, a := range t.Args {
			ids[i] = s.internLocked(a)
		}
		k := string(appendFuncKey(nil, t.Name, ids))
		if id, ok := s.funcs[k]; ok {
			return id
		}
		// Canonicalize the arguments to their interned terms so equal
		// subtrees share one allocation across the whole table.
		args := make([]Term, len(ids))
		for i, aid := range ids {
			args[i] = s.terms[aid]
		}
		id := s.pushLocked(Term{Kind: Func, Name: t.Name, Args: args})
		s.funcs[k] = id
		return id
	default:
		k := simpleKey{kind: t.Kind, name: t.Name}
		if id, ok := s.simple[k]; ok {
			return id
		}
		id := s.pushLocked(Term{Kind: t.Kind, Name: t.Name})
		s.simple[k] = id
		return id
	}
}

func (s *Symbols) pushLocked(t Term) uint32 {
	id := uint32(len(s.terms))
	key := t.Key()
	s.terms = append(s.terms, t)
	s.keys = append(s.keys, key)
	s.keyBytes.Add(int64(len(key)))
	return id
}

// KeyBytes returns the total length of the canonical keys of every term
// interned so far. A nested term's key renders its arguments in full, so
// this total, not the number of terms, is what a run of nested Skolem
// terms grows without bound; ground.Ground bounds it.
func (s *Symbols) KeyBytes() int64 { return s.keyBytes.Load() }

// appendAtomKey appends the packed fact key of the ground atom — the
// predicate id followed by one term id per argument, little-endian —
// onto kbuf. With intern set, unknown symbols are interned; otherwise a
// missing symbol reports ok == false (the atom cannot be in any store
// sharing this table).
func (s *Symbols) appendAtomKey(a Atom, kbuf []byte, intern bool) ([]byte, bool) {
	s.mu.RLock()
	out, ok := s.appendAtomKeyRLocked(a, kbuf)
	s.mu.RUnlock()
	if ok || !intern {
		return out, ok
	}
	s.mu.Lock()
	kbuf = binary.LittleEndian.AppendUint32(kbuf, s.internPredLocked(a.Pred))
	for _, t := range a.Args {
		kbuf = binary.LittleEndian.AppendUint32(kbuf, s.internLocked(t))
	}
	s.mu.Unlock()
	return kbuf, true
}

func (s *Symbols) appendAtomKeyRLocked(a Atom, kbuf []byte) ([]byte, bool) {
	pid, ok := s.preds[a.Pred]
	if !ok {
		return kbuf, false
	}
	kbuf = binary.LittleEndian.AppendUint32(kbuf, pid)
	for _, t := range a.Args {
		id, ok := s.lookupRLocked(t)
		if !ok {
			return kbuf, false
		}
		kbuf = binary.LittleEndian.AppendUint32(kbuf, id)
	}
	return kbuf, true
}

// funcOf returns the symbol name of the interned term id and appends
// its argument ids onto dst when it is a function term; ok is false for
// constants and nulls. The ids are looked up, not stored: only joins
// with non-ground function terms in a body need them.
func (s *Symbols) funcOf(id uint32, dst []uint32) (name string, args []uint32, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.terms[id]
	if t.Kind != Func {
		return "", dst, false
	}
	for _, a := range t.Args {
		aid, _ := s.lookupRLocked(a) // interned with its parent
		dst = append(dst, aid)
	}
	return t.Name, dst, true
}

// funcID returns the id of the function term name(args...), whose
// arguments are interned ids. With intern set, a new term is interned;
// otherwise ok is false when the term was never interned.
func (s *Symbols) funcID(name string, args []uint32, intern bool) (uint32, bool) {
	var buf [64]byte
	k := appendFuncKey(buf[:0], name, args)
	s.mu.RLock()
	id, ok := s.funcs[string(k)]
	s.mu.RUnlock()
	if ok || !intern {
		return id, ok
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.funcs[string(k)]; ok {
		return id, true
	}
	targs := make([]Term, len(args))
	for i, a := range args {
		targs[i] = s.terms[a]
	}
	id = s.pushLocked(Term{Kind: Func, Name: name, Args: targs})
	s.funcs[string(k)] = id
	return id, true
}

// atomOf materializes the ground atom with the given packed key, whose
// ids are all interned in this table.
func (s *Symbols) atomOf(key []byte) Atom {
	n := len(key)/4 - 1
	s.mu.RLock()
	a := Atom{Pred: s.predNames[binary.LittleEndian.Uint32(key)]}
	if n > 0 {
		a.Args = make([]Term, n)
		for i := range a.Args {
			a.Args[i] = s.terms[binary.LittleEndian.Uint32(key[4+4*i:])]
		}
	}
	s.mu.RUnlock()
	return a
}

// AppendKeys appends, for each id, sep followed by the canonical key of
// the interned term (Term.AppendKey's bytes, rendered once at intern
// time), taking the table's lock once.
func (s *Symbols) AppendKeys(dst []byte, sep byte, ids []uint32) []byte {
	s.mu.RLock()
	for _, id := range ids {
		dst = append(dst, sep)
		dst = append(dst, s.keys[id]...)
	}
	s.mu.RUnlock()
	return dst
}

// appendDomainIDs appends the ids of the constants and nulls occurring
// in t (recursing into function terms) onto dst. Every symbol of t must
// already be interned.
func (s *Symbols) appendDomainIDs(t Term, dst []uint32) []uint32 {
	s.mu.RLock()
	dst = s.appendDomainIDsRLocked(t, dst)
	s.mu.RUnlock()
	return dst
}

func (s *Symbols) appendDomainIDsRLocked(t Term, dst []uint32) []uint32 {
	switch t.Kind {
	case Const, Null:
		if id, ok := s.simple[simpleKey{kind: t.Kind, name: t.Name}]; ok {
			dst = append(dst, id)
		}
	case Func:
		for _, a := range t.Args {
			dst = s.appendDomainIDsRLocked(a, dst)
		}
	}
	return dst
}
