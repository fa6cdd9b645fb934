package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ntgd"
)

// Canonicalize parses a submitted program and returns its canonical
// form plus the canonical source it is keyed by. The canonicalization
// policy of the daemon:
//
//   - whitespace and comments vanish (the parser discards them);
//   - facts are sorted and deduplicated (a database is a set);
//   - rules are sorted by their canonical rendering and deduplicated,
//     and the kept rules are relabelled r1…rn in that order.
//
// The rendering quotes every constant and predicate name that would not
// lex back as itself and prints a constraint as ":- body", so the
// canonical source parses back to the canonical program: two programs
// share a source, and a cache key, only when they have the same facts
// and rules.
//
// Rule order is normalized on purpose: branch-trigger selection is by
// rule index (PR 2/6), so two clients submitting the same rules in
// different orders would otherwise be served from one cache entry yet
// expect potentially different (equally sound) model subsets. The
// daemon always evaluates the canonical form, making responses a pure
// function of the rule/fact sets. The relabelling serves the same end:
// the parser labels rules in source order, and LP's Skolem functions
// are named after the labels, so a cached program compiled from one
// order would otherwise name them differently from another order's.
//
// Queries embedded in the source ("?- ...") are validated by the parse
// but dropped from the canonical program: the HTTP API carries queries
// in their own request fields, and they do not affect compilation.
func Canonicalize(src string) (*ntgd.Program, string, error) {
	p, err := ntgd.Parse(src)
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	facts := canonical(p.Facts, ntgd.Atom.String, &b)
	rules := canonical(p.Rules, (*ntgd.Rule).String, &b)
	for i, r := range rules {
		r.Label = "r" + strconv.Itoa(i+1)
	}
	return &ntgd.Program{Facts: facts, Rules: rules}, b.String(), nil
}

// canonical returns the items sorted by their rendering, without
// repeats, and writes each kept item's rendering to b as one statement
// per line. Each item is rendered once.
func canonical[T any](items []T, render func(T) string, b *strings.Builder) []T {
	type rendered struct {
		text string
		item T
	}
	rs := make([]rendered, len(items))
	for i, it := range items {
		rs[i] = rendered{render(it), it}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].text < rs[j].text })
	out := make([]T, 0, len(rs))
	for i, r := range rs {
		if i > 0 && r.text == rs[i-1].text {
			continue
		}
		out = append(out, r.item)
		b.WriteString(r.text)
		b.WriteString(".\n")
	}
	return out
}

// cacheKey hashes the canonical source under one semantics and one
// fact-base handle ("" = no attached fact base). The handle is part of
// the key because the same rules over different uploaded databases
// compile to different solvers.
func cacheKey(sem ntgd.Semantics, canonical, db string) string {
	h := sha256.New()
	h.Write([]byte(sem.String()))
	h.Write([]byte{0})
	h.Write([]byte(db))
	h.Write([]byte{0})
	h.Write([]byte(canonical))
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats is a point-in-time snapshot of a cache's counters,
// surfaced by /statz. Compiles counts builds: program compiles in the
// program cache, Database loads in the fact-base cache.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Compiles  int64 `json:"compiles"`
}

// cache is the daemon's bounded least-recently-used cache with
// single-flight builds; one holds compiled programs, one uploaded fact
// bases. Concurrent gets of one key run one build, and the others wait
// for it, each until its own context ends. A failed build reaches every
// waiter and leaves no entry, so a transient condition cannot poison
// the key. Eviction, past the capacity or by purge, skips entries still
// building: their waiters hold them, and the key is built again next
// time.
type cache[V any] struct {
	cap int
	// evicted, when set, is called under mu with each value evicted.
	evicted func(V)

	mu      sync.Mutex
	entries map[string]*entry[V]
	lru     list.List // front = most recently used; values *entry[V]

	hits, misses, evictions, builds int64
}

type entry[V any] struct {
	key   string
	elem  *list.Element
	ready chan struct{} // closed once val or err is set
	built bool          // val is set; guarded by the cache's mu
	val   V
	err   error
}

func newCache[V any](capacity int, evicted func(V)) *cache[V] {
	return &cache[V]{cap: capacity, evicted: evicted, entries: make(map[string]*entry[V])}
}

// errBuildPanicked is what waiters get when the build they wait for
// panics; the panic itself goes on up the building request's stack.
var errBuildPanicked = fmt.Errorf("%w: a cache build panicked", ntgd.ErrInternal)

// get returns the value cached under key, calling build on a miss. A hit
// costs one map lookup and one LRU move under the lock.
func (c *cache[V]) get(ctx context.Context, key string, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.hits++
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.val, e.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	e := &entry[V]{key: key, ready: make(chan struct{}), err: errBuildPanicked}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.misses++
	c.builds++
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		if e.err == nil {
			e.built = true
			c.trimLocked(c.cap)
		} else {
			c.lru.Remove(e.elem)
			delete(c.entries, key)
		}
		c.mu.Unlock()
		close(e.ready)
	}()
	e.val, e.err = build()
	return e.val, e.err
}

// lookup returns the value built under key without building one: a hit
// moves the entry to the front, and a key that is absent or still
// building is a miss.
func (c *cache[V]) lookup(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.built {
		c.lru.MoveToFront(e.elem)
		c.hits++
		return e.val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// purge evicts every built entry, the memory-pressure brownout's soft
// response, and returns how many it evicted.
func (c *cache[V]) purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trimLocked(0)
}

// trimLocked evicts built entries, least recently used first, until at
// most n entries remain or only entries still building are left over.
func (c *cache[V]) trimLocked(n int) int {
	evicted := 0
	for elem := c.lru.Back(); elem != nil && c.lru.Len() > n; {
		prev := elem.Prev()
		if e := elem.Value.(*entry[V]); e.built {
			if c.evicted != nil {
				c.evicted(e.val)
			}
			c.lru.Remove(elem)
			delete(c.entries, e.key)
			evicted++
		}
		elem = prev
	}
	c.evictions += int64(evicted)
	return evicted
}

// stats snapshots the counters.
func (c *cache[V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Compiles:  c.builds,
	}
}

// withValues calls fn with the built values under the lock the eviction
// hook runs under, so what fn reads of the hook's state agrees with the
// values it is given.
func (c *cache[V]) withValues(fn func([]V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	vals := make([]V, 0, len(c.entries))
	for _, e := range c.entries {
		if e.built {
			vals = append(vals, e.val)
		}
	}
	fn(vals)
}
