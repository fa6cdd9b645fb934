package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"sync"

	"ntgd"
)

// The fact-base store behind POST /v1/db: clients upload a (possibly
// large) set of facts once, get back a content-addressed handle, and
// reference that handle from any number of solve/entails/answers/
// consistent/batch requests instead of re-sending the facts inline.
// Uploads are canonicalized (facts sorted and deduplicated) and hashed,
// so the handle is a pure function of the fact set: re-uploading the
// same facts — in any order, with any formatting — returns the same
// handle and reuses the already-loaded ntgd.Database. The Database is
// bulk-loaded and frozen at upload time; every program compiled against
// it layers a copy-on-write snapshot over the one shared, interned,
// indexed root.

// canonicalFacts parses a facts-only source and returns the sorted,
// deduplicated fact set plus the canonical source it is hashed by.
func canonicalFacts(src string) ([]ntgd.Atom, string, error) {
	p, err := ntgd.Parse(src)
	if err != nil {
		return nil, "", badReqf("parsing facts: %v", err)
	}
	if len(p.Rules) > 0 || len(p.Queries) > 0 {
		return nil, "", badReqf("db upload must contain facts only (no rules or queries)")
	}
	facts := make([]ntgd.Atom, len(p.Facts))
	copy(facts, p.Facts)
	sort.Slice(facts, func(i, j int) bool { return facts[i].String() < facts[j].String() })
	facts = dedupBy(facts, func(a ntgd.Atom) string { return a.String() })
	var b strings.Builder
	for _, f := range facts {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	return facts, b.String(), nil
}

// dbHandle is the content address of a canonical fact source.
func dbHandle(canonical string) string {
	h := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(h[:])
}

// dbCache holds uploaded fact bases, handle-keyed and LRU-bounded.
// Unlike the program cache there is no single-flight: racing uploads of
// the same fact set each build a Database and the first insert wins —
// uploads are idempotent, so the losers' work is merely discarded.
type dbCache struct {
	cap int

	mu      sync.Mutex
	entries map[string]*dbEntry
	lru     *list.List // front = most recently used; values *dbEntry

	hits, misses, evictions, uploads int64
}

type dbEntry struct {
	handle string
	elem   *list.Element
	db     *ntgd.Database
	facts  int
}

func newDBCache(capacity int) *dbCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &dbCache{
		cap:     capacity,
		entries: make(map[string]*dbEntry),
		lru:     list.New(),
	}
}

// put canonicalizes, loads, and caches a fact base, returning its
// handle and distinct-fact count. Re-uploading an already-cached fact
// set refreshes its LRU position without rebuilding anything.
func (c *dbCache) put(src string) (string, int, error) {
	facts, canonical, err := canonicalFacts(src)
	if err != nil {
		return "", 0, err
	}
	handle := dbHandle(canonical)

	c.mu.Lock()
	if e, ok := c.entries[handle]; ok {
		c.lru.MoveToFront(e.elem)
		c.uploads++
		c.mu.Unlock()
		return handle, e.facts, nil
	}
	c.mu.Unlock()

	// Build outside the lock: bulk-loading a large base must not stall
	// readers resolving other handles.
	db := ntgd.NewDatabase()
	if err := db.AddFacts(facts...); err != nil {
		return "", 0, badReqf("%v", err)
	}
	n := db.Freeze()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.uploads++
	if e, ok := c.entries[handle]; ok {
		// Lost the race to an identical upload; theirs is as good.
		c.lru.MoveToFront(e.elem)
		return handle, e.facts, nil
	}
	e := &dbEntry{handle: handle, db: db, facts: n}
	e.elem = c.lru.PushFront(e)
	c.entries[handle] = e
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		ev := back.Value.(*dbEntry)
		c.lru.Remove(back)
		delete(c.entries, ev.handle)
		c.evictions++
	}
	return handle, n, nil
}

// get resolves a handle to its Database, or nil when unknown (never
// uploaded, or evicted — the client must re-upload).
func (c *dbCache) get(handle string) *ntgd.Database {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[handle]
	if !ok {
		c.misses++
		return nil
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	return e.db
}

// purge evicts every cached fact base (the memory-pressure brownout's
// soft response). Clients holding evicted handles see 404 and
// re-upload once pressure subsides. Returns the number evicted.
func (c *dbCache) purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	c.evictions += int64(n)
	c.entries = make(map[string]*dbEntry)
	c.lru.Init()
	return n
}

// stats snapshots the fact-base cache counters (Compiles counts
// uploads, including idempotent re-uploads).
func (c *dbCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Compiles:  c.uploads,
	}
}

// doDB implements POST /v1/db.
func (s *Server) doDB(ctx context.Context, req *Request) (runResult, error) {
	if strings.TrimSpace(req.Facts) == "" {
		return runResult{}, badReqf("missing facts")
	}
	handle, n, err := s.dbs.put(req.Facts)
	if err != nil {
		return runResult{}, err
	}
	return runResult{payload: DBResponse{Handle: handle, Facts: n}}, nil
}
