package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"ntgd"
)

// The fact-base store behind POST /v1/db: clients upload a (possibly
// large) set of facts once, get back a content-addressed handle, and
// reference that handle from any number of solve/entails/answers/
// consistent/batch requests instead of re-sending the facts inline.
// Uploads are canonicalized (facts sorted and deduplicated) and hashed,
// so the handle is a pure function of the fact set: re-uploading the
// same facts — in any order, with any formatting — returns the same
// handle and reuses the already-loaded ntgd.Database, and racing
// identical uploads load it once. The Database is bulk-loaded and
// frozen at upload time; every program compiled against it layers a
// copy-on-write snapshot over the one shared, interned, indexed root.

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
	var b strings.Builder
	facts := canonical(p.Facts, ntgd.Atom.String, &b)
	return facts, b.String(), nil
}

// dbHandle is the content address of a canonical fact source.
func dbHandle(canonical string) string {
	h := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(h[:])
}

// doDB implements POST /v1/db.
func (s *Server) doDB(ctx context.Context, req *Request) (runResult, error) {
	if strings.TrimSpace(req.Facts) == "" {
		return runResult{}, badReqf("missing facts")
	}
	facts, canonical, err := canonicalFacts(req.Facts)
	if err != nil {
		return runResult{}, err
	}
	handle := dbHandle(canonical)
	// The load runs outside the cache's lock: bulk-loading a large base
	// must not stall requests resolving other handles.
	db, err := s.dbs.get(ctx, handle, func() (*ntgd.Database, error) {
		db := ntgd.NewDatabase()
		if err := db.AddFacts(facts...); err != nil {
			return nil, badReqf("%v", err)
		}
		db.Freeze()
		return db, nil
	})
	if err != nil {
		return runResult{}, err
	}
	return runResult{payload: DBResponse{Handle: handle, Facts: db.Len()}}, nil
}
