package ntgd

import (
	"fmt"
	"sync"

	"ntgd/internal/logic"
)

// Database is a bulk-loaded fact base shared across compiles. Build one
// with NewDatabase, load it with AddFacts (any number of calls, any
// batch size), and seal it with Freeze; compiling against it then costs
// O(1) per Solver — every Solver layers a copy-on-write snapshot over
// the same frozen root, so a large extensional database is interned,
// packed, and indexed exactly once no matter how many programs query
// it.
//
//	db := ntgd.NewDatabase()
//	if err := db.AddFacts(facts...); err != nil { ... }
//	db.Freeze()
//	s, err := ntgd.Compile(prog, ntgd.CompileOptions{Database: db})
//
// Compile freezes an unfrozen Database automatically, so the explicit
// Freeze call is only needed to front-load the bulk load (or to make
// later AddFacts calls fail fast). A frozen Database is immutable and
// safe for any number of concurrent Compile and query calls; the
// shared Symbols table keeps growing as programs intern new terms,
// which is safe by design (interning is monotonic and internally
// synchronized).
type Database struct {
	mu     sync.Mutex
	store  *logic.FactStore
	pend   []Atom
	frozen bool
}

// NewDatabase returns an empty fact base.
func NewDatabase() *Database {
	return &Database{store: logic.NewFactStore()}
}

// AddFacts appends facts to the pending batch. Facts must be ground
// and null-free (databases contain constants only, Section 2 of the
// paper). Nothing is interned until Freeze, so interleaving many small
// AddFacts calls stays cheap. AddFacts fails once the database is
// frozen.
func (d *Database) AddFacts(facts ...Atom) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frozen {
		return fmt.Errorf("ntgd: AddFacts on a frozen Database")
	}
	for i, f := range facts {
		if !f.IsGround() {
			return fmt.Errorf("ntgd: fact %d (%s): databases must be ground", i, f)
		}
		if f.HasNull() {
			return fmt.Errorf("ntgd: fact %d (%s): databases must not contain nulls", i, f)
		}
	}
	d.pend = append(d.pend, facts...)
	return nil
}

// Freeze bulk-loads every pending fact into the root store and seals
// the database; it returns the number of distinct facts the store now
// holds. Freeze is idempotent — further calls are no-ops.
func (d *Database) Freeze() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.freezeLocked()
}

func (d *Database) freezeLocked() int {
	if !d.frozen {
		d.store.AddAll(d.pend)
		d.pend = nil
		d.frozen = true
	}
	return d.store.Len()
}

// Len returns the number of distinct facts loaded so far: the frozen
// store's size plus the pending batch (an upper bound before Freeze,
// since pending duplicates collapse at load time).
func (d *Database) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frozen {
		return d.store.Len()
	}
	return d.store.Len() + len(d.pend)
}

// snapshot freezes (if needed) and returns a copy-on-write layer over
// the root store for one compiled program to own.
func (d *Database) snapshot() *FactStore {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.freezeLocked()
	return d.store.Snapshot()
}

// rootDatabase returns the compiled program's root database: with a
// pre-loaded Database, a snapshot of it carrying the program's own
// facts on its private layer; otherwise the program's facts as a fresh
// root of their own.
func rootDatabase(p *Program, opt CompileOptions) *FactStore {
	if opt.Database == nil {
		return p.Database()
	}
	db := opt.Database.snapshot()
	db.AddAll(p.Facts)
	return db
}
