package ntgd

import (
	"fmt"

	"ntgd/internal/chase"
	"ntgd/internal/classify"
	"ntgd/internal/core"
	"ntgd/internal/efwfs"
	"ntgd/internal/engine"
	"ntgd/internal/logic"
	"ntgd/internal/parser"
	"ntgd/internal/soformula"
	"ntgd/internal/transform"
)

// Re-exported building blocks. The internal packages carry the full
// APIs; the aliases below form the supported public surface.
type (
	// Program is a parsed set of rules, facts and queries.
	Program = logic.Program
	// Rule is an NTGD/NDTGD (or an integrity constraint).
	Rule = logic.Rule
	// Atom is an atomic formula.
	Atom = logic.Atom
	// Term is a constant, labeled null, variable or function term.
	Term = logic.Term
	// Query is a normal (Boolean) conjunctive query.
	Query = logic.Query
	// FactStore is a set of ground atoms (databases, models).
	FactStore = logic.FactStore
	// FactKey is a packed ground tuple: the interned predicate id
	// followed by the interned argument ids, 4 bytes each.
	FactKey = logic.FactKey
	// Options configures the stable model search (budget, witness
	// policy, extra constants).
	Options = core.Options
	// Result is a stable model enumeration outcome.
	Result = core.Result
	// QAResult is a query answering outcome.
	QAResult = core.QAResult
	// Stats is the uniform search-effort report shared by all three
	// semantics.
	Stats = core.Stats
	// AnswerTuple is one answer of an n-ary query.
	AnswerTuple = logic.AnswerTuple
	// Report is a syntactic classification report.
	Report = classify.Report
)

// The error taxonomy of the robustness layer: every terminal error an
// enumeration or query can surface matches exactly one of these under
// errors.Is (plus the caller's own context errors), so long-lived
// hosts dispatch on the class instead of parsing messages. In every
// case the partial Stats are preserved and the Solver stays reusable.
var (
	// ErrBudget is reported (alongside partial results) when a search
	// budget was hit; the enumeration may then be incomplete. All three
	// semantics report this same value.
	ErrBudget = engine.ErrBudget
	// ErrWallClock is reported when Options.MaxWallClock expired. It is
	// a budget: errors.Is(ErrWallClock, ErrBudget) holds.
	ErrWallClock = engine.ErrWallClock
	// ErrMemory is reported when Options.MaxMemory tripped: the run's
	// retained-allocation watermark — bytes of packed tuples added
	// across all branches plus stability-clause literals — grew past
	// the cap.
	ErrMemory = engine.ErrMemory
	// ErrAdmission is reported when Options.MaxConcurrentRuns kept a
	// run queued until its context ended. The context cause is wrapped:
	// errors.Is also matches context.Canceled/DeadlineExceeded.
	ErrAdmission = engine.ErrAdmission
	// ErrInternal marks a recovered engine panic, converted to a typed
	// error at the worker boundary with all workers joined; the
	// concrete *engine.InternalError carries the panic value and stack.
	ErrInternal = engine.ErrInternal
)

// Constructors re-exported for building programs programmatically.
var (
	// C constructs a constant term.
	C = logic.C
	// V constructs a variable term.
	V = logic.V
	// N constructs a labeled null.
	N = logic.N
	// A constructs an atom.
	A = logic.A
	// StoreOf builds a fact store from atoms.
	StoreOf = logic.StoreOf
)

// Parse parses a program in the surface syntax (see package doc).
func Parse(src string) (*Program, error) { return parser.Parse(src) }

// ParseFile parses the program in the named file.
func ParseFile(path string) (*Program, error) { return parser.ParseFile(path) }

// MustParse parses src and panics on error; intended for tests and
// examples.
func MustParse(src string) *Program { return parser.MustParse(src) }

// Semantics selects which stable model semantics interprets the
// program.
type Semantics int

const (
	// SO is the paper's new second-order-based semantics
	// (Definition 1), applied directly to rules with existentials.
	SO Semantics = iota
	// LP is the classical approach: Skolemize, ground, and use the
	// standard stable model semantics of normal logic programs
	// (Section 3.1).
	LP
	// Operational is the chase-based semantics of Baget et al. [3]:
	// existential variables are always witnessed by fresh nulls.
	Operational
)

func (s Semantics) String() string {
	switch s {
	case SO:
		return "so"
	case LP:
		return "lp"
	case Operational:
		return "operational"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// Mode selects cautious (certain) or brave (possible) reasoning.
type Mode int

const (
	// Cautious entailment: the query must hold in every stable model
	// (the paper's |=SMS).
	Cautious Mode = iota
	// Brave entailment: the query must hold in some stable model.
	Brave
)

func (m Mode) String() string {
	if m == Brave {
		return "brave"
	}
	return "cautious"
}

// IsStableModel checks Definition 1 for a candidate interpretation
// (given by its positive part).
func IsStableModel(p *Program, m *FactStore) bool {
	return core.IsStableModel(p.Database(), p.Rules, m)
}

// Classify computes the syntactic classification (weak-acyclicity,
// stickiness, guardedness) of the program's rules.
func Classify(p *Program) *Report { return classify.Classify(p.Rules) }

// Chase runs the restricted chase on the program's database and its
// (negation- and disjunction-free) rules.
func Chase(p *Program) (*FactStore, error) {
	res, err := chase.Run(p.Database(), p.Rules, chase.Options{})
	if err != nil {
		return nil, err
	}
	return res.Instance, nil
}

// SMFormula renders the second-order formula SM[D,Σ] of Section 3.3.
func SMFormula(p *Program) string { return soformula.SM(p.Database(), p.Rules) }

// MMFormula renders the circumscription formula MM[D,Σ] of
// Section 3.2.
func MMFormula(p *Program) string { return soformula.MM(p.Database(), p.Rules) }

// EliminateDisjunction applies the Lemma 13 construction, returning an
// equivalent disjunction-free program (database and rules).
func EliminateDisjunction(p *Program) (*Program, error) {
	out, err := transform.EliminateDisjunction(p.Database(), p.Rules)
	if err != nil {
		return nil, err
	}
	np := &Program{Rules: out.Rules, Queries: p.Queries}
	np.Facts = append(np.Facts, out.DB.Atoms()...)
	return np, nil
}

// DatalogToWATGD applies the Theorem 15/16 construction to a
// DATALOG¬,∨ program with the given answer predicate and arity; it
// returns the weakly-acyclic rules and the fresh answer predicate.
func DatalogToWATGD(rules []*Rule, queryPred string, arity int) ([]*Rule, string, error) {
	out, err := transform.DatalogToWATGD(transform.DatalogQuery{Rules: rules, QueryPred: queryPred}, arity)
	if err != nil {
		return nil, "", err
	}
	return out.Rules, out.QueryPred, nil
}

// EFWFSEntails checks a query under the bounded equality-friendly
// well-founded semantics of [21] (see internal/efwfs for the precise
// bounded family).
func EFWFSEntails(p *Program, q Query, freshConstants, maxInstances int) (bool, error) {
	v, err := efwfs.Entails(p.Database(), p.Rules, q, efwfs.Options{
		FreshConstants:            freshConstants,
		MaxInstancesPerAssignment: maxInstances,
	})
	if err != nil {
		return false, err
	}
	return v.Entailed, nil
}

// WitnessFreshOnly and WitnessAnyDomain re-export the witness
// policies for Options.
const (
	WitnessAnyDomain = core.WitnessAnyDomain
	WitnessFreshOnly = core.WitnessFreshOnly
)
