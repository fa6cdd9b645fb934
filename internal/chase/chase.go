// Package chase implements the chase procedure for (negation-free,
// non-disjunctive) TGDs: the restricted (standard) chase, which applies
// a trigger only when its head is not already satisfied, and the
// oblivious chase, which applies every trigger once. The chase is the
// classical tool the paper builds on: Lemma 8 bounds the immediate
// consequence operator by the size of an induced chase sequence, the
// weakly-acyclic termination argument of Fagin et al. underlies
// Theorem 3, and the operational stable model semantics of Baget et al.
// (discussed in the introduction) is a chase whose TGD applications are
// blocked by negative literals.
package chase

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"ntgd/internal/engine"
	"ntgd/internal/failpoint"
	"ntgd/internal/logic"
)

// Variant selects the chase flavour.
type Variant int

const (
	// Restricted applies a trigger only if no extension of the body
	// homomorphism satisfies the head (the paper's footnote 4: "the
	// standard (a.k.a. the restricted) version of the chase, where a
	// TGD is being applied only if it is necessary").
	Restricted Variant = iota
	// Oblivious applies every trigger exactly once, inventing fresh
	// nulls regardless of head satisfaction. It terminates on weakly
	// acyclic sets and its result size upper-bounds every restricted
	// chase sequence, which is how the stable model engine derives its
	// default search budget.
	Oblivious
)

func (v Variant) String() string {
	if v == Oblivious {
		return "oblivious"
	}
	return "restricted"
}

// ErrBudget is returned when the chase exceeds its atom or round
// budget before reaching a fixpoint (e.g. on non-terminating inputs).
// It matches engine.ErrBudget under errors.Is.
var ErrBudget = fmt.Errorf("chase: atom/round budget exhausted before fixpoint (%w)", engine.ErrBudget)

// Options configures a chase run. The zero value uses the restricted
// chase with generous defaults.
type Options struct {
	Variant Variant
	// MaxAtoms aborts the chase when the instance grows beyond this
	// many atoms (0 = 1<<20).
	MaxAtoms int
	// MaxRounds aborts after this many breadth-first rounds (0 = 1<<20).
	MaxRounds int
	// NullPrefix names invented nulls ("<prefix><counter>"); default "n".
	NullPrefix string
}

// Result is the outcome of a chase run.
type Result struct {
	// Instance is the chased instance (database plus derived atoms).
	Instance *logic.FactStore
	// Rounds is the number of breadth-first rounds executed.
	Rounds int
	// Applications is the number of trigger applications.
	Applications int
	// NullsInvented is the number of fresh labeled nulls created.
	NullsInvented int
}

// Run chases the database with the given TGDs. Rules must be
// negation-free and non-disjunctive; constraints are rejected too.
// ErrBudget is returned (with the partial instance) when the budget is
// exhausted.
//
// Trigger detection is semi-naive: after the first round, each rule's
// body homomorphisms are seeded from the delta of atoms added in the
// previous round (logic.FindHomsFrom), so a round costs O(new facts)
// instead of re-deriving every trigger from the whole instance. This
// is sound because the instance only grows: a trigger whose body lies
// entirely in old atoms was already detected (and either applied or
// head-satisfied, which is monotone) in an earlier round. runNaive
// keeps the recompute-everything loop as the differential-test oracle.
func Run(db *logic.FactStore, rules []*logic.Rule, opt Options) (*Result, error) {
	return RunCtx(context.Background(), db, rules, opt)
}

// RunCtx is Run with cancellation: the chase checks ctx between rounds
// and periodically between trigger applications, returning ctx.Err()
// alongside the partial instance when the context is cancelled or its
// deadline expires.
func RunCtx(ctx context.Context, db *logic.FactStore, rules []*logic.Rule, opt Options) (*Result, error) {
	for _, r := range rules {
		if !r.IsTGD() {
			return nil, fmt.Errorf("chase: rule %s is not a plain TGD (negation or disjunction present)", r.Label)
		}
	}
	if opt.MaxAtoms <= 0 {
		opt.MaxAtoms = 1 << 20
	}
	if opt.MaxRounds <= 0 {
		opt.MaxRounds = 1 << 20
	}
	if opt.NullPrefix == "" {
		opt.NullPrefix = "n"
	}

	res := &Result{Instance: db.Clone()}
	inst := res.Instance
	nullCtr := 0
	from := 0 // delta low-water mark: atoms ≥ from are new

	// Each rule is compiled once: the delta sweeps of every round reuse
	// the body's greedy selectivity order instead of re-planning per
	// call (see logic.BodyPlans), and a trigger's ids pre-bind the
	// head's frontier for the restricted check and build its atoms'
	// packed keys (see logic.RulePlans).
	plans := make([]*logic.RulePlans, len(rules))
	for i, r := range rules {
		plans[i] = logic.CompileRule(r, true)
	}
	var sc logic.Scratch
	var vals []uint32
	var kb []byte

	// No "already fired" bookkeeping is needed for the oblivious
	// variant here: the delta windows of successive rounds partition
	// the store, so FindHomsFrom detects every (rule, homomorphism)
	// trigger exactly once across the whole run — in the round whose
	// delta contains the trigger's newest body atom. (runNaive, which
	// re-detects everything each round, keeps the applied map.)
	for res.Rounds = 0; res.Rounds < opt.MaxRounds; res.Rounds++ {
		failpoint.Inject(failpoint.ChaseRound)
		if err := ctx.Err(); err != nil {
			return res, err
		}
		type trigger struct {
			rule int
			ids  []uint32 // the body homomorphism over plans[rule].Vars
		}
		var triggers []trigger
		for i := range rules {
			ri := i
			plans[i].Body.FindHomsFrom(&sc, inst, from, nil, func(m *logic.Match) bool {
				if opt.Variant == Restricted && plans[ri].Heads[0].Exists(&sc, inst, m.IDs()) {
					return true // head satisfied: not a (restricted) trigger
				}
				triggers = append(triggers, trigger{ri, append([]uint32(nil), m.IDs()...)})
				return true
			})
		}
		if len(triggers) == 0 {
			return res, nil
		}
		from = inst.Len()
		for _, t := range triggers {
			if res.Applications&63 == 0 {
				if err := ctx.Err(); err != nil {
					return res, err
				}
			}
			// Another application this round may have satisfied it.
			if opt.Variant == Restricted && plans[t.rule].Heads[0].Exists(&sc, inst, t.ids) {
				continue
			}
			vals = append(vals[:0], t.ids...)
			for range plans[t.rule].Exist[0] {
				nullCtr++
				res.NullsInvented++
				vals = append(vals, inst.Symbols().Intern(logic.N(opt.NullPrefix+strconv.Itoa(nullCtr))))
			}
			for k := range rules[t.rule].Heads[0] {
				key, _ := plans[t.rule].Heads[0].AppendKey(inst, kb[:0], k, vals, true)
				kb = key[:0]
				inst.AddKey(key)
			}
			res.Applications++
			if inst.Len() > opt.MaxAtoms {
				return res, ErrBudget
			}
		}
	}
	return res, ErrBudget
}

func triggerKey(r *logic.Rule, h logic.Subst) string {
	return r.Label + "|" + h.String()
}

// runNaive is the pre-semi-naive round loop kept as the
// differential-test oracle: every round re-derives all triggers from
// the whole instance. It detects the same trigger set per round as Run
// but may enumerate it in a different order, so results agree up to
// homomorphic equivalence (null renaming), not syntactically.
func runNaive(db *logic.FactStore, rules []*logic.Rule, opt Options) (*Result, error) {
	for _, r := range rules {
		if !r.IsTGD() {
			return nil, fmt.Errorf("chase: rule %s is not a plain TGD (negation or disjunction present)", r.Label)
		}
	}
	if opt.MaxAtoms <= 0 {
		opt.MaxAtoms = 1 << 20
	}
	if opt.MaxRounds <= 0 {
		opt.MaxRounds = 1 << 20
	}
	if opt.NullPrefix == "" {
		opt.NullPrefix = "n"
	}

	res := &Result{Instance: db.Clone()}
	inst := res.Instance
	nullCtr := 0
	applied := make(map[string]bool)

	for res.Rounds = 0; res.Rounds < opt.MaxRounds; res.Rounds++ {
		type trigger struct {
			rule *logic.Rule
			hom  logic.Subst
		}
		var triggers []trigger
		for _, r := range rules {
			rule := r
			logic.FindHoms(rule.PosBody(), nil, inst, logic.Subst{}, func(h logic.Subst) bool {
				switch opt.Variant {
				case Restricted:
					if logic.ExistsHom(rule.Heads[0], nil, inst, h) {
						return true
					}
				case Oblivious:
					if applied[triggerKey(rule, h)] {
						return true
					}
				}
				triggers = append(triggers, trigger{rule, h.Clone()})
				return true
			})
		}
		if len(triggers) == 0 {
			return res, nil
		}
		for _, t := range triggers {
			if opt.Variant == Restricted {
				if logic.ExistsHom(t.rule.Heads[0], nil, inst, t.hom) {
					continue
				}
			} else {
				key := triggerKey(t.rule, t.hom)
				if applied[key] {
					continue
				}
				applied[key] = true
			}
			mu := t.hom.Clone()
			for _, z := range t.rule.ExistVars(0) {
				nullCtr++
				res.NullsInvented++
				mu[z] = logic.N(opt.NullPrefix + strconv.Itoa(nullCtr))
			}
			for _, a := range t.rule.Heads[0] {
				inst.Add(mu.ApplyAtom(a))
			}
			res.Applications++
			if inst.Len() > opt.MaxAtoms {
				return res, ErrBudget
			}
		}
	}
	return res, ErrBudget
}

// CertainBCQ answers a Boolean conjunctive query under (positive) TGDs
// by chasing and evaluating the query over the (universal) result:
// (D,Σ) |= q iff q maps homomorphically into the chase. The query must
// be negation-free (certain answers under TGDs are defined for CQs).
func CertainBCQ(db *logic.FactStore, rules []*logic.Rule, q logic.Query, opt Options) (bool, error) {
	if len(q.Neg) != 0 {
		return false, fmt.Errorf("chase: CertainBCQ requires a negation-free query")
	}
	res, err := Run(db, rules, opt)
	if err != nil {
		return false, err
	}
	return logic.ExistsHom(q.Pos, nil, res.Instance, logic.Subst{}), nil
}

// BudgetForStableSearchCtx returns an atom budget for the stable model
// search of a weakly-acyclic set Σ: the size of the oblivious chase of
// Σ⁺ over the database extended with the query constants, doubled,
// with a floor of 64. Proposition 9 guarantees that every stable
// model's positive part is bounded by the size of an induced chase
// sequence of Σ⁺, which the oblivious chase dominates. For
// non-weakly-acyclic inputs the oblivious chase itself may not
// terminate; the internal budget then caps it and the returned bound is
// that cap, as it is when ctx is cancelled mid-probe (the caller's own
// context check then aborts promptly). The engine itself probes once
// per compiled program through ProbeStableSearch and bounds derived
// atoms instead.
func BudgetForStableSearchCtx(ctx context.Context, db *logic.FactStore, rules []*logic.Rule, extraConsts []logic.Term, cap int) int {
	if cap <= 0 {
		cap = 1 << 14
	}
	size, err := ProbeStableSearch(ctx, db, rules, extraConsts, cap)
	if err != nil {
		return cap
	}
	return min(max(2*size, 64), cap)
}

// ProbeStableSearch runs the budget probe of the stable model search:
// the oblivious chase of Σ⁺ (negation stripped, disjuncts merged into
// one head, constraints dropped) over the database plus one $qconst
// atom per extra constant, which no rule body can match. It returns the
// chased instance's size, or ErrBudget once the instance exceeds
// maxAtoms (0 = unbounded) and ctx.Err() when ctx ends first. Because
// the $qconst atoms join nothing, the size with extras is exactly the
// size without them plus len(extraConsts).
func ProbeStableSearch(ctx context.Context, db *logic.FactStore, rules []*logic.Rule, extraConsts []logic.Term, maxAtoms int) (int, error) {
	positive := make([]*logic.Rule, 0, len(rules))
	for _, r := range rules {
		if r.IsConstraint() {
			continue
		}
		// Strip negation; merge disjuncts into one head (Σ⁺,∧), which
		// over-approximates every disjunct choice.
		pr := &logic.Rule{Label: r.Label + "+"}
		for _, l := range r.Body {
			if !l.Neg {
				pr.Body = append(pr.Body, l)
			}
		}
		var head []logic.Atom
		for _, d := range r.Heads {
			head = append(head, d...)
		}
		pr.Heads = [][]logic.Atom{head}
		positive = append(positive, pr)
	}
	// A copy-on-write snapshot: the budget probe must not write into the
	// caller's database, but deep-copying it per search was Clone's main
	// cost in the stable-model engine's setup path.
	ext := db.Snapshot()
	for i, c := range extraConsts {
		// Seed the domain with query constants via a throwaway
		// predicate so body homomorphisms cannot pick them up, but the
		// instance size accounting sees them.
		ext.Add(logic.A(fmt.Sprintf("$qconst%d", i), c))
	}
	if maxAtoms <= 0 {
		maxAtoms = math.MaxInt
	}
	res, err := RunCtx(ctx, ext, positive, Options{Variant: Oblivious, MaxAtoms: maxAtoms, NullPrefix: "b"})
	if err != nil {
		return 0, err
	}
	return res.Instance.Len(), nil
}
