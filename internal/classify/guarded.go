package classify

import (
	"ntgd/internal/logic"
)

// GuardOf returns a guard atom for the rule — a positive body atom
// containing every variable of the (whole) body — and whether one
// exists (Section 4.3: an NTGD is guarded if such an atom exists).
// Rules with empty bodies are trivially guarded.
func GuardOf(r *logic.Rule) (logic.Atom, bool) {
	need := r.BodyVars()
	if len(need) == 0 {
		if len(r.PosBody()) > 0 {
			return r.PosBody()[0], true
		}
		return logic.Atom{}, true
	}
	var buf []string
	for _, a := range r.PosBody() {
		buf = a.Vars(buf[:0])
		has := make(map[string]bool, len(buf))
		for _, v := range buf {
			has[v] = true
		}
		all := true
		for v := range need {
			if !has[v] {
				all = false
				break
			}
		}
		if all {
			return a, true
		}
	}
	return logic.Atom{}, false
}
