package logic

import (
	"sort"
	"strings"
)

// Atom is an atomic formula p(t1,...,tn). A 0-ary atom has empty Args.
type Atom struct {
	Pred string
	Args []Term
}

// A is a convenience constructor for atoms.
func A(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if !t.IsGround() {
			return false
		}
	}
	return true
}

// HasNull reports whether any argument is or contains a labeled null.
func (a Atom) HasNull() bool {
	for _, t := range a.Args {
		if t.HasNull() {
			return true
		}
	}
	return false
}

// Equal reports syntactic identity of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// Key returns a canonical string usable as a map key; distinct atoms
// have distinct keys.
func (a Atom) Key() string {
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('/')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		t.writeKey(&b)
	}
	return b.String()
}

// String renders the atom as p(t1,...,tn), or just p for 0-ary atoms,
// quoting symbols as Term.String does.
func (a Atom) String() string {
	if len(a.Args) == 0 && plainName(a.Pred) {
		return a.Pred
	}
	var b strings.Builder
	writeName(&b, a.Pred)
	if len(a.Args) == 0 {
		return b.String()
	}
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		t.write(&b)
	}
	b.WriteByte(')')
	return b.String()
}

// Vars appends the names of all variables occurring in the atom to dst.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		dst = t.Vars(dst)
	}
	return dst
}

// VarSet returns the set of variable names occurring in the given atoms.
func VarSet(atoms ...Atom) map[string]bool {
	set := make(map[string]bool)
	var buf []string
	for _, a := range atoms {
		buf = a.Vars(buf[:0])
		for _, v := range buf {
			set[v] = true
		}
	}
	return set
}

// Literal is an atom or a negated atom. Negation is default negation
// ("negation as failure"), written "not p(t)" in the surface syntax and
// ¬p(t) in the paper.
type Literal struct {
	Neg  bool
	Atom Atom
}

// Pos returns the positive literal for a.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Neg returns the negative literal for a.
func Neg(a Atom) Literal { return Literal{Neg: true, Atom: a} }

// String renders the literal, prefixing negative literals with "not ".
func (l Literal) String() string {
	if l.Neg {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// SplitLiterals partitions a literal list into positive and negative
// atoms, preserving order.
func SplitLiterals(lits []Literal) (pos, neg []Atom) {
	for _, l := range lits {
		if l.Neg {
			neg = append(neg, l.Atom)
		} else {
			pos = append(pos, l.Atom)
		}
	}
	return pos, neg
}

// AtomsString renders a list of atoms as a comma-separated conjunction.
func AtomsString(atoms []Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// SortAtoms sorts atoms by canonical key, in place, and returns the
// slice for convenience.
func SortAtoms(atoms []Atom) []Atom {
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].Key() < atoms[j].Key() })
	return atoms
}
