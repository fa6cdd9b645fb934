// Package logic provides the first-order machinery underlying the whole
// library: terms (constants, labeled nulls, variables, function terms),
// atoms, literals, substitutions, homomorphisms, indexed fact stores,
// rules (normal, possibly disjunctive, tuple-generating dependencies) and
// queries. All higher-level packages (chase, grounding, the stable model
// engines) are built on top of it.
//
// Following the paper (Section 2), we work with three pairwise disjoint
// countably infinite sets of symbols: constants C (unique name
// assumption), labeled nulls N (placeholders for unknown values), and
// variables V. Function terms are additionally supported because the LP
// approach to stable model semantics (Section 3.1) introduces Skolem
// terms f(t1,...,tn).
package logic

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// TermKind discriminates the four kinds of terms.
type TermKind uint8

const (
	// Const is a constant from C. Different constants denote different
	// values (unique name assumption).
	Const TermKind = iota
	// Null is a labeled null from N, used as a placeholder for an
	// unknown value (invented by the chase and by the stable model
	// search to witness existential quantifiers).
	Null
	// Var is a variable from V, used in rules and queries.
	Var
	// Func is a function term f(t1,...,tn), produced by Skolemization.
	Func
)

func (k TermKind) String() string {
	switch k {
	case Const:
		return "const"
	case Null:
		return "null"
	case Var:
		return "var"
	case Func:
		return "func"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a constant, labeled null, variable, or function term. The zero
// value is the constant with the empty name and should not be used.
// Terms are immutable by convention: never mutate Args after creating a
// term.
type Term struct {
	Kind TermKind
	// Name is the constant symbol, null label, variable name, or
	// function symbol depending on Kind.
	Name string
	// Args holds the arguments of a function term; nil for the other
	// kinds.
	Args []Term
}

// C returns the constant with the given name.
func C(name string) Term { return Term{Kind: Const, Name: name} }

// N returns the labeled null with the given label.
func N(label string) Term { return Term{Kind: Null, Name: label} }

// V returns the variable with the given name.
func V(name string) Term { return Term{Kind: Var, Name: name} }

// F returns the function term fn(args...).
func F(fn string, args ...Term) Term { return Term{Kind: Func, Name: fn, Args: args} }

// IsGround reports whether the term contains no variables.
func (t Term) IsGround() bool {
	switch t.Kind {
	case Var:
		return false
	case Func:
		for _, a := range t.Args {
			if !a.IsGround() {
				return false
			}
		}
	}
	return true
}

// HasNull reports whether the term is a null or contains one.
func (t Term) HasNull() bool {
	switch t.Kind {
	case Null:
		return true
	case Func:
		for _, a := range t.Args {
			if a.HasNull() {
				return true
			}
		}
	}
	return false
}

// Equal reports whether two terms are syntactically identical.
func (t Term) Equal(u Term) bool {
	if t.Kind != u.Kind || t.Name != u.Name || len(t.Args) != len(u.Args) {
		return false
	}
	for i := range t.Args {
		if !t.Args[i].Equal(u.Args[i]) {
			return false
		}
	}
	return true
}

// String renders the term: constants and variables by name, nulls as
// _:label, function terms as f(args). A constant or function symbol
// that would not lex back as itself is quoted (see writeName).
func (t Term) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t Term) write(b *strings.Builder) {
	switch t.Kind {
	case Null:
		b.WriteString("_:")
		b.WriteString(t.Name)
	case Var:
		b.WriteString(t.Name)
	case Func:
		writeName(b, t.Name)
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			a.write(b)
		}
		b.WriteByte(')')
	default:
		writeName(b, t.Name)
	}
}

// writeName writes a constant, function or predicate symbol so that the
// parser reads it back as the same symbol: bare when it lexes as one
// identifier that is not a variable or the keyword not, and in double
// quotes otherwise. Quoting keeps the rendering of a parsed program
// injective, which the daemon's cache key depends on.
func writeName(b *strings.Builder, name string) {
	if plainName(name) {
		b.WriteString(name)
		return
	}
	b.WriteByte('"')
	b.WriteString(name)
	b.WriteByte('"')
}

// plainName reports whether name lexes back as itself unquoted: a run
// of digits and underscores starting with a digit, or a letter that is
// not upper case followed by letters, digits, underscores and
// apostrophes.
func plainName(name string) bool {
	if name == "" {
		return false
	}
	switch first := byteClasses[name[0]]; {
	case first&ByteConstStart != 0:
		for i := 1; i < len(name); i++ {
			if byteClasses[name[i]]&ByteNamePart == 0 {
				return false
			}
		}
		return name != "not"
	case first&ByteDigit != 0:
		for i := 1; i < len(name); i++ {
			if c := name[i]; byteClasses[c]&ByteDigit == 0 && c != '_' {
				return false
			}
		}
		return true
	}
	return false
}

// Byte classes of the surface syntax, which internal/parser's lexer
// reads and writeName inverts. The lexer reads each byte as a Latin-1
// rune, so a multi-byte UTF-8 letter lexes as whatever its bytes are.
const (
	ByteDigit      = 1 << iota // a decimal digit: starts a number
	ByteConstStart             // a letter not upper case: starts a constant or predicate name
	ByteVarStart               // an upper-case letter or underscore: starts a variable
	ByteNamePart               // a letter, digit, underscore or apostrophe: continues a name
)

// ByteClass returns the byte classes c belongs to.
func ByteClass(c byte) uint8 { return byteClasses[c] }

var byteClasses = func() (t [256]uint8) {
	for i := range t {
		r := rune(i)
		if unicode.IsDigit(r) {
			t[i] |= ByteDigit
		}
		if unicode.IsLetter(r) && !unicode.IsUpper(r) {
			t[i] |= ByteConstStart
		}
		if unicode.IsUpper(r) || r == '_' {
			t[i] |= ByteVarStart
		}
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\'' {
			t[i] |= ByteNamePart
		}
	}
	return t
}()

// Key returns a canonical string usable as a map key. Distinct terms
// have distinct keys (kind is encoded, so constant "x" and variable "x"
// differ).
func (t Term) Key() string {
	var b strings.Builder
	t.writeKey(&b)
	return b.String()
}

func (t Term) writeKey(b *strings.Builder) {
	switch t.Kind {
	case Const:
		b.WriteByte('c')
	case Null:
		b.WriteByte('n')
	case Var:
		b.WriteByte('v')
	case Func:
		b.WriteByte('f')
	}
	b.WriteString(t.Name)
	if t.Kind == Func {
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			a.writeKey(b)
		}
		b.WriteByte(')')
	}
}

// AppendKey appends the term's canonical key (see Key) to dst and
// returns the extended slice, for callers that assemble compound keys
// into a reused buffer without intermediate strings.
func (t Term) AppendKey(dst []byte) []byte {
	switch t.Kind {
	case Const:
		dst = append(dst, 'c')
	case Null:
		dst = append(dst, 'n')
	case Var:
		dst = append(dst, 'v')
	case Func:
		dst = append(dst, 'f')
	}
	dst = append(dst, t.Name...)
	if t.Kind == Func {
		dst = append(dst, '(')
		for i, a := range t.Args {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = a.AppendKey(dst)
		}
		dst = append(dst, ')')
	}
	return dst
}

// Depth returns the nesting depth of the term: 0 for constants, nulls
// and variables; 1 + max depth of arguments for function terms.
func (t Term) Depth() int {
	if t.Kind != Func {
		return 0
	}
	d := 0
	for _, a := range t.Args {
		if ad := a.Depth(); ad > d {
			d = ad
		}
	}
	return 1 + d
}

// Vars appends the names of all variables occurring in t to dst and
// returns the extended slice. Duplicates are preserved; use VarSet for a
// set.
func (t Term) Vars(dst []string) []string {
	switch t.Kind {
	case Var:
		dst = append(dst, t.Name)
	case Func:
		for _, a := range t.Args {
			dst = a.Vars(dst)
		}
	}
	return dst
}

// SortTerms sorts a slice of terms by their canonical keys, in place.
func SortTerms(ts []Term) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Key() < ts[j].Key() })
}
