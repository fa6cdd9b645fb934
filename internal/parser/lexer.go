// Package parser implements the surface syntax for NTGD programs,
// databases and normal conjunctive queries:
//
//	% comment (to end of line)
//	person(alice).                             % fact
//	person(X) -> hasFather(X,Y).               % NTGD (Y is existential)
//	hasFather(X,Y), not sameAs(X,Y) -> abnormal(X).
//	node(X) -> red(X) | green(X) | blue(X).    % disjunctive head
//	:- edge(X,Y), red(X), red(Y).              % integrity constraint
//	?- person(X), not abnormal(X).             % Boolean query
//	?-[X] person(X), not abnormal(X).          % query with answer vars
//
// Identifiers starting with a lowercase letter (or digits, or quoted
// strings) are constants / predicate symbols; identifiers starting with
// an uppercase letter or underscore are variables. Head variables that
// do not occur in the positive body are existentially quantified.
package parser

import (
	"fmt"
	"strings"

	"ntgd/internal/logic"
)

type tokenKind int

const (
	tokEOF            tokenKind = iota
	tokIdent                    // lowercase identifier, number, or quoted string (constant/predicate)
	tokVar                      // uppercase/underscore identifier (variable)
	tokNot                      // not
	tokLParen                   // (
	tokRParen                   // )
	tokLBracket                 // [
	tokRBracket                 // ]
	tokComma                    // ,
	tokDot                      // .
	tokPipe                     // |
	tokArrow                    // ->
	tokConstraintHead           // :-
	tokQuery                    // ?-
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokNot:
		return "'not'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokPipe:
		return "'|'"
	case tokArrow:
		return "'->'"
	case tokConstraintHead:
		return "':-'"
	case tokQuery:
		return "'?-'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errorf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '%':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// is reports whether byte c belongs to one of the logic.Byte* classes.
func is(c byte, classes uint8) bool { return logic.ByteClass(c)&classes != 0 }

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	c := l.peekByte()
	switch {
	case c == '(':
		l.advance()
		return token{tokLParen, "(", line, col}, nil
	case c == ')':
		l.advance()
		return token{tokRParen, ")", line, col}, nil
	case c == '[':
		l.advance()
		return token{tokLBracket, "[", line, col}, nil
	case c == ']':
		l.advance()
		return token{tokRBracket, "]", line, col}, nil
	case c == ',':
		l.advance()
		return token{tokComma, ",", line, col}, nil
	case c == '.':
		l.advance()
		return token{tokDot, ".", line, col}, nil
	case c == '|':
		l.advance()
		return token{tokPipe, "|", line, col}, nil
	case c == '-':
		l.advance()
		if l.peekByte() == '>' {
			l.advance()
			return token{tokArrow, "->", line, col}, nil
		}
		return token{}, l.errorf(line, col, "unexpected '-' (did you mean '->'?)")
	case c == ':':
		l.advance()
		if l.peekByte() == '-' {
			l.advance()
			return token{tokConstraintHead, ":-", line, col}, nil
		}
		return token{}, l.errorf(line, col, "unexpected ':' (did you mean ':-'?)")
	case c == '?':
		l.advance()
		if l.peekByte() == '-' {
			l.advance()
			return token{tokQuery, "?-", line, col}, nil
		}
		return token{}, l.errorf(line, col, "unexpected '?' (did you mean '?-'?)")
	case c == '"':
		l.advance()
		var b strings.Builder
		for l.pos < len(l.src) && l.peekByte() != '"' {
			b.WriteByte(l.advance())
		}
		if l.pos >= len(l.src) {
			return token{}, l.errorf(line, col, "unterminated string literal")
		}
		l.advance() // closing quote
		return token{tokIdent, b.String(), line, col}, nil
	case is(c, logic.ByteDigit):
		var b strings.Builder
		for l.pos < len(l.src) && (is(l.peekByte(), logic.ByteDigit) || l.peekByte() == '_') {
			b.WriteByte(l.advance())
		}
		return token{tokIdent, b.String(), line, col}, nil
	case is(c, logic.ByteConstStart|logic.ByteVarStart):
		var b strings.Builder
		for l.pos < len(l.src) && is(l.peekByte(), logic.ByteNamePart) {
			b.WriteByte(l.advance())
		}
		text := b.String()
		if text == "not" {
			return token{tokNot, text, line, col}, nil
		}
		if is(text[0], logic.ByteVarStart) {
			return token{tokVar, text, line, col}, nil
		}
		return token{tokIdent, text, line, col}, nil
	default:
		return token{}, l.errorf(line, col, "unexpected character %q", string(rune(c)))
	}
}
