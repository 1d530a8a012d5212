// Package expr implements the expression sublanguage of the Tioga-2
// substrate. Restrict predicates, Join predicates, Add/Set Attribute
// definitions, and Replicate partition predicates are all written in this
// language (the paper's "general query language" for attribute
// definitions, Section 5.3). It is a small typed expression language over
// the attributes of a tuple: arithmetic, comparisons, boolean connectives,
// string concatenation, a conditional, and a registry of builtin functions.
package expr

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokInt
	tokFloat
	tokString
	tokIdent
	tokOp      // punctuation operator: + - * / % ( ) , < <= etc.
	tokKeyword // and or not true false null
)

var keywords = map[string]bool{
	"and": true, "or": true, "not": true,
	"true": true, "false": true, "null": true,
}

// token is one lexical unit with its source position (byte offset) for
// error reporting.
type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of expression"
	}
	return fmt.Sprintf("%q", t.text)
}

// SyntaxError describes a lexical or parse failure with its position in the
// source expression.
type SyntaxError struct {
	Src string
	Pos int
	Msg string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("expr: %s at offset %d in %q", e.Msg, e.Pos, e.Src)
}

// lexer scans an expression string into tokens, one per next call.
type lexer struct {
	src string
	pos int
}

func (l *lexer) errorf(pos int, format string, args ...interface{}) error {
	return &SyntaxError{Src: l.src, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\n' || l.src[l.pos] == '\r') {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]

	switch {
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.lexNumber()
	case c == '\'' || c == '"':
		return l.lexString(c)
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		word := l.src[start:l.pos]
		if keywords[strings.ToLower(word)] {
			return token{kind: tokKeyword, text: strings.ToLower(word), pos: start}, nil
		}
		return token{kind: tokIdent, text: word, pos: start}, nil
	}

	// Multi-character operators first.
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "!=", "<>", "||":
		l.pos += 2
		if two == "<>" {
			two = "!="
		}
		return token{kind: tokOp, text: two, pos: start}, nil
	}
	switch c {
	case '+', '-', '*', '/', '%', '(', ')', ',', '<', '>', '=':
		l.pos++
		return token{kind: tokOp, text: string(c), pos: start}, nil
	}
	return token{}, l.errorf(start, "unexpected character %q", string(c))
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
			if l.pos >= len(l.src) || !isDigit(l.src[l.pos]) {
				return token{}, l.errorf(l.pos, "malformed exponent")
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	if seenDot || seenExp {
		return token{kind: tokFloat, text: text, pos: start}, nil
	}
	return token{kind: tokInt, text: text, pos: start}, nil
}

func (l *lexer) lexString(quote byte) (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			// Doubled quote is an escaped quote, SQL style.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				sb.WriteByte(quote)
				l.pos += 2
				continue
			}
			l.pos++
			return token{kind: tokString, text: sb.String(), pos: start}, nil
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			switch l.src[l.pos] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\':
				sb.WriteByte('\\')
			case quote:
				sb.WriteByte(quote)
			default:
				sb.WriteByte(l.src[l.pos])
			}
			l.pos++
			continue
		}
		sb.WriteByte(c)
		l.pos++
	}
	return token{}, l.errorf(start, "unterminated string literal")
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
