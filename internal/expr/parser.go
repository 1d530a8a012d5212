package expr

import (
	"fmt"
	"strconv"

	"repro/internal/types"
)

// Parse compiles an expression string to its AST. The grammar, lowest to
// highest precedence:
//
//	or
//	and
//	not
//	comparison: = != < <= > >=   (non-associative)
//	||                           (string concatenation)
//	+ -
//	* / %
//	unary -
//	primary: literal | ident | ident(args) | (expr)
//
// An expression may nest at most maxDepth levels deep.
func Parse(src string) (Node, error) {
	p := &parser{lx: lexer{src: src}}
	p.advance()
	n, err := p.parseOr()
	if p.err != nil {
		// A lexical error ended the token stream early; it, not what the
		// parser made of the truncated stream, is the cause.
		return nil, p.err
	}
	if err != nil {
		return nil, err
	}
	if tok := p.peek(); tok.kind != tokEOF {
		return nil, p.errorf(tok.pos, "unexpected %s after expression", tok)
	}
	if deeper(n, maxDepth) {
		return nil, p.tooDeep()
	}
	return n, nil
}

// maxDepth bounds how deep an expression nests: the parser rejects a
// group or call argument, a run of prefix operators or a chain of
// binary operators that alone passes it, and then any AST taller than
// it. Evaluation, compilation and String recurse over the AST, so the
// bound keeps a hostile predicate from overflowing the stack, and the
// early checks keep a long one from building a huge AST first; real
// predicates are a few levels deep. String prints one group per level,
// so whatever Parse accepts, it accepts printed back.
const maxDepth = 1000

// deeper reports whether n is more than limit nodes deep, recursing at
// most limit levels.
func deeper(n Node, limit int) bool {
	if limit == 0 {
		return true
	}
	switch n := n.(type) {
	case *Unary:
		return deeper(n.X, limit-1)
	case *Binary:
		return deeper(n.L, limit-1) || deeper(n.R, limit-1)
	case *Call:
		for _, a := range n.Args {
			if deeper(a, limit-1) {
				return true
			}
		}
	}
	return false
}

// MustParse is Parse that panics on error, for tests and internal
// constants.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

// parser reads tokens from the lexer one at a time, with one token of
// lookahead, so a long input never holds a token slice.
type parser struct {
	lx    lexer
	tok   token // lookahead
	err   error // lexical error; the lookahead is then EOF
	depth int   // open parseOr calls
}

func (p *parser) advance() {
	p.tok, p.err = p.lx.next()
}

func (p *parser) peek() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.advance()
	}
	return t
}

func (p *parser) errorf(pos int, format string, args ...interface{}) error {
	return &SyntaxError{Src: p.lx.src, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) tooDeep() error {
	return p.errorf(p.peek().pos, "expression nested deeper than %d levels", maxDepth)
}

// accept consumes the lookahead when it is one of the given operators
// or keywords, and returns its text ("" when it is none of them).
func (p *parser) accept(texts ...string) string {
	t := p.peek()
	if t.kind != tokOp && t.kind != tokKeyword {
		return ""
	}
	for _, text := range texts {
		if t.text == text {
			p.next()
			return text
		}
	}
	return ""
}

// chain parses a left-associative level: operand (op operand)*.
func (p *parser) chain(operand func() (Node, error), ops ...string) (Node, error) {
	left, err := operand()
	if err != nil {
		return nil, err
	}
	for n := 1; ; n++ {
		op := p.accept(ops...)
		if op == "" {
			return left, nil
		}
		if n >= maxDepth {
			return nil, p.tooDeep()
		}
		right, err := operand()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseOr() (Node, error) {
	if p.depth++; p.depth > maxDepth {
		return nil, p.tooDeep()
	}
	defer func() { p.depth-- }()
	return p.chain(p.parseAnd, "or")
}

func (p *parser) parseAnd() (Node, error) { return p.chain(p.parseNot, "and") }

// parseNot and parseUnary loop over a run of prefix operators rather
// than recurse, so a long run costs no stack.
func (p *parser) parseNot() (Node, error) {
	nots := 0
	for p.accept("not") != "" {
		if nots++; nots >= maxDepth {
			return nil, p.tooDeep()
		}
	}
	x, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for ; nots > 0; nots-- {
		x = &Unary{Op: "not", X: x}
	}
	return x, nil
}

func (p *parser) parseComparison() (Node, error) {
	left, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	op := p.accept("<=", ">=", "!=", "=", "<", ">")
	if op == "" {
		return left, nil
	}
	right, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	return &Binary{Op: op, L: left, R: right}, nil
}

func (p *parser) parseConcat() (Node, error) { return p.chain(p.parseAdd, "||") }

func (p *parser) parseAdd() (Node, error) { return p.chain(p.parseMul, "+", "-") }

func (p *parser) parseMul() (Node, error) { return p.chain(p.parseUnary, "*", "/", "%") }

func (p *parser) parseUnary() (Node, error) {
	negs := 0
	for p.accept("-") != "" {
		if negs++; negs >= maxDepth {
			return nil, p.tooDeep()
		}
	}
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for ; negs > 0; negs-- {
		x = negate(x)
	}
	return x, nil
}

// negate applies unary minus, folded into numeric literals for cleaner
// ASTs.
func negate(x Node) Node {
	if lit, ok := x.(*Lit); ok {
		switch lit.Val.Kind() {
		case types.Int:
			return &Lit{Val: types.NewInt(-lit.Val.Int())}
		case types.Float:
			return &Lit{Val: types.NewFloat(-lit.Val.Float())}
		}
	}
	return &Unary{Op: "-", X: x}
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.next()
	switch t.kind {
	case tokInt:
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf(t.pos, "bad integer literal %s", t)
		}
		return &Lit{Val: types.NewInt(i)}, nil
	case tokFloat:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf(t.pos, "bad float literal %s", t)
		}
		return &Lit{Val: types.NewFloat(f)}, nil
	case tokString:
		return &Lit{Val: types.NewText(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "true":
			return &Lit{Val: types.NewBool(true)}, nil
		case "false":
			return &Lit{Val: types.NewBool(false)}, nil
		case "null":
			return &Lit{Val: types.Null}, nil
		}
		return nil, p.errorf(t.pos, "unexpected keyword %s", t)
	case tokIdent:
		if p.accept("(") != "" {
			return p.parseCall(t)
		}
		return &Ref{Name: t.text}, nil
	case tokOp:
		if t.text == "(" {
			inner, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if p.accept(")") == "" {
				return nil, p.errorf(p.peek().pos, "expected ) to close group")
			}
			return inner, nil
		}
	}
	return nil, p.errorf(t.pos, "unexpected %s", t)
}

func (p *parser) parseCall(name token) (Node, error) {
	call := &Call{Name: name.text}
	if p.accept(")") != "" {
		return call, nil
	}
	for {
		arg, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, arg)
		if p.accept(",") != "" {
			continue
		}
		if p.accept(")") != "" {
			return call, nil
		}
		return nil, p.errorf(p.peek().pos, "expected , or ) in call to %s", name.text)
	}
}
