package expr

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Node is an expression AST node. Nodes are immutable after parsing, so a
// compiled expression can be shared by concurrent evaluations (the dataflow
// engine evaluates boxes lazily and may be asked for several viewers at
// once).
type Node interface {
	// String renders the node back to parsable source.
	String() string
	// walk calls f on this node and recursively on children.
	walk(f func(Node))
}

// Lit is a literal constant.
type Lit struct {
	Val types.Value
}

// String implements Node. Text is quoted with ' doubled and \ escaped,
// and a float keeps float syntax (2.0, -0.0, 1e+21), so the literal
// parses back to the same kind and value.
func (n *Lit) String() string {
	switch n.Val.Kind() {
	case types.Text:
		return "'" + textEscaper.Replace(n.Val.Text()) + "'"
	case types.Float:
		s := strconv.FormatFloat(n.Val.Float(), 'g', -1, 64)
		if !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return s
	}
	return n.Val.String()
}

var textEscaper = strings.NewReplacer(`\`, `\\`, "'", "''")

func (n *Lit) walk(f func(Node)) { f(n) }

// Ref is a reference to a tuple attribute by name (the paper's t.l
// notation; in expression source the tuple is implicit).
type Ref struct {
	Name string
}

// String implements Node.
func (n *Ref) String() string { return n.Name }

func (n *Ref) walk(f func(Node)) { f(n) }

// Unary is a prefix operator application: - or not.
type Unary struct {
	Op string
	X  Node
}

// String implements Node.
func (n *Unary) String() string {
	if n.Op == "not" {
		return fmt.Sprintf("(not %s)", n.X)
	}
	return fmt.Sprintf("%s(%s)", n.Op, n.X)
}

func (n *Unary) walk(f func(Node)) { f(n); n.X.walk(f) }

// Binary is an infix operator application.
type Binary struct {
	Op   string // + - * / % < <= > >= = != and or ||
	L, R Node
}

// String implements Node.
func (n *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", n.L, n.Op, n.R)
}

func (n *Binary) walk(f func(Node)) { f(n); n.L.walk(f); n.R.walk(f) }

// Call is a builtin function application.
type Call struct {
	Name string
	Args []Node
}

// String implements Node.
func (n *Call) String() string {
	parts := make([]string, len(n.Args))
	for i, a := range n.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", n.Name, strings.Join(parts, ", "))
}

func (n *Call) walk(f func(Node)) {
	f(n)
	for _, a := range n.Args {
		a.walk(f)
	}
}

// Refs returns the distinct attribute names an expression reads, in first-
// appearance order. The dataflow engine uses this for dependency checking
// (an attribute definition "may depend only on other attributes of the
// relation", Section 5.3) and the Apply Box matcher uses it to validate
// predicates against schemas.
func Refs(n Node) []string {
	seen := make(map[string]bool)
	var out []string
	n.walk(func(m Node) {
		if r, ok := m.(*Ref); ok && !seen[r.Name] {
			seen[r.Name] = true
			out = append(out, r.Name)
		}
	})
	return out
}
