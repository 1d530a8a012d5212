package expr

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/types"
)

func TestParseLiterals(t *testing.T) {
	cases := []struct {
		src  string
		want types.Value
	}{
		{"42", types.NewInt(42)},
		{"-42", types.NewInt(-42)},
		{"2.5", types.NewFloat(2.5)},
		{"-2.5", types.NewFloat(-2.5)},
		{"1e3", types.NewFloat(1000)},
		{"1.5e-2", types.NewFloat(0.015)},
		{"'hello'", types.NewText("hello")},
		{`"double"`, types.NewText("double")},
		{"'it''s'", types.NewText("it's")},
		{`'a\nb'`, types.NewText("a\nb")},
		{"true", types.NewBool(true)},
		{"FALSE", types.NewBool(false)},
		{"null", types.Null},
	}
	for _, c := range cases {
		n, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		lit, ok := n.(*Lit)
		if !ok {
			t.Errorf("Parse(%q) = %T, want literal", c.src, n)
			continue
		}
		if !lit.Val.Equal(c.want) {
			t.Errorf("Parse(%q) = %s, want %s", c.src, lit.Val, c.want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"1 + 2 * 3", "(1 + (2 * 3))"},
		{"(1 + 2) * 3", "((1 + 2) * 3)"},
		{"1 - 2 - 3", "((1 - 2) - 3)"}, // left assoc
		{"a and b or c", "((a and b) or c)"},
		{"not a and b", "((not a) and b)"},
		{"a < b and c >= d", "((a < b) and (c >= d))"},
		{"a || b || c", "((a || b) || c)"},
		{"x + 1 < y * 2", "((x + 1) < (y * 2))"},
		{"a % b * c", "((a % b) * c)"},
		{"-x + y", "(-(x) + y)"},
		{"a <> b", "(a != b)"},
	}
	for _, c := range cases {
		n, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := n.String(); got != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseCalls(t *testing.T) {
	n, err := Parse("max(a, b + 1, 3)")
	if err != nil {
		t.Fatal(err)
	}
	call, ok := n.(*Call)
	if !ok {
		t.Fatalf("got %T", n)
	}
	if call.Name != "max" || len(call.Args) != 3 {
		t.Fatalf("call = %s", call)
	}
	if _, err := Parse("f()"); err != nil {
		t.Errorf("empty arg list: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "1)", "'unterminated", "1 2",
		"a and", "f(1,", "@", "not", "* 3", "1..2",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("a + @")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("got %T: %v", err, err)
	}
	if se.Pos != 4 {
		t.Errorf("error at %d, want 4", se.Pos)
	}
	if !strings.Contains(se.Error(), "offset 4") {
		t.Errorf("error text: %v", se)
	}
}

func TestParseRoundTrip(t *testing.T) {
	// Printing an AST and reparsing must give the same AST (the program
	// store round-trips predicates as text).
	srcs := []string{
		"a + b * c - d / e % f",
		"(x < 3 or y >= 2) and not (z = 'q')",
		"substr(name, 0, 3) || '...'",
		"if(altitude > 100, 'high', 'low')",
		"year(obs_date) < 1990",
		"date(1990, 1, 1) + 30",
	}
	for _, src := range srcs {
		n1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		n2, err := Parse(n1.String())
		if err != nil {
			t.Fatalf("reparse of %q (%q): %v", src, n1.String(), err)
		}
		if n1.String() != n2.String() {
			t.Errorf("round trip changed: %q -> %q", n1.String(), n2.String())
		}
	}
}

func TestRefs(t *testing.T) {
	n := MustParse("a + b * a + f(c, a)")
	got := Refs(n)
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Refs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Refs = %v, want %v", got, want)
		}
	}
	if len(Refs(MustParse("1 + 2"))) != 0 {
		t.Error("literal expression has refs")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse("((")
}

// TestLiteralsPrintBack: floats keep float syntax and text keeps its
// backslashes, so printing and reparsing keeps every literal's kind and
// value (saved computed attributes are stored as printed text).
func TestLiteralsPrintBack(t *testing.T) {
	cases := []struct{ src, want string }{
		{"2.0", "2.0"},
		{"-0.0", "-0.0"},
		{"1e21", "1e+21"},
		{"1e-999", "0.0"},
		{"0.5", "0.5"},
		{`'\\'`, `'\\'`},
		{`'a\\x''s'`, `'a\\x''s'`},
		{"not a = b", "(not (a = b))"},
		{"(not a) = b", "((not a) = b)"},
	}
	for _, c := range cases {
		n, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		if got := n.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %s, want %s", c.src, got, c.want)
		}
		checkReparses(t, c.src, n)
	}
}

// TestParseBoundsDepth: deep nesting and long left-deep chains are
// syntax errors rather than stack overflows, while an expression right
// at the bound parses and prints back.
func TestParseBoundsDepth(t *testing.T) {
	const n = 1_000_000
	for name, src := range map[string]string{
		"nested groups": strings.Repeat("(", n) + "true" + strings.Repeat(")", n),
		"left chain":    "1" + strings.Repeat("+1", n),
		"not run":       strings.Repeat("not ", n) + "true",
		"minus run":     strings.Repeat("-", n) + "x",
	} {
		_, err := Parse(src)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%s: got %v, want a *SyntaxError", name, err)
		}
	}
	for name, src := range map[string]string{
		"nested groups": strings.Repeat("(", maxDepth-1) + "x" + strings.Repeat(")", maxDepth-1),
		"left chain":    "1" + strings.Repeat("+1", maxDepth-1),
		"calls":         strings.Repeat("abs(", maxDepth-1) + "x" + strings.Repeat(")", maxDepth-1),
	} {
		node, err := Parse(src)
		if err != nil {
			t.Fatalf("%s at the bound: %v", name, err)
		}
		checkReparses(t, name, node)
	}
}

// checkReparses asserts n prints to source that parses back to an equal
// AST. DeepEqual compares floats with ==, so the printed forms are
// compared too: they tell -0.0 from 0.0.
func checkReparses(t *testing.T, src string, n Node) {
	t.Helper()
	printed := n.String()
	n2, err := Parse(printed)
	if err != nil {
		t.Fatalf("%q printed as %q, which does not parse: %v", src, printed, err)
	}
	if !reflect.DeepEqual(n, n2) || n2.String() != printed {
		t.Fatalf("%q printed as %q, which parses to %s", src, printed, n2)
	}
}

// FuzzParse: no input panics, every failure is a *SyntaxError, and
// every success prints back to source that parses to an equal AST.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("Parse(%q): %T %v, want a *SyntaxError", src, err, err)
			}
			return
		}
		checkReparses(t, src, n)
	})
}
