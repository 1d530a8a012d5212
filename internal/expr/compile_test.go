package expr_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/types"
)

// The language has one meaning, Eval, and one compiled form: internal/rel
// compiles a predicate into chunk kernels, bitmap loops over a relation's
// typed column lanes, and evaluates the rows a kernel declines with the
// interpreter. These tests hold rel.Restrict, kernels on, to Eval itself:
// row by row over tupleEnv, which shares no code with rel, every row must
// be kept or dropped as EvalPredicate says, or fail with its error.

// tupleEnv is the interpreted side: an Env over one tuple of r, where a
// computed attribute evaluates its definition and a definition that fails
// reads as null.
type tupleEnv struct {
	r     *rel.Relation
	tuple []types.Value
}

func (e tupleEnv) AttrValue(name string) (types.Value, bool) {
	if i := e.r.Schema().Index(name); i >= 0 {
		return e.tuple[i], true
	}
	for _, c := range e.r.Computed() {
		if c.Name == name {
			v, err := expr.Eval(c.Expr, e)
			if err != nil {
				return types.Null, true
			}
			return v, true
		}
	}
	return types.Null, false
}

// fixture is a relation's columns and computed definitions, in order.
type fixture struct {
	cols  []rel.Column
	comps [][2]string
}

var compileCols = fixture{cols: []rel.Column{
	{Name: "x", Kind: types.Int}, {Name: "y", Kind: types.Int},
	{Name: "f", Kind: types.Float}, {Name: "g", Kind: types.Float},
	{Name: "s", Kind: types.Text}, {Name: "u", Kind: types.Text},
	{Name: "b", Kind: types.Bool}, {Name: "d", Kind: types.Date},
}}

func (fx fixture) relation(t *testing.T, tuples [][]types.Value) *rel.Relation {
	t.Helper()
	r := rel.New("T", rel.MustSchema(fx.cols...))
	for _, tu := range tuples {
		r.MustAppend(tu)
	}
	for _, c := range fx.comps {
		if err := r.AddComputed(c[0], expr.MustParse(c[1])); err != nil {
			t.Fatalf("computed %s = %s: %v", c[0], c[1], err)
		}
	}
	return r
}

// predicates turns src into the predicates that observe its value: a
// Bool both as it is and negated (which tells null from false), a number
// against zero three ways, a text against two literals, a date against
// one.
func predicates(t *testing.T, src string, scope expr.Scope) []expr.Node {
	t.Helper()
	k, err := expr.Check(expr.MustParse(src), scope)
	if err != nil {
		t.Fatalf("%q does not check: %v", src, err)
	}
	var forms []string
	switch k {
	case types.Int, types.Float:
		forms = []string{"(%s) > 0", "(%s) = 0", "(%s) < 0"}
	case types.Text:
		forms = []string{"(%s) = ''", "(%s) != 'a'"}
	case types.Date:
		forms = []string{"(%s) = date(1996, 5, 12)"}
	default:
		forms = []string{"%s", "not (%s)"}
	}
	preds := make([]expr.Node, len(forms))
	for i, f := range forms {
		preds[i] = expr.MustParse(fmt.Sprintf(f, src))
	}
	return preds
}

// checkAgree runs every predicate form of src over the tuples through
// Restrict with kernels on, and through EvalPredicate row by row. The two
// must keep the same rows; where a row fails, both must stop there with
// the same error, and the rows after it are checked again on their own.
func checkAgree(t *testing.T, fx fixture, src string, tuples [][]types.Value) {
	t.Helper()
	defer rel.SetCompileDisabled(rel.SetCompileDisabled(false))
	for _, pred := range predicates(t, src, fx.relation(t, nil)) {
		for rows := tuples; len(rows) > 0; {
			r := fx.relation(t, rows)
			var want []int
			var werr error
			var next [][]types.Value
			for i := 0; i < r.Len() && werr == nil; i++ {
				ok, err := expr.EvalPredicate(pred, tupleEnv{r: r, tuple: r.Tuple(i)})
				if err != nil {
					werr, next = err, rows[i+1:]
				} else if ok {
					want = append(want, i)
				}
			}
			out, gerr := rel.Restrict(r, pred)
			if werr != nil || gerr != nil {
				if werr == nil || gerr == nil || !strings.HasSuffix(gerr.Error(), werr.Error()) {
					t.Fatalf("%s over %v: interpreted err=%v, compiled err=%v", pred, rows, werr, gerr)
				}
			} else {
				got := make([]int, out.Len())
				for i := range got {
					_, got[i] = out.BaseRow(i)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s over %v: interpreted keeps rows %v, compiled %v", pred, rows, want, got)
				}
			}
			rows = next
		}
	}
}

// kernelScans counts the scans fn runs as kernels, so a test can tell
// that it compared compiled code and not the interpreter with itself.
func kernelScans(fn func()) int64 {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	before := obs.CounterValue(obs.RelKernelScans)
	fn()
	return obs.CounterValue(obs.RelKernelScans) - before
}

func compileTuple(x, y int64, f, g float64, s, u string, b bool, days int64) []types.Value {
	return []types.Value{
		types.NewInt(x), types.NewInt(y), types.NewFloat(f), types.NewFloat(g),
		types.NewText(s), types.NewText(u), types.NewBool(b), types.NewDate(days),
	}
}

func TestCompileMatchesEvalTable(t *testing.T) {
	tuples := [][]types.Value{
		compileTuple(10, 3, 2.5, -1.5, "abc", "b", true, 7500),
		compileTuple(-4, 0, 0.0, 3.25, "", "abc", false, 0),
		// Nulls in every column.
		{types.Null, types.Null, types.Null, types.Null, types.Null, types.Null, types.Null, types.Null},
	}
	srcs := []string{
		"x + y", "x - y", "x * y", "x / y", "x % y", "x + f", "f * g",
		"-x", "-f", "not b",
		"x < y", "x <= y", "x > y", "x >= y", "x = y", "x != y",
		"f < x", "f = 2.5", "s = u", "s < u", "s != u", "b = true",
		"d < date(1991, 1, 1)", "d = d",
		"s || u", "s || 'z'",
		"b and x > 5", "b or x > 5", "x > 5 and f < 3.0",
		"abs(x)", "pow(x, 2)", "if(b, x, y)", "len(s)", "substr(s, 1, 2)",
		"contains(s, u)", "str(x)", "int(f)", "float(x)",
		"1 + 2 * 3", "2.5 * 4.0", "'a' || 'b'", "true and false",
		"x / 0", "x % 0", "1 / 0 = 1 or x > 0",
		"if(x > 0, f, g) + 1.0",
	}
	scans := kernelScans(func() {
		for _, src := range srcs {
			checkAgree(t, compileCols, src, tuples)
		}
	})
	if scans == 0 {
		t.Fatal("no scan ran kernels")
	}
}

func TestCompileComputedAttr(t *testing.T) {
	fx := fixture{
		cols: []rel.Column{{Name: "x", Kind: types.Int}, {Name: "f", Kind: types.Float}},
		comps: [][2]string{
			{"twice", "x * 2"},
			{"ratio", "f / float(x)"},
			{"broken", "x / 0"}, // always errors: reads as null
		},
	}
	tuples := [][]types.Value{
		{types.NewInt(21), types.NewFloat(10.5)},
		{types.NewInt(0), types.NewFloat(1.0)},
		{types.Null, types.NewFloat(2.0)},
	}
	scans := kernelScans(func() {
		for _, src := range []string{
			"twice + 1", "ratio > 0.4", "twice * twice", "broken", "broken = 0",
		} {
			checkAgree(t, fx, src, tuples)
		}
	})
	if scans == 0 {
		t.Fatal("no scan ran kernels")
	}
}

// genKind builds a random expression of the requested static kind over
// the fixture columns — kind-directed because production always runs
// Check before Eval, so the interpreter's builtins may assume statically
// well-typed arguments. Runtime hazards stay in play: division and
// modulus by zero, nulls in any column, and the if-builtin returning a
// runtime Int where the static kind says Float.
func genKind(r *rand.Rand, depth int, k types.Kind) string {
	num := func(d int) string { // Int or Float operand
		if r.Intn(2) == 0 {
			return genKind(r, d, types.Int)
		}
		return genKind(r, d, types.Float)
	}
	if depth <= 0 || r.Intn(4) == 0 {
		switch k {
		case types.Int:
			if r.Intn(2) == 0 {
				return fmt.Sprintf("%d", r.Intn(11)-5)
			}
			return []string{"x", "y"}[r.Intn(2)]
		case types.Float:
			if r.Intn(2) == 0 {
				return fmt.Sprintf("%.2f", r.Float64()*10-5)
			}
			return []string{"f", "g"}[r.Intn(2)]
		case types.Text:
			return []string{"''", "'a'", "'abc'", "s", "u"}[r.Intn(5)]
		case types.Date:
			return "d"
		default:
			return []string{"true", "false", "b"}[r.Intn(3)]
		}
	}
	d := depth - 1
	switch k {
	case types.Int:
		switch r.Intn(5) {
		case 0:
			return fmt.Sprintf("(-%s)", genKind(r, d, types.Int))
		case 1:
			return fmt.Sprintf("abs(%s)", genKind(r, d, types.Int))
		case 2:
			return fmt.Sprintf("len(%s)", genKind(r, d, types.Text))
		case 3:
			return fmt.Sprintf("if(%s, %s, %s)",
				genKind(r, d, types.Bool), genKind(r, d, types.Int), genKind(r, d, types.Int))
		default:
			ops := []string{"+", "-", "*", "/", "%"}
			return fmt.Sprintf("(%s %s %s)",
				genKind(r, d, types.Int), ops[r.Intn(len(ops))], genKind(r, d, types.Int))
		}
	case types.Float:
		switch r.Intn(5) {
		case 0:
			return fmt.Sprintf("(-%s)", genKind(r, d, types.Float))
		case 1:
			return fmt.Sprintf("float(%s)", genKind(r, d, types.Int))
		case 2:
			// The specialization trap: statically Float, runtime Int when
			// the branches disagree.
			return fmt.Sprintf("if(%s, %s, %s)",
				genKind(r, d, types.Bool), genKind(r, d, types.Int), genKind(r, d, types.Float))
		default:
			ops := []string{"+", "-", "*", "/"}
			a, b := genKind(r, d, types.Float), num(d)
			if r.Intn(2) == 0 {
				a, b = b, a
			}
			return fmt.Sprintf("(%s %s %s)", a, ops[r.Intn(len(ops))], b)
		}
	case types.Text:
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("str(%s)", genKind(r, d, types.Int))
		case 1:
			return fmt.Sprintf("substr(%s, %d, %d)", genKind(r, d, types.Text), r.Intn(3), r.Intn(4))
		default:
			return fmt.Sprintf("(%s || %s)", genKind(r, d, types.Text), genKind(r, d, types.Text))
		}
	case types.Date:
		return "d"
	default: // Bool
		switch r.Intn(6) {
		case 0:
			return fmt.Sprintf("(not %s)", genKind(r, d, types.Bool))
		case 1:
			return fmt.Sprintf("contains(%s, %s)", genKind(r, d, types.Text), genKind(r, d, types.Text))
		case 2:
			ops := []string{"and", "or"}
			return fmt.Sprintf("(%s %s %s)",
				genKind(r, d, types.Bool), ops[r.Intn(2)], genKind(r, d, types.Bool))
		case 3:
			ops := []string{"=", "!="}
			pairs := [][2]string{
				{genKind(r, d, types.Text), genKind(r, d, types.Text)},
				{genKind(r, d, types.Bool), genKind(r, d, types.Bool)},
				{"d", "d"},
				{num(d), num(d)},
			}
			p := pairs[r.Intn(len(pairs))]
			return fmt.Sprintf("(%s %s %s)", p[0], ops[r.Intn(2)], p[1])
		default:
			ops := []string{"<", "<=", ">", ">="}
			if r.Intn(4) == 0 {
				return fmt.Sprintf("(%s %s %s)",
					genKind(r, d, types.Text), ops[r.Intn(4)], genKind(r, d, types.Text))
			}
			return fmt.Sprintf("(%s %s %s)", num(d), ops[r.Intn(4)], num(d))
		}
	}
}

func randKind(r *rand.Rand) types.Kind {
	return []types.Kind{types.Int, types.Float, types.Text, types.Bool}[r.Intn(4)]
}

// randTuples draws n tuples of random column values, with nulls mixed in.
func randTuples(r *rand.Rand, n int) [][]types.Value {
	tuples := make([][]types.Value, n)
	for i := range tuples {
		tu := compileTuple(
			int64(r.Intn(21)-10), int64(r.Intn(5)-2),
			r.Float64()*20-10, r.Float64()*4-2,
			[]string{"", "a", "abc", "zz"}[r.Intn(4)], []string{"", "a", "b"}[r.Intn(3)],
			r.Intn(2) == 0, int64(r.Intn(10000)))
		for j := range tu {
			if r.Intn(6) == 0 {
				tu[j] = types.Null
			}
		}
		tuples[i] = tu
	}
	return tuples
}

// TestCompileMatchesEvalRandom is the differential property test: for
// hundreds of random expressions, each over its own random tuples, the
// compiled kernels must agree with the tree-walking interpreter on every
// row's verdict and error.
func TestCompileMatchesEvalRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	scans := kernelScans(func() {
		for i := 0; i < 400; i++ {
			checkAgree(t, compileCols, genKind(r, 4, randKind(r)), randTuples(r, 25))
		}
	})
	if scans < 100 {
		t.Fatalf("only %d scans ran kernels: the generator no longer exercises them", scans)
	}
}

// Computed attributes join the random property: definitions themselves are
// random expressions, referenced by random outer expressions.
func TestCompileMatchesEvalRandomComputed(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	scans := kernelScans(func() {
		for i := 0; i < 100; i++ {
			dk := randKind(r)
			fx := fixture{cols: compileCols.cols, comps: [][2]string{{"c", genKind(r, 3, dk)}}}
			var op string
			switch dk {
			case types.Int, types.Float:
				op = []string{"+", "=", "<"}[r.Intn(3)]
			case types.Text:
				op = "||"
			default:
				op = "and"
			}
			checkAgree(t, fx, fmt.Sprintf("(c %s %s)", op, genKind(r, 2, dk)), randTuples(r, 20))
		}
	})
	if scans < 20 {
		t.Fatalf("only %d scans ran kernels: the generator no longer exercises them", scans)
	}
}
