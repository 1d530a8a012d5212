package rel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// genCols names the attributes a generated expression may reference,
// by kind.
type genCols map[types.Kind][]string

// pick returns one of names, or lit when there are none or the coin
// says so.
func pick(r *rand.Rand, names []string, lit string) string {
	if len(names) == 0 || r.Intn(2) == 0 {
		return lit
	}
	return names[r.Intn(len(names))]
}

// genKind builds a random expression of the requested static kind over
// cols — kind-directed because every operator runs Check before
// evaluating, so the interpreter's builtins may assume statically
// well-typed arguments. Runtime hazards stay in play: division and
// modulus by zero, nulls and NaN in any column, and the if-builtin
// returning a runtime Int where the static kind says Float.
func genKind(r *rand.Rand, cols genCols, depth int, k types.Kind) string {
	num := func(d int) string { // Int or Float operand
		if r.Intn(2) == 0 {
			return genKind(r, cols, d, types.Int)
		}
		return genKind(r, cols, d, types.Float)
	}
	if depth <= 0 || r.Intn(4) == 0 {
		switch k {
		case types.Int:
			return pick(r, cols[types.Int], fmt.Sprintf("%d", r.Intn(11)-5))
		case types.Float:
			return pick(r, cols[types.Float], fmt.Sprintf("%.2f", r.Float64()*10-5))
		case types.Text:
			return pick(r, cols[types.Text], []string{"''", "'a'", "'abc'"}[r.Intn(3)])
		case types.Date:
			return pick(r, cols[types.Date], "date(1996, 5, 12)")
		default:
			return pick(r, cols[types.Bool], []string{"true", "false"}[r.Intn(2)])
		}
	}
	d := depth - 1
	switch k {
	case types.Int:
		switch r.Intn(5) {
		case 0:
			return fmt.Sprintf("(-%s)", genKind(r, cols, d, types.Int))
		case 1:
			return fmt.Sprintf("abs(%s)", genKind(r, cols, d, types.Int))
		case 2:
			return fmt.Sprintf("len(%s)", genKind(r, cols, d, types.Text))
		case 3:
			return fmt.Sprintf("if(%s, %s, %s)",
				genKind(r, cols, d, types.Bool), genKind(r, cols, d, types.Int), genKind(r, cols, d, types.Int))
		default:
			ops := []string{"+", "-", "*", "/", "%"}
			return fmt.Sprintf("(%s %s %s)",
				genKind(r, cols, d, types.Int), ops[r.Intn(len(ops))], genKind(r, cols, d, types.Int))
		}
	case types.Float:
		switch r.Intn(5) {
		case 0:
			return fmt.Sprintf("(-%s)", genKind(r, cols, d, types.Float))
		case 1:
			return fmt.Sprintf("float(%s)", genKind(r, cols, d, types.Int))
		case 2:
			// The specialization trap: statically Float, runtime Int when
			// the branches disagree.
			return fmt.Sprintf("if(%s, %s, %s)",
				genKind(r, cols, d, types.Bool), genKind(r, cols, d, types.Int), genKind(r, cols, d, types.Float))
		default:
			ops := []string{"+", "-", "*", "/"}
			a, b := genKind(r, cols, d, types.Float), num(d)
			if r.Intn(2) == 0 {
				a, b = b, a
			}
			return fmt.Sprintf("(%s %s %s)", a, ops[r.Intn(len(ops))], b)
		}
	case types.Text:
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("str(%s)", genKind(r, cols, d, types.Int))
		case 1:
			return fmt.Sprintf("substr(%s, %d, %d)", genKind(r, cols, d, types.Text), r.Intn(3), r.Intn(4))
		default:
			return fmt.Sprintf("(%s || %s)", genKind(r, cols, d, types.Text), genKind(r, cols, d, types.Text))
		}
	case types.Date:
		return genKind(r, cols, 0, types.Date)
	default: // Bool
		switch r.Intn(6) {
		case 0:
			return fmt.Sprintf("(not %s)", genKind(r, cols, d, types.Bool))
		case 1:
			return fmt.Sprintf("contains(%s, %s)", genKind(r, cols, d, types.Text), genKind(r, cols, d, types.Text))
		case 2:
			ops := []string{"and", "or"}
			return fmt.Sprintf("(%s %s %s)",
				genKind(r, cols, d, types.Bool), ops[r.Intn(2)], genKind(r, cols, d, types.Bool))
		case 3:
			ops := []string{"=", "!="}
			pairs := [][2]string{
				{genKind(r, cols, d, types.Text), genKind(r, cols, d, types.Text)},
				{genKind(r, cols, d, types.Bool), genKind(r, cols, d, types.Bool)},
				{genKind(r, cols, d, types.Date), genKind(r, cols, d, types.Date)},
				{num(d), num(d)},
			}
			p := pairs[r.Intn(len(pairs))]
			return fmt.Sprintf("(%s %s %s)", p[0], ops[r.Intn(2)], p[1])
		default:
			ops := []string{"<", "<=", ">", ">="}
			if r.Intn(4) == 0 {
				return fmt.Sprintf("(%s %s %s)",
					genKind(r, cols, d, types.Text), ops[r.Intn(4)], genKind(r, cols, d, types.Text))
			}
			return fmt.Sprintf("(%s %s %s)", num(d), ops[r.Intn(4)], num(d))
		}
	}
}

func randKind(r *rand.Rand) types.Kind {
	return []types.Kind{types.Int, types.Float, types.Text, types.Bool}[r.Intn(4)]
}

// randTuple draws random values for a relation's columns: small ints
// and floats (so divisors are often zero), a few texts, NaN now and
// then, and nulls mixed into every column.
func randTuple(r *rand.Rand, schema *Schema) []types.Value {
	tu := make([]types.Value, schema.Len())
	for i := range tu {
		switch schema.Col(i).Kind {
		case types.Int:
			tu[i] = types.NewInt(int64(r.Intn(21) - 10))
		case types.Float:
			f := r.Float64()*4 - 2
			if r.Intn(20) == 0 {
				f = math.NaN()
			}
			tu[i] = types.NewFloat(f)
		case types.Text:
			tu[i] = types.NewText([]string{"", "a", "abc", "zz"}[r.Intn(4)])
		case types.Bool:
			tu[i] = types.NewBool(r.Intn(2) == 0)
		case types.Date:
			tu[i] = types.NewDate(int64(r.Intn(10000)))
		}
		if r.Intn(6) == 0 {
			tu[i] = types.Null
		}
	}
	return tu
}

// randRelation builds n random rows over the given columns and adds
// computed attributes with random definitions, each over the stored
// columns and the computed attributes before it. It returns the
// relation and every attribute it offers, by kind.
func randRelation(t *testing.T, r *rand.Rand, name string, n, computed int, cols ...Column) (*Relation, genCols) {
	t.Helper()
	rel := New(name, MustSchema(cols...))
	for i := 0; i < n; i++ {
		rel.MustAppend(randTuple(r, rel.schema))
	}
	attrs := genCols{}
	for _, c := range cols {
		attrs[c.Kind] = append(attrs[c.Kind], c.Name)
	}
	for i := 0; i < computed; i++ {
		name := fmt.Sprintf("%s_c%d", name, i)
		def := expr.MustParse(genKind(r, attrs, 3, randKind(r)))
		if err := rel.AddComputed(name, def); err != nil {
			t.Fatalf("computed %s = %s: %v", name, def, err)
		}
		k, _ := rel.AttrKind(name)
		attrs[k] = append(attrs[k], name)
	}
	return rel, attrs
}

// asPredicate turns an expression into a predicate over scope: a Bool
// stays as it is, other kinds are compared against a literal of their
// kind.
func asPredicate(t *testing.T, src string, scope expr.Scope) expr.Node {
	t.Helper()
	n := expr.MustParse(src)
	k, err := expr.Check(n, scope)
	if err != nil {
		t.Fatalf("generated %q does not check: %v", src, err)
	}
	switch k {
	case types.Int, types.Float:
		return expr.MustParse(fmt.Sprintf("(%s) > 0", src))
	case types.Text:
		return expr.MustParse(fmt.Sprintf("(%s) != 'a'", src))
	case types.Date:
		return expr.MustParse(fmt.Sprintf("(%s) = date(1996, 5, 12)", src))
	}
	return n
}

// sameOutcome fails unless the kernel run and the interpreter run gave
// the same relation — tuples and provenance — or the same error.
func sameOutcome(t *testing.T, what string, got *Relation, gerr error, want *Relation, werr error) {
	t.Helper()
	if (gerr != nil) != (werr != nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s:\n  kernels     err=%v\n  interpreter err=%v", what, gerr, werr)
	}
	if gerr == nil && relFingerprint(t, got) != relFingerprint(t, want) {
		t.Fatalf("%s: kernels and interpreter keep different tuples", what)
	}
}

// bothWays runs op with kernels on and then under SetCompileDisabled,
// and holds the two outcomes equal.
func bothWays(t *testing.T, what string, op func() (*Relation, error)) {
	t.Helper()
	got, gerr := op()
	var want *Relation
	var werr error
	withInterpreter(t, func() { want, werr = op() })
	sameOutcome(t, what, got, gerr, want, werr)
}

// differentialTable is a hand-written corpus run before the random
// expressions: every operator family, constants, short circuits and
// zero divisors.
var differentialTable = []string{
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

// TestRandomExprsMatchInterpreter is the differential property test of
// the two evaluators: for random well-typed predicates over relations
// with nulls, NaN, zero divisors and random computed attributes, below
// and above the chunk size, Restrict, a restrict/restrict/project chain,
// Partition, MapColumn (over the source and over a selection) and Join
// under both strategies return the same tuples, or the same first error,
// with kernels on as under SetCompileDisabled.
func TestRandomExprsMatchInterpreter(t *testing.T) {
	prevObs := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)
	rng := rand.New(rand.NewSource(42))
	kernelsBefore := obs.CounterValue(obs.RelKernelScans)
	for _, size := range []struct {
		rows, right, exprs int
		table              []string
	}{
		{300, 30, 120, differentialTable},
		{DefaultChunkRows + 300, 6, 16, nil},
	} {
		// The right side's names differ from the left's, so a join
		// predicate reads both sides without renames.
		l, lcols := randRelation(t, rng, "l", size.rows, 3,
			Column{Name: "x", Kind: types.Int}, Column{Name: "y", Kind: types.Int},
			Column{Name: "f", Kind: types.Float}, Column{Name: "g", Kind: types.Float},
			Column{Name: "s", Kind: types.Text}, Column{Name: "u", Kind: types.Text},
			Column{Name: "b", Kind: types.Bool}, Column{Name: "d", Kind: types.Date})
		r, rcols := randRelation(t, rng, "r", size.right, 1,
			Column{Name: "k", Kind: types.Int}, Column{Name: "v", Kind: types.Float},
			Column{Name: "w", Kind: types.Text})
		both := genCols{}
		for _, cols := range []genCols{lcols, rcols} {
			for k, names := range cols {
				both[k] = append(both[k], names...)
			}
		}
		joined, _, err := joinShape(l, r)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(size.table)+size.exprs; i++ {
			var src, jsrc string
			if i < len(size.table) {
				src, jsrc = size.table[i], size.table[i]
			} else {
				src = genKind(rng, lcols, 4, randKind(rng))
				jsrc = genKind(rng, both, 4, randKind(rng))
			}
			pred := asPredicate(t, src, l)
			what := fmt.Sprintf("%d rows, %s", size.rows, pred)
			bothWays(t, "restrict "+what, func() (*Relation, error) { return Restrict(l, pred) })

			second := asPredicate(t, genKind(rng, lcols, 3, types.Bool), l)
			ops := []FusedOp{{Pred: pred}, {Pred: second}, {Project: []string{"x", "f", "s"}}}
			bothWays(t, fmt.Sprintf("chain %s; %s", what, second), func() (*Relation, error) {
				return runChain(l, ops)
			})
			for part := 0; part < 2; part++ {
				bothWays(t, fmt.Sprintf("partition %d %s; %s", part, what, second), func() (*Relation, error) {
					parts, err := Partition(l, []expr.Node{pred, second})
					if err != nil {
						return nil, err
					}
					return parts[part], nil
				})
			}
			def := expr.MustParse(genKind(rng, lcols, 4, randKind(rng)))
			bothWays(t, fmt.Sprintf("map column %s", def), func() (*Relation, error) {
				return MapColumn(l, "x", def)
			})
			bothWays(t, fmt.Sprintf("map column %s over %s", def, second), func() (*Relation, error) {
				sel, err := Restrict(l, second)
				if err != nil {
					return nil, err
				}
				return MapColumn(sel, "y", def)
			})

			jpred := expr.MustParse(fmt.Sprintf("x = k and %s", asPredicate(t, jsrc, joined)))
			for _, strat := range []JoinStrategy{JoinHash, JoinNestedLoop} {
				bothWays(t, fmt.Sprintf("join %d %d rows, %s", strat, size.rows, jpred), func() (*Relation, error) {
					return Join(l, r, jpred, strat)
				})
			}
		}
	}
	kernels := obs.CounterValue(obs.RelKernelScans) - kernelsBefore
	t.Logf("%d scans ran kernels", kernels)
	if kernels < 100 {
		t.Fatalf("only %d scans ran kernels: the generator no longer exercises them", kernels)
	}
}

// TestKernelConstantFolding: kernels fold constant subtrees once per
// scan, and a folded error surfaces only where the interpreter raises
// it — at the first row that evaluates it, never over a relation, or a
// join, with no rows to evaluate.
func TestKernelConstantFolding(t *testing.T) {
	r := kernelRelation(t, DefaultChunkRows+10)
	empty := New("E", r.schema)
	empty.computed = r.computed
	dim := New("D", MustSchema(Column{Name: "k", Kind: types.Int}))
	noDim := New("D", dim.schema)
	for k := 0; k < 5; k++ {
		dim.MustAppend([]types.Value{types.NewInt(int64(k))})
	}
	for _, src := range []string{
		"a > 1 + 2 * 3", "1 + 2 * 3 = 7", "2.5 * 4.0 > x",
		"1 / 0 = 1 or a > 0", "a > 1 / 0", "a > 0 or 1 / 0 = 1",
	} {
		pred := expr.MustParse(src)
		jpred := expr.MustParse("id = k and " + src)
		bothWays(t, "restrict "+src, func() (*Relation, error) { return Restrict(r, pred) })
		bothWays(t, "join "+src, func() (*Relation, error) { return Join(r, dim, jpred, JoinHash) })
		if out, err := Restrict(empty, pred); err != nil || out.Len() != 0 {
			t.Fatalf("restrict %q over no rows: %v", src, err)
		}
		if out, err := Join(r, noDim, jpred, JoinNestedLoop); err != nil || out.Len() != 0 {
			t.Fatalf("join %q over no pairs: %v", src, err)
		}
	}
}
