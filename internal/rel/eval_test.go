package rel

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// relFingerprint flattens a relation — schema, computed defs, tuples, and
// per-row provenance — for exact equality checks across execution modes.
func relFingerprint(t testing.TB, r *Relation) string {
	t.Helper()
	var out strings.Builder
	out.WriteString(r.schema.String() + "|")
	for _, c := range r.computed {
		fmt.Fprintf(&out, "%s=%s:%s;", c.Name, c.Expr, c.Kind)
	}
	out.WriteString("|")
	for i := 0; i < r.Len(); i++ {
		base, row := r.BaseRow(i)
		fmt.Fprintf(&out, "%v@%s[%d];", r.Tuple(i), base.Name(), row)
	}
	return out.String()
}

// withInterpreter runs fn with kernel compilation disabled, so every row
// interprets, restoring the knob afterwards.
func withInterpreter(t testing.TB, fn func()) {
	t.Helper()
	prev := SetCompileDisabled(true)
	defer SetCompileDisabled(prev)
	fn()
}

// bigRelation builds n rows with nulls sprinkled in, plus computed
// attributes, so kernel and interpreted scans cover the full value
// space.
func bigRelation(t testing.TB, n int) *Relation {
	t.Helper()
	r := New("Big", MustSchema(
		Column{Name: "id", Kind: types.Int},
		Column{Name: "grp", Kind: types.Int},
		Column{Name: "val", Kind: types.Float},
		Column{Name: "tag", Kind: types.Text},
	))
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < n; i++ {
		tu := []types.Value{
			types.NewInt(int64(i)),
			types.NewInt(int64(rng.Intn(7))),
			types.NewFloat(rng.Float64()*100 - 50),
			types.NewText([]string{"a", "bb", "ccc", ""}[rng.Intn(4)]),
		}
		if rng.Intn(11) == 0 {
			tu[rng.Intn(3)+1] = types.Null
		}
		r.MustAppend(tu)
	}
	if err := r.AddComputed("score", expr.MustParse("val * 2.0 + float(grp)")); err != nil {
		t.Fatal(err)
	}
	return r
}

var differentialPreds = []string{
	"id % 3 = 0 and val > -10.0",
	"score > 0.0 or tag = 'bb'",
	"grp < 4 and len(tag) >= 2",
	"val * val > 100.0",
	"contains(tag, 'c') or id < 10",
}

func TestRestrictCompiledMatchesInterpreted(t *testing.T) {
	r := bigRelation(t, 500)
	for _, src := range differentialPreds {
		pred := expr.MustParse(src)
		compiled, err := Restrict(r, pred)
		if err != nil {
			t.Fatalf("compiled restrict %q: %v", src, err)
		}
		var interpreted *Relation
		withInterpreter(t, func() {
			interpreted, err = Restrict(r, pred)
		})
		if err != nil {
			t.Fatalf("interpreted restrict %q: %v", src, err)
		}
		if got, want := relFingerprint(t, compiled), relFingerprint(t, interpreted); got != want {
			t.Errorf("restrict %q differs:\n  compiled    %.120s\n  interpreted %.120s", src, got, want)
		}
	}
}

// MapColumn and Partition interpret every row with kernels on and off;
// these two pin that the switch leaves them unchanged.
func TestMapColumnCompiledMatchesInterpreted(t *testing.T) {
	r := bigRelation(t, 300)
	for _, src := range []string{"val * 2.0", "val + float(id % 5)", "score / 3.0"} {
		def := expr.MustParse(src)
		compiled, err := MapColumn(r, "val", def)
		if err != nil {
			t.Fatalf("compiled map %q: %v", src, err)
		}
		var interpreted *Relation
		withInterpreter(t, func() {
			interpreted, err = MapColumn(r, "val", def)
		})
		if err != nil {
			t.Fatalf("interpreted map %q: %v", src, err)
		}
		if got, want := relFingerprint(t, compiled), relFingerprint(t, interpreted); got != want {
			t.Errorf("map %q differs", src)
		}
	}
}

func TestPartitionCompiledMatchesInterpreted(t *testing.T) {
	r := bigRelation(t, 400)
	preds := []expr.Node{
		expr.MustParse("grp = 0"),
		expr.MustParse("val < 0.0"),
		expr.MustParse("id % 2 = 0"),
	}
	compiled, err := Partition(r, preds)
	if err != nil {
		t.Fatal(err)
	}
	var interpreted []*Relation
	withInterpreter(t, func() {
		interpreted, err = Partition(r, preds)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(compiled) != len(interpreted) {
		t.Fatalf("partition counts differ: %d vs %d", len(compiled), len(interpreted))
	}
	for i := range compiled {
		if relFingerprint(t, compiled[i]) != relFingerprint(t, interpreted[i]) {
			t.Errorf("partition %d differs", i)
		}
	}
}

// TestJoinResidualCompiledMatchesInterpreted: the join predicate beyond
// its hash key, run over candidate pairs by kernels, keeps exactly the
// pairs the interpreter keeps, under both strategies.
func TestJoinResidualCompiledMatchesInterpreted(t *testing.T) {
	l := bigRelation(t, 120)
	r := New("Dept", MustSchema(
		Column{Name: "did", Kind: types.Int},
		Column{Name: "bonus", Kind: types.Float},
	))
	for i := 0; i < 7; i++ {
		r.MustAppend([]types.Value{types.NewInt(int64(i)), types.NewFloat(float64(i) * 1500)})
	}
	pred := expr.MustParse("grp = did and val > bonus / 1000.0")
	for _, strat := range []JoinStrategy{JoinHash, JoinNestedLoop} {
		compiled, err := Join(l, r, pred, strat)
		if err != nil {
			t.Fatal(err)
		}
		var interpreted *Relation
		withInterpreter(t, func() {
			interpreted, err = Join(l, r, pred, strat)
		})
		if err != nil {
			t.Fatal(err)
		}
		if relFingerprint(t, compiled) != relFingerprint(t, interpreted) {
			t.Errorf("join strategy %d differs compiled vs interpreted", strat)
		}
	}
}

// runChain applies ops through Restrict and Project in order: the chain
// a restrict/project program fires box by box, each step a view of the
// source's chunks.
func runChain(r *Relation, ops []FusedOp) (*Relation, error) {
	for _, op := range ops {
		var err error
		if op.Pred != nil {
			r, err = Restrict(r, op.Pred)
		} else {
			r, err = Project(r, op.Project)
		}
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// refChain runs ops through the row-by-row reference of view_test.go.
func refChain(t testing.TB, r *Relation, ops []FusedOp) string {
	t.Helper()
	f := refSource(r)
	for _, op := range ops {
		s := viewStep{kind: "project", names: op.Project}
		if op.Pred != nil {
			s = viewStep{kind: "restrict", preds: []expr.Node{op.Pred}}
		}
		var err error
		if f, err = s.ref(f); err != nil {
			t.Fatal(err)
		}
	}
	return viewFingerprint(f.r, func(i int) (string, int) { return f.base[i], f.rows[i] })
}

// chainFingerprint is viewFingerprint over a relation's own provenance.
func chainFingerprint(r *Relation) string {
	return viewFingerprint(r, func(i int) (string, int) {
		base, row := r.BaseRow(i)
		return base.Name(), row
	})
}

// A restrict/project chain — selections and column maps over the
// source's chunks, which a fused scan once computed in one pass — keeps
// the schema, computed attributes, tuples and provenance of a reference
// that materializes every step row by row, with any scan-worker count
// and under the interpreter.
func TestFusedScanMatchesChain(t *testing.T) {
	r := bigRelation(t, 2*DefaultChunkRows+600)
	ops := []FusedOp{
		{Pred: expr.MustParse("val > -25.0")},
		{Project: []string{"id", "grp", "val"}},
		{Pred: expr.MustParse("id % 2 = 0 and grp != 3")},
	}
	want := refChain(t, r, ops)
	for _, workers := range []int{1, 4} {
		prev := SetScanWorkers(workers)
		got, err := runChain(r, ops)
		SetScanWorkers(prev)
		if err != nil {
			t.Fatalf("chain (workers=%d): %v", workers, err)
		}
		if chainFingerprint(got) != want {
			t.Errorf("chain (workers=%d) differs from the reference", workers)
		}
	}
	withInterpreter(t, func() {
		got, err := runChain(r, ops)
		if err != nil {
			t.Fatal(err)
		}
		if chainFingerprint(got) != want {
			t.Error("interpreted chain differs from the reference")
		}
	})
}

// Randomized chain property: random restrict/project pipelines over
// random relations match the row-by-row reference exactly.
func TestFusedScanMatchesChainRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	preds := append([]string{}, differentialPreds...)
	projects := [][]string{
		{"id", "grp", "val", "tag"},
		{"id", "val", "grp"},
		{"val", "id"},
	}
	for trial := 0; trial < 30; trial++ {
		r := bigRelation(t, 100+rng.Intn(200))
		var ops []FusedOp
		steps := 1 + rng.Intn(4)
		cols := map[string]bool{"id": true, "grp": true, "val": true, "tag": true}
		for s := 0; s < steps; s++ {
			if rng.Intn(3) == 0 {
				// Project to a subset that still exists at this point.
				var pick []string
				for _, p := range projects[rng.Intn(len(projects))] {
					if cols[p] {
						pick = append(pick, p)
					}
				}
				if len(pick) == 0 {
					continue
				}
				ops = append(ops, FusedOp{Project: pick})
				cols = map[string]bool{}
				for _, p := range pick {
					cols[p] = true
				}
			} else {
				// Pick a predicate over columns that survived so far.
				var src string
				switch {
				case cols["val"] && cols["grp"] && cols["tag"]:
					src = preds[rng.Intn(len(preds))]
				case cols["val"]:
					src = "val * val > 100.0"
				default:
					src = "id < 150"
				}
				ops = append(ops, FusedOp{Pred: expr.MustParse(src)})
			}
		}
		if len(ops) == 0 {
			continue
		}
		prev := SetScanWorkers(1 + rng.Intn(4))
		got, err := runChain(r, ops)
		SetScanWorkers(prev)
		if err != nil {
			t.Fatalf("trial %d chain: %v", trial, err)
		}
		if chainFingerprint(got) != refChain(t, r, ops) {
			t.Fatalf("trial %d: chain differs from the reference (%d ops)", trial, len(ops))
		}
	}
}

// A chain fails at the step that fails, with that step's own error: a
// bad predicate at step 1 is its check error, a runtime failure at step 0
// the restrict's evaluation error.
func TestFusedScanStepErrors(t *testing.T) {
	r := bigRelation(t, 50)
	ok, err := Restrict(r, expr.MustParse("val > 0.0"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Restrict(ok, expr.MustParse("nope = 1"))
	_, chainErr := runChain(r, []FusedOp{
		{Pred: expr.MustParse("val > 0.0")},
		{Pred: expr.MustParse("nope = 1")},
	})
	if err == nil || chainErr == nil || chainErr.Error() != err.Error() {
		t.Fatalf("bad predicate at step 1: chain error %v, want %v", chainErr, err)
	}
	_, err = runChain(r, []FusedOp{
		{Pred: expr.MustParse("id / (id - id) > 0")},
		{Project: []string{"id"}},
	})
	var ee *expr.EvalError
	if err == nil || !errors.As(err, &ee) || !strings.HasPrefix(err.Error(), "rel: restrict: ") {
		t.Fatalf("runtime error %v not the step 0 restrict's evaluation error", err)
	}
}

// Parallel scans must be byte-deterministic: many workers over an input
// above the chunk threshold produce exactly the serial output, run after
// run.
func TestParallelScanDeterminism(t *testing.T) {
	r := bigRelation(t, 3*DefaultScanThreshold)
	pred := expr.MustParse("score > 0.0 and id % 7 != 2")

	serial, err := Restrict(r, pred)
	if err != nil {
		t.Fatal(err)
	}
	want := relFingerprint(t, serial)

	prevW := SetScanWorkers(8)
	defer SetScanWorkers(prevW)
	for i := 0; i < 5; i++ {
		par, err := Restrict(r, pred)
		if err != nil {
			t.Fatal(err)
		}
		if got := relFingerprint(t, par); got != want {
			t.Fatalf("parallel restrict run %d differs from serial", i)
		}
		mc, err := MapColumn(r, "val", expr.MustParse("val * 3.0"))
		if err != nil {
			t.Fatal(err)
		}
		mcs := relFingerprint(t, mc)
		ops := []FusedOp{{Pred: pred}, {Project: []string{"id", "val"}}, {Pred: expr.MustParse("id % 5 != 1")}}
		res, err := runChain(r, ops)
		if err != nil {
			t.Fatal(err)
		}
		fs := relFingerprint(t, res)
		if i == 0 {
			t.Logf("rows: restrict=%d map=%d chain=%d", par.Len(), mc.Len(), res.Len())
		}
		for j := 0; j < 2; j++ {
			mc2, _ := MapColumn(r, "val", expr.MustParse("val * 3.0"))
			if relFingerprint(t, mc2) != mcs {
				t.Fatal("parallel map column nondeterministic")
			}
			res2, _ := runChain(r, ops)
			if relFingerprint(t, res2) != fs {
				t.Fatal("parallel chain nondeterministic")
			}
		}
	}
}

// Parallel error determinism: the error surfaced must be the one the
// serial scan hits first, regardless of worker count.
func TestParallelScanErrorDeterminism(t *testing.T) {
	r := New("E", MustSchema(Column{Name: "a", Kind: types.Int}))
	for i := 0; i < 10000; i++ {
		r.MustAppend([]types.Value{types.NewInt(int64(i))})
	}
	// Fails for every a >= 7000: first failing row is 7000 in serial
	// order, well past the first of eight chunks.
	pred := expr.MustParse("if(a < 7000, 1, a / 0) = 1")

	_, serialErr := Restrict(r, pred)
	if serialErr == nil {
		t.Fatal("expected serial error")
	}
	prevW := SetScanWorkers(8)
	defer SetScanWorkers(prevW)
	for i := 0; i < 4; i++ {
		_, parErr := Restrict(r, pred)
		if parErr == nil {
			t.Fatal("expected parallel error")
		}
		if parErr.Error() != serialErr.Error() {
			t.Fatalf("parallel error %q differs from serial %q", parErr, serialErr)
		}
	}
}

// The scan-worker setting bounds every scan of a chain, the chunk scan
// of a source and the block scan of a selection alike: with one worker
// none dispatches parallel chunks.
func TestFusedScanWorkersBoundGather(t *testing.T) {
	r := bigRelation(t, 3*DefaultScanThreshold)
	ops := []FusedOp{{Pred: expr.MustParse("id >= 0")}, {Project: []string{"id", "tag"}}, {Pred: expr.MustParse("id % 2 = 0")}}
	prevObs := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)
	prevW := SetScanWorkers(4)
	defer SetScanWorkers(prevW)

	chunksDuring := func(workers int) int64 {
		SetScanWorkers(workers)
		first, err := Restrict(r, ops[0].Pred)
		if err != nil {
			t.Fatal(err)
		}
		if first.Len() != r.Len() {
			t.Fatalf("kept %d of %d rows", first.Len(), r.Len())
		}
		before := obs.CounterValue(obs.RelScanChunks)
		if _, err := runChain(first, ops[1:]); err != nil {
			t.Fatal(err)
		}
		return obs.CounterValue(obs.RelScanChunks) - before
	}
	if got := chunksDuring(1); got != 0 {
		t.Fatalf("a selection scan with one worker dispatched %d parallel chunks", got)
	}
	if got := chunksDuring(4); got == 0 {
		t.Fatal("a selection scan with 4 workers dispatched no parallel chunks")
	}
}

// The join hash key must treat numerically-equal ints and floats as equal
// and keep every other kind distinct — replacing the old string key.
func TestValueKeyEquivalence(t *testing.T) {
	cases := []struct {
		a, b  types.Value
		equal bool
	}{
		{types.NewInt(3), types.NewFloat(3.0), true},
		{types.NewInt(3), types.NewFloat(3.5), false},
		{types.NewFloat(0.0), types.NewFloat(negZero()), true},
		{types.NewText("3"), types.NewInt(3), false},
		{types.NewText("a"), types.NewText("a"), true},
		{types.NewBool(true), types.NewInt(1), false},
		{types.NewDate(100), types.NewInt(100), false},
		{types.NewDate(100), types.NewDate(100), true},
		{types.Null, types.Null, true},
		{types.Null, types.NewInt(0), false},
	}
	for _, c := range cases {
		if got := keyOf(c.a) == keyOf(c.b); got != c.equal {
			t.Errorf("keyOf(%s) == keyOf(%s): got %v, want %v", c.a, c.b, got, c.equal)
		}
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// TestMaterializedComputedMatchesInterpreted targets computed
// attributes head-on: referenced many times (directly and through other
// computed attributes), a kernel evaluates each once per chunk, and a
// definition that fails at runtime must still read as null, exactly as
// the interpreter's per-reference evaluation reports it.
func TestMaterializedComputedMatchesInterpreted(t *testing.T) {
	r := bigRelation(t, 400)
	// c1 over stored columns, c2 over c1, broken dividing by zero for
	// every row (a computed definition error evaluates to null).
	for _, c := range []struct{ name, def string }{
		{"c1", "val * val + float(grp)"},
		{"c2", "c1 * 0.5 + score"},
		{"broken", "val / (float(id) - float(id))"},
	} {
		if err := r.AddComputed(c.name, expr.MustParse(c.def)); err != nil {
			t.Fatal(err)
		}
	}
	preds := []string{
		// c1 appears five times per row: twice directly, twice through c2,
		// once through c2 again on the right.
		"c1 > 0.0 and c2 + c1 < 500.0 or c2 - c1 * 0.25 > 10.0",
		// A null-valued computed (broken) collapses comparisons to null.
		"broken > 0.0 or c1 < 100.0",
		"c2 * c2 > c1 + score",
	}
	for _, src := range preds {
		pred := expr.MustParse(src)
		compiled, err := Restrict(r, pred)
		if err != nil {
			t.Fatalf("compiled restrict %q: %v", src, err)
		}
		var interpreted *Relation
		withInterpreter(t, func() {
			interpreted, err = Restrict(r, pred)
		})
		if err != nil {
			t.Fatalf("interpreted restrict %q: %v", src, err)
		}
		if got, want := relFingerprint(t, compiled), relFingerprint(t, interpreted); got != want {
			t.Errorf("restrict %q differs:\n  compiled    %.120s\n  interpreted %.120s", src, got, want)
		}
	}

	// The same predicates through a chain whose last step scans a
	// selection, against the interpreted chain.
	ops := []FusedOp{
		{Pred: expr.MustParse(preds[0])},
		{Project: []string{"id", "grp", "val"}},
		{Pred: expr.MustParse("c1 + c2 < 900.0 and c1 * 2.0 > -100.0")},
	}
	res, err := runChain(r, ops)
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	var want *Relation
	withInterpreter(t, func() { want, err = runChain(r, ops) })
	if err != nil {
		t.Fatal(err)
	}
	if got, wantFP := relFingerprint(t, res), relFingerprint(t, want); got != wantFP {
		t.Errorf("chain differs:\n  compiled    %.120s\n  interpreted %.120s", got, wantFP)
	}
}
