package rel

import (
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

// FusedScan against the chain of individual operators it replaces: same
// schema, computed attributes, tuples, and provenance.
func TestFusedScanMatchesChain(t *testing.T) {
	r := bigRelation(t, 600)
	ops := []FusedOp{
		{Pred: expr.MustParse("val > -25.0")},
		{Project: []string{"id", "grp", "val"}},
		{Pred: expr.MustParse("id % 2 = 0 and grp != 3")},
	}
	want := r
	var err error
	if want, err = Restrict(want, ops[0].Pred); err != nil {
		t.Fatal(err)
	}
	if want, err = Project(want, ops[1].Project); err != nil {
		t.Fatal(err)
	}
	if want, err = Restrict(want, ops[2].Pred); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		res, err := FusedScan(r, ops, workers)
		if err != nil {
			t.Fatalf("fused scan (workers=%d): %v", workers, err)
		}
		if got := relFingerprint(t, res.Out); got != relFingerprint(t, want) {
			t.Errorf("fused scan (workers=%d) differs from chain", workers)
		}
		if len(res.Shapes) != len(ops) || res.Shapes[len(ops)-1] != res.Out {
			t.Fatalf("shapes misreported: %d entries", len(res.Shapes))
		}
	}

	// Interpreted fused scan (kernels off) agrees too.
	withInterpreter(t, func() {
		res, err := FusedScan(r, ops, 1)
		if err != nil {
			t.Fatal(err)
		}
		if relFingerprint(t, res.Out) != relFingerprint(t, want) {
			t.Error("interpreted fused scan differs from chain")
		}
	})
}

// Randomized fused-vs-chain property: random pipelines over random
// relations, fused output must match the operator chain exactly.
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
		want := r
		var err error
		for _, op := range ops {
			if op.Pred != nil {
				want, err = Restrict(want, op.Pred)
			} else {
				want, err = Project(want, op.Project)
			}
			if err != nil {
				t.Fatalf("trial %d chain: %v", trial, err)
			}
		}
		res, err := FusedScan(r, ops, 1+rng.Intn(4))
		if err != nil {
			t.Fatalf("trial %d fused: %v", trial, err)
		}
		if relFingerprint(t, res.Out) != relFingerprint(t, want) {
			t.Fatalf("trial %d: fused differs from chain (%d ops)", trial, len(ops))
		}
	}
}

func TestFusedScanStepErrors(t *testing.T) {
	r := bigRelation(t, 50)
	// Shape-time failure: unknown attribute in step 1.
	_, err := FusedScan(r, []FusedOp{
		{Pred: expr.MustParse("val > 0.0")},
		{Pred: expr.MustParse("nope = 1")},
	}, 1)
	var se *FusedStepError
	if err == nil {
		t.Fatal("bad predicate accepted")
	}
	if !asStepError(err, &se) || se.Step != 1 {
		t.Fatalf("error %v not attributed to step 1", err)
	}
	// Runtime failure: division by zero in step 0.
	_, err = FusedScan(r, []FusedOp{
		{Pred: expr.MustParse("id / (id - id) > 0")},
	}, 1)
	if err == nil {
		t.Fatal("erroring predicate succeeded")
	}
	if !asStepError(err, &se) || se.Step != 0 {
		t.Fatalf("runtime error %v not attributed to step 0", err)
	}
}

func asStepError(err error, out **FusedStepError) bool {
	for err != nil {
		if se, ok := err.(*FusedStepError); ok {
			*out = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
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
		res, err := FusedScan(r, []FusedOp{{Pred: pred}, {Project: []string{"id", "val"}}}, 8)
		if err != nil {
			t.Fatal(err)
		}
		fs := relFingerprint(t, res.Out)
		if i == 0 {
			t.Logf("rows: restrict=%d map=%d fused=%d", par.Len(), mc.Len(), res.Out.Len())
		}
		for j := 0; j < 2; j++ {
			mc2, _ := MapColumn(r, "val", expr.MustParse("val * 3.0"))
			if relFingerprint(t, mc2) != mcs {
				t.Fatal("parallel map column nondeterministic")
			}
			res2, _ := FusedScan(r, []FusedOp{{Pred: pred}, {Project: []string{"id", "val"}}}, 8)
			if relFingerprint(t, res2.Out) != fs {
				t.Fatal("parallel fused scan nondeterministic")
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

// A fused scan's worker count bounds its whole firing: with one worker
// neither the selection nor the gather of its (multi-chunk) output
// dispatches parallel chunks, whatever the package setting.
func TestFusedScanWorkersBoundGather(t *testing.T) {
	r := bigRelation(t, 3*DefaultScanThreshold)
	ops := []FusedOp{{Pred: expr.MustParse("id >= 0")}, {Project: []string{"id", "tag"}}}
	prevObs := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)
	prevW := SetScanWorkers(4)
	defer SetScanWorkers(prevW)

	chunksDuring := func(workers int) int64 {
		before := obs.CounterValue(obs.RelScanChunks)
		res, err := FusedScan(r, ops, workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.Out.Len() != r.Len() {
			t.Fatalf("kept %d of %d rows", res.Out.Len(), r.Len())
		}
		return obs.CounterValue(obs.RelScanChunks) - before
	}
	if got := chunksDuring(1); got != 0 {
		t.Fatalf("FusedScan with one worker dispatched %d parallel chunks", got)
	}
	// The package setting still applies when the caller inherits it.
	if got := chunksDuring(0); got == 0 {
		t.Fatal("FusedScan inheriting 4 workers dispatched no parallel chunks")
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

	// The same predicates through a fused scan, against the unfused
	// interpreted chain.
	ops := []FusedOp{
		{Pred: expr.MustParse(preds[0])},
		{Project: []string{"id", "grp", "val"}},
		{Pred: expr.MustParse("c1 + c2 < 900.0 and c1 * 2.0 > -100.0")},
	}
	res, err := FusedScan(r, ops, 1)
	if err != nil {
		t.Fatalf("fused scan: %v", err)
	}
	var want *Relation
	withInterpreter(t, func() {
		s1, err := Restrict(r, ops[0].Pred)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Project(s1, ops[1].Project)
		if err != nil {
			t.Fatal(err)
		}
		want, err = Restrict(s2, ops[2].Pred)
		if err != nil {
			t.Fatal(err)
		}
	})
	if got, wantFP := relFingerprint(t, res.Out), relFingerprint(t, want); got != wantFP {
		t.Errorf("fused scan differs:\n  compiled    %.120s\n  interpreted %.120s", got, wantFP)
	}
}
