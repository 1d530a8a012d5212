package dataflow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/display"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/workload"
)

// These tests pin a restrict→project→restrict chain, which once fired
// as one fused scan: every box of it now fires on its own, each output
// a view of its input's chunks, and the chain keeps the outputs, memo
// entries, error attribution and scan-worker behaviour it had.

// buildChain wires table -> restrict -> project -> restrict and returns
// the boxes by role.
func buildChain(t testing.TB) (*Graph, *Evaluator, map[string]*Box) {
	t.Helper()
	g, ev := newTestGraph(t)
	boxes := map[string]*Box{}
	add := func(name, kind string, p Params) {
		t.Helper()
		b, err := g.AddBox(kind, p)
		if err != nil {
			t.Fatalf("add %s: %v", kind, err)
		}
		boxes[name] = b
	}
	add("table", "table", Params{"name": "Stations"})
	add("r1", "restrict", Params{"pred": "longitude < -80"})
	add("project", "project", Params{"attrs": "id,name,state,latitude"})
	add("r2", "restrict", Params{"pred": "latitude > 30"})
	chain := []string{"table", "r1", "project", "r2"}
	for i := 0; i+1 < len(chain); i++ {
		if err := g.Connect(boxes[chain[i]].ID, 0, boxes[chain[i+1]].ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	return g, ev, boxes
}

// relFingerprint flattens a relation's tuples and per-row provenance.
func relFingerprint(r *rel.Relation) string {
	out := ""
	for i := 0; i < r.Len(); i++ {
		base, row := r.BaseRow(i)
		out += fmt.Sprintf("%v@%s[%d];", r.Tuple(i), base.Name(), row)
	}
	return out
}

// The chain fires box by box and gives the tuples and provenance of the
// same operators applied to the table directly.
func TestFusedChainMatchesUnfused(t *testing.T) {
	_, ev, boxes := buildChain(t)
	res, err := ev.Eval(context.Background(), Request{Box: boxes["r2"].ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires != 4 {
		t.Fatalf("chain fired %d boxes, want 4", res.Fires)
	}
	want, err := rel.Restrict(testSource()["Stations"], expr.MustParse("longitude < -80"))
	if err == nil {
		want, err = rel.Project(want, []string{"id", "name", "state", "latitude"})
	}
	if err == nil {
		want, err = rel.Restrict(want, expr.MustParse("latitude > 30"))
	}
	if err != nil {
		t.Fatal(err)
	}
	wantFP := relFingerprint(want)
	if wantFP == "" {
		t.Fatal("chain produced no rows; the fixture no longer exercises the chain")
	}
	if got := relFingerprint(res.Value.(*display.Extended).Rel); got != wantFP {
		t.Errorf("chain output differs from the operators:\n  want %s\n  got  %s", wantFP, got)
	}
}

// A chain interior with a second consumer keeps its memo entry: the
// second consumer is served without re-firing the upstream chain.
func TestMultiConsumerInteriorNotFused(t *testing.T) {
	g, ev, boxes := buildChain(t)
	sb, err := g.AddBox("sample", Params{"p": "1.0", "seed": "3"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(boxes["project"].ID, 0, sb.ID, 0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	serial, err := ev.Eval(ctx, Request{Box: boxes["r2"].ID}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ev.InvalidateAll()
	res, err := ev.Eval(ctx, Request{Box: boxes["r2"].ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires != 4 {
		t.Fatalf("fired %d boxes, want 4 (table, r1, project, r2)", res.Fires)
	}
	if got, want := fingerprintR(t, res.Value), fingerprintR(t, serial.Value); got != want {
		t.Errorf("output with shared interior differs:\n  serial   %s\n  parallel %s", want, got)
	}
	res, err = ev.Eval(ctx, Request{Box: sb.ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires != 1 {
		t.Fatalf("sample demand fired %d boxes, want 1 (sample only)", res.Fires)
	}
}

// Demanding a chain interior fires the chain up to it and leaves its memo
// entry behind for the suffix.
func TestDemandedInteriorNotFused(t *testing.T) {
	_, ev, boxes := buildChain(t)
	ctx := context.Background()
	res, err := ev.Eval(ctx, Request{Box: boxes["project"].ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires != 3 {
		t.Fatalf("interior demand fired %d boxes, want 3", res.Fires)
	}
	res, err = ev.Eval(ctx, Request{Box: boxes["r2"].ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires != 1 {
		t.Fatalf("suffix demand fired %d boxes, want 1 (r2 only)", res.Fires)
	}
}

// A runtime predicate error at the chain's tail is blamed on the tail,
// with parallel and serial wavefronts alike.
func TestFusedChainErrorAttribution(t *testing.T) {
	g, ev, boxes := buildChain(t)
	// id - id is always zero: every surviving row divides by zero in r2.
	if err := g.SetParams(boxes["r2"].ID, Params{"pred": "id / (id - id) > 0"}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 0} {
		ev.InvalidateAll()
		_, err := ev.Eval(ctx, Request{Box: boxes["r2"].ID}, WithWorkers(workers))
		var be *Error
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: error %v (%T), want *Error", workers, err, err)
		}
		if be.Box != boxes["r2"].ID {
			t.Errorf("workers=%d: error blames box %d, want r2 (%d)", workers, be.Box, boxes["r2"].ID)
		}
	}
}

// A broken chain reports the same error with parallel and serial
// wavefronts.
func TestFusionDoesNotMaskPreflight(t *testing.T) {
	g, ev, boxes := buildChain(t)
	if err := g.SetParams(boxes["r1"].ID, Params{"pred": "((("}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, parErr := ev.Eval(ctx, Request{Box: boxes["r2"].ID})
	if parErr == nil {
		t.Fatal("broken predicate evaluated without error")
	}
	_, serialErr := ev.Eval(ctx, Request{Box: boxes["r2"].ID}, WithWorkers(1))
	if serialErr == nil {
		t.Fatal("broken predicate evaluated without error (serial)")
	}
	if parErr.Error() != serialErr.Error() {
		t.Errorf("the pre-flight report depends on the wavefront:\n  parallel %v\n  serial   %v", parErr, serialErr)
	}
}

// Several independent chains on one table, evaluated by a parallel
// wavefront, match the serial run.
func TestFusedParallelMatchesSerialUnfused(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, err := g.AddBox("table", Params{"name": "Stations"})
	if err != nil {
		t.Fatal(err)
	}
	var tails []*Box
	for i := 0; i < 4; i++ {
		rb, _ := g.AddBox("restrict", Params{"pred": fmt.Sprintf("id >= %d", i*3)})
		pb, _ := g.AddBox("project", Params{"attrs": "id,name,longitude"})
		r2, _ := g.AddBox("restrict", Params{"pred": "longitude < -70"})
		for _, c := range [][2]*Box{{rb, pb}, {pb, r2}} {
			if err := g.Connect(c[0].ID, 0, c[1].ID, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Connect(tb.ID, 0, rb.ID, 0); err != nil {
			t.Fatal(err)
		}
		tails = append(tails, r2)
	}
	ub := tails[0]
	for _, other := range tails[1:] {
		nb, _ := g.AddBox("union", nil)
		if err := g.Connect(ub.ID, 0, nb.ID, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(other.ID, 0, nb.ID, 1); err != nil {
			t.Fatal(err)
		}
		ub = nb
	}
	ctx := context.Background()

	serial, err := ev.Eval(ctx, Request{Box: ub.ID}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	wantFP := fingerprintR(t, serial.Value)

	ev.InvalidateAll()
	par, err := ev.Eval(ctx, Request{Box: ub.ID}, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintR(t, par.Value); got != wantFP {
		t.Errorf("parallel output differs from serial:\n  serial   %s\n  parallel %s", wantFP, got)
	}
	// table + 4 chains of 3 boxes + 3 unions.
	if par.Fires != 16 {
		t.Errorf("parallel run fired %d boxes, want 16", par.Fires)
	}
}

// A request that leaves Workers at zero lets each box's scan inherit
// rel.SetScanWorkers: with one scan worker the chain, whose second
// restrict scans a selection, dispatches no parallel chunks, however
// many CPUs there are.
func TestFusedChainInheritsScanWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer rel.SetScanWorkers(rel.ScanWorkers())
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)

	g := NewGraph(NewRegistry())
	ev := NewEvaluator(g, memSource{"Stations": workload.Stations(20000, 1)})
	var prev *Box
	for _, b := range []struct {
		kind string
		p    Params
	}{
		{"table", Params{"name": "Stations"}},
		{"restrict", Params{"pred": "longitude < -80"}},
		{"restrict", Params{"pred": "latitude > 30"}},
	} {
		box, err := g.AddBox(b.kind, b.p)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if err := g.Connect(prev.ID, 0, box.ID, 0); err != nil {
				t.Fatal(err)
			}
		}
		prev = box
	}
	chunks := func(scanWorkers int) int64 {
		rel.SetScanWorkers(scanWorkers)
		ev.InvalidateAll()
		before := obs.CounterValue(obs.RelScanChunks)
		res, err := ev.Eval(context.Background(), Request{Box: prev.ID})
		if err != nil {
			t.Fatal(err)
		}
		if res.Fires != 3 {
			t.Fatalf("chain fired %d boxes, want 3", res.Fires)
		}
		return obs.CounterValue(obs.RelScanChunks) - before
	}
	if got := chunks(1); got != 0 {
		t.Errorf("with one scan worker the chain dispatched %d parallel chunks", got)
	}
	if got := chunks(0); got == 0 {
		t.Error("with GOMAXPROCS scan workers the chain dispatched no parallel chunks")
	}
}
