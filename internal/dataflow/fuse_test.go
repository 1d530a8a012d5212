package dataflow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/display"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/workload"
)

// buildChain wires table -> restrict -> project -> restrict, the canonical
// fusible pipeline, and returns the boxes by role.
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

// provFingerprint flattens an Extended's per-row provenance so fused and
// unfused runs can be compared row for row.
func provFingerprint(t testing.TB, v Value) string {
	t.Helper()
	e, ok := v.(*display.Extended)
	if !ok {
		t.Fatalf("value is %T, want *display.Extended", v)
	}
	out := ""
	for i := 0; i < e.Rel.Len(); i++ {
		base, row := e.Rel.BaseRow(i)
		out += fmt.Sprintf("%s[%d];", base.Name(), row)
	}
	return out
}

func TestFusedChainMatchesUnfused(t *testing.T) {
	_, ev, boxes := buildChain(t)
	ctx := context.Background()

	unfused, err := ev.Eval(ctx, Request{Box: boxes["r2"].ID}, WithoutFusion())
	if err != nil {
		t.Fatal(err)
	}
	if unfused.Fires != 4 {
		t.Fatalf("unfused chain fired %d boxes, want 4", unfused.Fires)
	}
	wantFP := fingerprintR(t, unfused.Value)
	wantProv := provFingerprint(t, unfused.Value)

	ev.InvalidateAll()
	fused, err := ev.Eval(ctx, Request{Box: boxes["r2"].ID})
	if err != nil {
		t.Fatal(err)
	}
	// One firing for the table, one for the whole restrict→project→restrict
	// chain.
	if fused.Fires != 2 {
		t.Fatalf("fused chain fired %d boxes, want 2", fused.Fires)
	}
	if got := fingerprintR(t, fused.Value); got != wantFP {
		t.Errorf("fused output differs:\n  unfused %s\n  fused   %s", wantFP, got)
	}
	if got := provFingerprint(t, fused.Value); got != wantProv {
		t.Errorf("fused provenance differs:\n  unfused %s\n  fused   %s", wantProv, got)
	}
	if wantProv == "" {
		t.Fatal("chain produced no rows; the fixture no longer exercises fusion")
	}
}

// A chain interior with a second consumer must keep firing individually:
// fusing it away would starve the other consumer's memo read.
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

	unfused, err := ev.Eval(ctx, Request{Box: boxes["r2"].ID}, WithoutFusion())
	if err != nil {
		t.Fatal(err)
	}
	wantFP := fingerprintR(t, unfused.Value)

	ev.InvalidateAll()
	fused, err := ev.Eval(ctx, Request{Box: boxes["r2"].ID})
	if err != nil {
		t.Fatal(err)
	}
	// project now feeds two boxes, so only r1 can be absorbed: table,
	// fused r1→project, r2.
	if fused.Fires != 3 {
		t.Fatalf("fired %d boxes, want 3 (table, fused r1→project, r2)", fused.Fires)
	}
	if got := fingerprintR(t, fused.Value); got != wantFP {
		t.Errorf("output with shared interior differs:\n  unfused %s\n  fused   %s", wantFP, got)
	}
	// The shared interior kept its memo entry: the second consumer is
	// served without re-firing the upstream chain.
	before := fused.Fires
	res, err := ev.Eval(ctx, Request{Box: sb.ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires != 1 {
		t.Fatalf("sample demand fired %d boxes, want 1 (sample only); chain fired %d", res.Fires, before)
	}
}

// Demanding a box that would otherwise be a chain interior fires it
// individually and leaves its memo entry behind.
func TestDemandedInteriorNotFused(t *testing.T) {
	_, ev, boxes := buildChain(t)
	ctx := context.Background()
	res, err := ev.Eval(ctx, Request{Box: boxes["project"].ID})
	if err != nil {
		t.Fatal(err)
	}
	// table fires, then the fused r1→project chain with project as tail.
	if res.Fires != 2 {
		t.Fatalf("interior demand fired %d boxes, want 2", res.Fires)
	}
	// A follow-up demand of the full chain reuses the interior's memo.
	res, err = ev.Eval(ctx, Request{Box: boxes["r2"].ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires != 1 {
		t.Fatalf("suffix demand fired %d boxes, want 1 (r2 only)", res.Fires)
	}
}

// A runtime predicate error inside a fused chain is blamed on the same box
// an unfused run would blame.
func TestFusedChainErrorAttribution(t *testing.T) {
	g, ev, boxes := buildChain(t)
	// id - id is always zero: every surviving row divides by zero in r2.
	if err := g.SetParams(boxes["r2"].ID, Params{"pred": "id / (id - id) > 0"}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	_, unfusedErr := ev.Eval(ctx, Request{Box: boxes["r2"].ID}, WithoutFusion())
	if unfusedErr == nil {
		t.Fatal("unfused chain with erroring predicate succeeded")
	}
	ev.InvalidateAll()
	_, fusedErr := ev.Eval(ctx, Request{Box: boxes["r2"].ID})
	if fusedErr == nil {
		t.Fatal("fused chain with erroring predicate succeeded")
	}
	var ue, fe *Error
	if !errors.As(unfusedErr, &ue) || !errors.As(fusedErr, &fe) {
		t.Fatalf("errors are %T / %T, want *Error", unfusedErr, fusedErr)
	}
	if fe.Box != ue.Box || fe.Box != boxes["r2"].ID {
		t.Errorf("fused blames box %d, unfused box %d, want %d", fe.Box, ue.Box, boxes["r2"].ID)
	}
}

// Pre-flight diagnostics run before fusion and are never masked by it: a
// broken chain reports the same aggregate error fused and unfused.
func TestFusionDoesNotMaskPreflight(t *testing.T) {
	g, ev, boxes := buildChain(t)
	if err := g.SetParams(boxes["r1"].ID, Params{"pred": "((("}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, fusedErr := ev.Eval(ctx, Request{Box: boxes["r2"].ID})
	if fusedErr == nil {
		t.Fatal("broken predicate evaluated without error")
	}
	_, unfusedErr := ev.Eval(ctx, Request{Box: boxes["r2"].ID}, WithoutFusion())
	if unfusedErr == nil {
		t.Fatal("broken predicate evaluated without error (unfused)")
	}
	if fusedErr.Error() != unfusedErr.Error() {
		t.Errorf("fusion changed the preflight report:\n  fused   %v\n  unfused %v", fusedErr, unfusedErr)
	}
}

// Parallel wavefront plus fused chains: several independent chains on one
// table, evaluated concurrently, must match the serial unfused run.
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

	serial, err := ev.Eval(ctx, Request{Box: ub.ID}, WithWorkers(1), WithoutFusion())
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
		t.Errorf("parallel fused output differs from serial unfused:\n  serial   %s\n  parallel %s", wantFP, got)
	}
	// Each 3-box chain collapsed to one firing: table + 4 chains + 3 unions.
	if par.Fires != 8 {
		t.Errorf("parallel fused run fired %d boxes, want 8", par.Fires)
	}
}

// A request that leaves Workers at zero lets a fused chain's scan inherit
// rel.SetScanWorkers, as a single box's scan does: with one scan worker
// the chain dispatches no parallel chunks, however many CPUs there are.
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
		if res.Fires != 2 {
			t.Fatalf("chain fired %d boxes, want 2 (table + one fused chain)", res.Fires)
		}
		return obs.CounterValue(obs.RelScanChunks) - before
	}
	if got := chunks(1); got != 0 {
		t.Errorf("with one scan worker the fused chain dispatched %d parallel chunks", got)
	}
	if got := chunks(0); got == 0 {
		t.Error("with GOMAXPROCS scan workers the fused chain dispatched no parallel chunks")
	}
}
