package dataflow

import (
	"context"
	"testing"

	"repro/internal/display"
	"repro/internal/obs"
)

// buildPipeline wires table -> restrict -> project and a second
// independent branch table -> sample, returning the graph, evaluator, and
// the boxes.
func buildPipeline(t testing.TB) (*Graph, *Evaluator, map[string]*Box) {
	t.Helper()
	g, ev := newTestGraph(t)
	boxes := map[string]*Box{}
	add := func(name, kind string, p Params) *Box {
		b, err := g.AddBox(kind, p)
		if err != nil {
			t.Fatalf("add %s: %v", kind, err)
		}
		boxes[name] = b
		return b
	}
	add("table", "table", Params{"name": "Stations"})
	add("restrict", "restrict", Params{"pred": "state = 'LA'"})
	add("project", "project", Params{"attrs": "id,name,state"})
	add("table2", "table", Params{"name": "Observations"})
	add("sample", "sample", Params{"p": "0.5", "seed": "7"})
	mustConnect := func(a, b string) {
		t.Helper()
		if err := g.Connect(boxes[a].ID, 0, boxes[b].ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	mustConnect("table", "restrict")
	mustConnect("restrict", "project")
	mustConnect("table2", "sample")
	return g, ev, boxes
}

func TestLazyDemandTouchesOnlyUpstream(t *testing.T) {
	_, ev, boxes := buildPipeline(t)
	res, err := ev.Eval(context.Background(), Request{Box: boxes["project"].ID})
	if err != nil {
		t.Fatal(err)
	}
	// Only the demand's upstream fired — the table, restrict and
	// project; the second branch (table2, sample) is untouched — the
	// paper's lazy evaluation.
	if res.Fires != 3 {
		t.Fatalf("fired %d boxes, want 3 (table, restrict, project)", res.Fires)
	}
}

func TestMemoizationAcrossDemands(t *testing.T) {
	_, ev, boxes := buildPipeline(t)
	req := Request{Box: boxes["project"].ID}
	if _, err := ev.Eval(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// A second demand re-fires nothing.
	res, err := ev.Eval(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires != 0 {
		t.Fatalf("clean re-demand fired %d boxes", res.Fires)
	}
}

func TestIncrementalEditRefiresOnlySuffix(t *testing.T) {
	g, ev, boxes := buildPipeline(t)
	req := Request{Box: boxes["project"].ID}
	if _, err := ev.Eval(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	// Editing the restrict predicate re-fires restrict and project, not
	// the table.
	if err := g.SetParams(boxes["restrict"].ID, Params{"pred": "state = 'TX'"}); err != nil {
		t.Fatal(err)
	}
	res, err := ev.Eval(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires != 2 {
		t.Fatalf("incremental edit re-fired %d boxes, want 2 (restrict, project)", res.Fires)
	}
}

func TestTouchInvalidates(t *testing.T) {
	g, ev, boxes := buildPipeline(t)
	req := Request{Box: boxes["project"].ID}
	if _, err := ev.Eval(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	g.Touch(boxes["table"].ID)
	res, err := ev.Eval(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires != 3 {
		t.Fatalf("touch re-fired %d boxes, want all 3", res.Fires)
	}
}

func TestDemandInputPromotes(t *testing.T) {
	g, ev, boxes := buildPipeline(t)
	vb, _ := g.AddBox("viewer", nil)
	if err := g.Connect(boxes["project"].ID, 0, vb.ID, 0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := ev.Eval(ctx, Request{Box: vb.ID, Input: true})
	if err != nil {
		t.Fatal(err)
	}
	// The viewer port is G: the R output arrives as a promoted group.
	if _, ok := res.Value.(*display.Group); !ok {
		t.Fatalf("viewer input is %T, want group", res.Value)
	}
	if _, err := ev.Eval(ctx, Request{Box: vb.ID, Port: 5, Input: true}); err == nil {
		t.Error("bad port accepted")
	}
	if _, err := ev.Eval(ctx, Request{Box: boxes["table"].ID, Input: true}); err == nil {
		t.Error("demanding unconnected input accepted")
	}
}

func TestDanglingInputError(t *testing.T) {
	g, ev := newTestGraph(t)
	rb, _ := g.AddBox("restrict", Params{"pred": "true"})
	if _, err := ev.Eval(context.Background(), Request{Box: rb.ID}); err == nil {
		t.Error("demand with dangling input accepted")
	}
}

func TestEvaluateAllEager(t *testing.T) {
	_, ev, _ := buildPipeline(t)
	obs.Reset()
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.Reset() }()
	if err := ev.EvaluateAll(); err != nil {
		t.Fatal(err)
	}
	// Everything fired, including the branch no viewer demanded.
	if fires := obs.CounterValue(obs.EvalFires); fires != 5 {
		t.Fatalf("eager fired %d boxes, want 5", fires)
	}
}

func TestMultiOutputSwitch(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	sw, _ := g.AddBox("switch", Params{"pred": "state = 'LA'"})
	if err := g.Connect(tb.ID, 0, sw.ID, 0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	yes, err := ev.Eval(ctx, Request{Box: sw.ID})
	if err != nil {
		t.Fatal(err)
	}
	no, err := ev.Eval(ctx, Request{Box: sw.ID, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	ny, nn := extLen(t, yes.Value), extLen(t, no.Value)
	all, _ := ev.Eval(ctx, Request{Box: tb.ID})
	if ny+nn != extLen(t, all.Value) {
		t.Fatalf("switch lost tuples: %d + %d != %d", ny, nn, extLen(t, all.Value))
	}
	if ny == 0 || nn == 0 {
		t.Fatal("switch routed everything one way")
	}
	// Both outputs came from one firing.
	if fires := yes.Fires + no.Fires + all.Fires; fires != 2 { // table + switch
		t.Fatalf("fired %d, want 2", fires)
	}
}

func TestPartitionBox(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	pt, _ := g.AddBox("partition", Params{"preds": "state = 'LA'; state = 'TX'; true"})
	if len(pt.Out) != 3 {
		t.Fatalf("partition has %d outputs", len(pt.Out))
	}
	if err := g.Connect(tb.ID, 0, pt.ID, 0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	total := 0
	for i := 0; i < 3; i++ {
		res, err := ev.Eval(ctx, Request{Box: pt.ID, Port: i})
		if err != nil {
			t.Fatal(err)
		}
		total += extLen(t, res.Value)
	}
	all, _ := ev.Eval(ctx, Request{Box: tb.ID})
	if total != extLen(t, all.Value) {
		t.Fatalf("partition total %d != %d", total, extLen(t, all.Value))
	}
}

func TestTypecheckLoadedProgram(t *testing.T) {
	g, _, _ := buildPipeline(t)
	if diags := ValidateGraph(g); len(diags) != 0 {
		t.Fatalf("clean graph reported %v", diags)
	}
}

func TestCycleDetectionAtEval(t *testing.T) {
	// Graph-level connect prevents cycles; simulate a corrupt load by
	// wiring edges directly.
	g, ev := newTestGraph(t)
	a, _ := g.AddBox("restrict", Params{"pred": "true"})
	b, _ := g.AddBox("restrict", Params{"pred": "true"})
	g.edges[a.ID] = map[int]Edge{0: {From: b.ID, FromPort: 0, To: a.ID, ToPort: 0}}
	g.edges[b.ID] = map[int]Edge{0: {From: a.ID, FromPort: 0, To: b.ID, ToPort: 0}}
	if _, err := ev.Eval(context.Background(), Request{Box: a.ID}); err == nil {
		t.Error("cyclic evaluation accepted")
	}
}
