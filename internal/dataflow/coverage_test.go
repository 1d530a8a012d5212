package dataflow

import (
	"context"
	"errors"
	"testing"

	"repro/internal/display"
	"repro/internal/types"
)

// locChain builds table -> setlocation so downstream boxes see a custom
// (non-default) layout.
func locChain(t testing.TB, g *Graph) *Box {
	t.Helper()
	tb, err := g.AddBox("table", Params{"name": "Stations"})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := g.AddBox("setlocation", Params{"attrs": "longitude,latitude"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(tb.ID, 0, loc.ID, 0); err != nil {
		t.Fatal(err)
	}
	return loc
}

func TestRederivePreservesCustomLayout(t *testing.T) {
	g, ev := newTestGraph(t)
	loc := locChain(t, g)
	// Restrict after a custom layout: location attributes survive.
	rb, _ := g.AddBox("restrict", Params{"pred": "state = 'LA'"})
	wire(t, g, loc, rb)
	e := demandR(t, ev, rb.ID)
	if e.SeqLayout {
		t.Fatal("custom layout fell back to default")
	}
	if len(e.LocAttrs) != 2 || e.LocAttrs[0] != "longitude" {
		t.Fatalf("LocAttrs = %v", e.LocAttrs)
	}

	// Projecting away a location attribute falls back to the default
	// layout (principle 1: always visualizable).
	pj, _ := g.AddBox("project", Params{"attrs": "id,name"})
	wire(t, g, rb, pj)
	e = demandR(t, ev, pj.ID)
	if !e.SeqLayout {
		t.Fatal("losing location attributes should fall back to the default display")
	}
}

func TestSwapAttrOnLocations(t *testing.T) {
	g, ev := newTestGraph(t)
	loc := locChain(t, g)
	sw, _ := g.AddBox("swapattr", Params{"a": "longitude", "b": "latitude"})
	wire(t, g, loc, sw)
	e := demandR(t, ev, sw.ID)
	if e.LocAttrs[0] != "latitude" || e.LocAttrs[1] != "longitude" {
		t.Fatalf("rotated LocAttrs = %v", e.LocAttrs)
	}
}

func TestSwapAttrOnStoredColumns(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	sw, _ := g.AddBox("swapattr", Params{"a": "longitude", "b": "latitude"})
	wire(t, g, tb, sw)
	e := demandR(t, ev, sw.ID)
	lon, _ := e.Rel.Row(0).Attr("longitude").AsFloat()
	// After the swap, "longitude" carries the old latitude values
	// (29-49 degrees north, all positive).
	if lon < 0 {
		t.Fatalf("stored swap did not exchange values: longitude = %g", lon)
	}
	// Swapping incompatible attributes fails.
	bad, _ := g.AddBox("swapattr", Params{"a": "name", "b": "longitude"})
	wire(t, g, sw, bad)
	if _, err := ev.Eval(context.Background(), Request{Box: bad.ID}); err == nil {
		t.Error("cross-kind swap accepted")
	}
}

func TestReplicateEnumeratedOnly(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	rep, _ := g.AddBox("replicate", Params{"attr": "state", "layout": "vertical"})
	wire(t, g, tb, rep)
	res, err := ev.Eval(context.Background(), Request{Box: rep.ID})
	if err != nil {
		t.Fatal(err)
	}
	grp := res.Value.(*display.Group)
	if grp.Layout != display.Vertical {
		t.Fatalf("layout %v", grp.Layout)
	}
	total := 0
	for _, m := range grp.Members {
		total += m.Layers[0].Ext.Rel.Len()
	}
	if total != 40 {
		t.Fatalf("enumerated replication covers %d of 40", total)
	}
	// Replicate needs preds or attr.
	none, _ := g.AddBox("replicate", Params{})
	wire(t, g, rep2R(t, g, tb), none)
	if _, err := ev.Eval(context.Background(), Request{Box: none.ID}); err == nil {
		t.Error("replicate without spec accepted")
	}
}

// rep2R adds a pass-through so a second replicate test can reuse the
// table output without double-connecting.
func rep2R(t testing.TB, g *Graph, tb *Box) *Box {
	t.Helper()
	tt, err := g.AddBox("t", Params{"type": "R"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(tb.ID, 0, tt.ID, 0); err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestReplicateDateEnumeration(t *testing.T) {
	// Enumerating a date attribute exercises the date literal path.
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Observations"})
	rb, _ := g.AddBox("restrict", Params{"pred": "station_id = 0"})
	wire(t, g, tb, rb)
	rep, _ := g.AddBox("replicate", Params{"attr": "obs_date"})
	wire(t, g, rb, rep)
	res, err := ev.Eval(context.Background(), Request{Box: rep.ID})
	if err != nil {
		t.Fatal(err)
	}
	grp := res.Value.(*display.Group)
	if len(grp.Members) != 12 { // 12 monthly observations for station 0
		t.Fatalf("%d date panels", len(grp.Members))
	}
}

func TestStitchLayoutValidation(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	// tabular without cols fails at fire time.
	st, _ := g.AddBox("stitch", Params{"n": "1", "layout": "tabular"})
	wire(t, g, tb, st)
	if _, err := ev.Eval(context.Background(), Request{Box: st.ID}); err == nil {
		t.Error("tabular without cols accepted")
	}
	// Unknown layout fails.
	st2, _ := g.AddBox("stitch", Params{"n": "1", "layout": "diagonal"})
	wire(t, g, rep2R(t, g, tb), st2)
	if _, err := ev.Eval(context.Background(), Request{Box: st2.ID}); err == nil {
		t.Error("unknown layout accepted")
	}
	// Tabular with cols works.
	st3, _ := g.AddBox("stitch", Params{"n": "1", "layout": "tabular", "cols": "1"})
	wire(t, g, rep2R(t, g, tb), st3)
	res, err := ev.Eval(context.Background(), Request{Box: st3.ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.(*display.Group).Layout != display.Tabular {
		t.Error("tabular layout not applied")
	}
}

func TestGraphUtilities(t *testing.T) {
	g, _ := newTestGraph(t)
	if g.Registry() == nil {
		t.Fatal("Registry nil")
	}
	if !g.Registry().Has("restrict") || g.Registry().Has("ghost") {
		t.Fatal("Has wrong")
	}
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	rb, _ := g.AddBox("restrict", Params{"pred": "true"})
	_ = g.Connect(tb.ID, 0, rb.ID, 0)
	if err := g.SetLabel(tb.ID, "weather"); err != nil {
		t.Fatal(err)
	}
	if b, _ := g.Box(tb.ID); b.Label != "weather" {
		t.Fatal("label")
	}
	if err := g.SetLabel(999, "x"); err == nil {
		t.Fatal("missing box labeled")
	}
	sinks := g.Sinks()
	if len(sinks) != 1 || sinks[0].ID != rb.ID {
		t.Fatalf("Sinks = %v", sinks)
	}
	g.Clear()
	if len(g.Boxes()) != 0 || len(g.Edges()) != 0 {
		t.Fatal("Clear incomplete")
	}
}

func TestEvaluatorUtilities(t *testing.T) {
	g, ev := newTestGraph(t)
	if ev.Graph() != g {
		t.Fatal("Graph accessor")
	}
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	if _, err := ev.Eval(context.Background(), Request{Box: tb.ID}); err != nil {
		t.Fatal(err)
	}
	ev.Invalidate(tb.ID)
	res, err := ev.Eval(context.Background(), Request{Box: tb.ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires != 1 {
		t.Fatal("Invalidate did not force a re-fire")
	}
}

func TestTypecheckReportsBadEdges(t *testing.T) {
	g, _ := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	st, _ := g.AddBox("stitch", Params{"n": "1"})
	rb, _ := g.AddBox("restrict", Params{"pred": "true"})
	_ = g.Connect(tb.ID, 0, st.ID, 0)
	// Forge an illegal edge (as if loaded from corrupt storage).
	g.edges[rb.ID] = map[int]Edge{0: {From: st.ID, FromPort: 0, To: rb.ID, ToPort: 0}}
	diags := ValidateGraph(g)
	if len(diags) != 1 || !errors.Is(diags, ErrPortType) {
		t.Fatalf("ValidateGraph = %v", diags)
	}
}

func TestSortKeepsCustomLayout(t *testing.T) {
	g, ev := newTestGraph(t)
	loc := locChain(t, g)
	srt, _ := g.AddBox("sort", Params{"attr": "altitude", "desc": "true"})
	wire(t, g, loc, srt)
	e := demandR(t, ev, srt.ID)
	if e.SeqLayout {
		t.Fatal("sort dropped the custom layout")
	}
	a0, _ := e.Rel.Row(0).Attr("altitude").AsFloat()
	a1, _ := e.Rel.Row(1).Attr("altitude").AsFloat()
	if a0 < a1 {
		t.Fatal("descending sort out of order")
	}
}

func TestValueTypeErrors(t *testing.T) {
	if _, err := ValueType(nil); err == nil {
		t.Error("nil value typed")
	}
	if _, err := ValueType(42); err == nil {
		t.Error("alien value typed")
	}
	pt, err := ValueType(types.NewInt(1))
	if err != nil || !pt.Equal(ScalarType(types.Int)) {
		t.Errorf("scalar type = %v, %v", pt, err)
	}
	// Promotion failures.
	if _, err := PromoteValue(types.NewInt(1), RType); err == nil {
		t.Error("scalar promoted to R")
	}
}

func TestUnionDistinctLimitBoxes(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	t1 := rep2R(t, g, tb)
	t2 := rep2R(t, g, tb)
	un, _ := g.AddBox("union", nil)
	if err := g.Connect(t1.ID, 0, un.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(t2.ID, 0, un.ID, 1); err != nil {
		t.Fatal(err)
	}
	e := demandR(t, ev, un.ID)
	if e.Rel.Len() != 80 {
		t.Fatalf("union = %d", e.Rel.Len())
	}
	di, _ := g.AddBox("distinct", nil)
	wire(t, g, un, di)
	e = demandR(t, ev, di.ID)
	if e.Rel.Len() != 40 {
		t.Fatalf("distinct after self-union = %d, want 40", e.Rel.Len())
	}
	lm, _ := g.AddBox("limit", Params{"n": "7"})
	wire(t, g, di, lm)
	e = demandR(t, ev, lm.ID)
	if e.Rel.Len() != 7 {
		t.Fatalf("limit = %d", e.Rel.Len())
	}
}
