package dataflow

import (
	"context"
	"testing"

	"repro/internal/display"
	"repro/internal/geom"
)

// demandR demands output (id, 0) and asserts it is an extended relation.
func demandR(t testing.TB, ev *Evaluator, id int) *display.Extended {
	t.Helper()
	res, err := ev.Eval(context.Background(), Request{Box: id})
	if err != nil {
		t.Fatalf("demand: %v", err)
	}
	e, ok := res.Value.(*display.Extended)
	if !ok {
		t.Fatalf("output is %T", res.Value)
	}
	return e
}

func wire(t testing.TB, g *Graph, from, to *Box) {
	t.Helper()
	if err := g.Connect(from.ID, 0, to.ID, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTableBoxDefaults(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	e := demandR(t, ev, tb.ID)
	if !e.SeqLayout {
		t.Error("table output should have the default sequence layout")
	}
	if e.Rel.Len() != 40 {
		t.Errorf("table has %d tuples", e.Rel.Len())
	}
	if len(e.Displays) != 1 || e.Displays[0].Name != "display" {
		t.Error("default display missing")
	}
	// Missing table errors at fire time.
	bad, _ := g.AddBox("table", Params{"name": "Nope"})
	if _, err := ev.Eval(context.Background(), Request{Box: bad.ID}); err == nil {
		t.Error("missing table accepted")
	}
	// Missing name parameter.
	noName, _ := g.AddBox("table", Params{})
	if _, err := ev.Eval(context.Background(), Request{Box: noName.ID}); err == nil {
		t.Error("table without name accepted")
	}
}

func TestProjectBox(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	pj, _ := g.AddBox("project", Params{"attrs": "id,name"})
	wire(t, g, tb, pj)
	e := demandR(t, ev, pj.ID)
	if e.Rel.Schema().Len() != 2 {
		t.Errorf("projected schema %s", e.Rel.Schema())
	}
	// Default display rebuilt over the new attribute set.
	l, err := e.Display(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 2 {
		t.Errorf("default display has %d fields", len(l))
	}
}

func TestAttrBoxes(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	add, _ := g.AddBox("addattr", Params{"name": "alt2", "def": "altitude * 2"})
	wire(t, g, tb, add)
	e := demandR(t, ev, add.ID)
	if !e.Rel.HasAttr("alt2") {
		t.Fatal("addattr missing")
	}
	a0, _ := e.Rel.Row(0).Attr("altitude").AsFloat()
	a2, _ := e.Rel.Row(0).Attr("alt2").AsFloat()
	if a2 != 2*a0 {
		t.Errorf("alt2 = %g, altitude = %g", a2, a0)
	}

	// setattr on the computed attribute.
	set, _ := g.AddBox("setattr", Params{"name": "alt2", "def": "altitude * 3"})
	wire(t, g, add, set)
	e = demandR(t, ev, set.ID)
	a2, _ = e.Rel.Row(0).Attr("alt2").AsFloat()
	if a2 != 3*a0 {
		t.Errorf("setattr alt2 = %g", a2)
	}

	// scale and translate chain.
	sc, _ := g.AddBox("scaleattr", Params{"name": "alt2", "by": "10"})
	wire(t, g, set, sc)
	tr, _ := g.AddBox("translateattr", Params{"name": "alt2", "by": "1"})
	wire(t, g, sc, tr)
	e = demandR(t, ev, tr.ID)
	a2, _ = e.Rel.Row(0).Attr("alt2").AsFloat()
	if a2 != 3*a0*10+1 {
		t.Errorf("scaled+translated = %g, want %g", a2, 3*a0*10+1)
	}

	// removeattr on the computed attribute.
	rm, _ := g.AddBox("removeattr", Params{"name": "alt2"})
	wire(t, g, tr, rm)
	e = demandR(t, ev, rm.ID)
	if e.Rel.HasAttr("alt2") {
		t.Error("removeattr left the attribute")
	}

	// scale of a text attribute is rejected.
	bad, _ := g.AddBox("scaleattr", Params{"name": "name", "by": "2"})
	wire(t, g, rm, bad)
	if _, err := ev.Eval(context.Background(), Request{Box: bad.ID}); err == nil {
		t.Error("scaling text accepted")
	}
}

func TestSetLocationAndRemoveGuard(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	loc, _ := g.AddBox("setlocation", Params{"attrs": "longitude,latitude,altitude"})
	wire(t, g, tb, loc)
	e := demandR(t, ev, loc.ID)
	if e.SeqLayout || e.Dim() != 3 {
		t.Fatalf("setlocation produced dim %d seq=%v", e.Dim(), e.SeqLayout)
	}

	// Removing the x location attribute is forbidden (Figure 5: cannot
	// remove x, y, or display).
	rm, _ := g.AddBox("removeattr", Params{"name": "longitude"})
	wire(t, g, loc, rm)
	if _, err := ev.Eval(context.Background(), Request{Box: rm.ID}); err == nil {
		t.Error("removing the x location attribute accepted")
	}

	// Removing a slider attribute is allowed and drops the dimension.
	g2, ev2 := newTestGraph(t)
	tb2, _ := g2.AddBox("table", Params{"name": "Stations"})
	loc2, _ := g2.AddBox("setlocation", Params{"attrs": "longitude,latitude,altitude"})
	wire(t, g2, tb2, loc2)
	rm2, _ := g2.AddBox("removeattr", Params{"name": "altitude"})
	wire(t, g2, loc2, rm2)
	e2 := demandR(t, ev2, rm2.ID)
	if e2.Dim() != 2 {
		t.Errorf("dim after slider removal = %d", e2.Dim())
	}

	// Non-numeric location attributes rejected.
	g3, ev3 := newTestGraph(t)
	tb3, _ := g3.AddBox("table", Params{"name": "Stations"})
	loc3, _ := g3.AddBox("setlocation", Params{"attrs": "name,latitude"})
	wire(t, g3, tb3, loc3)
	if _, err := ev3.Eval(context.Background(), Request{Box: loc3.ID}); err == nil {
		t.Error("text location attribute accepted")
	}
}

func TestDisplayBoxes(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	d1, _ := g.AddBox("setdisplay", Params{"name": "circ", "spec": "circle r=2 color=red", "active": "true"})
	wire(t, g, tb, d1)
	e := demandR(t, ev, d1.ID)
	if e.Displays[0].Name != "circ" {
		t.Fatalf("active display = %q", e.Displays[0].Name)
	}
	if len(e.Displays) != 2 {
		t.Fatalf("%d displays", len(e.Displays))
	}

	// combinedisplays merges circ and the original default.
	cb, _ := g.AddBox("combinedisplays", Params{"a": "circ", "b": "display", "name": "both", "dy": "-5"})
	wire(t, g, d1, cb)
	e = demandR(t, ev, cb.ID)
	if e.Displays[0].Name != "both" {
		t.Fatalf("combined display not active: %q", e.Displays[0].Name)
	}
	l, err := e.Display(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(l) < 2 {
		t.Fatalf("combined display has %d drawables", len(l))
	}

	// removedisplay: cannot remove the active one.
	rm, _ := g.AddBox("removedisplay", Params{"name": "both"})
	wire(t, g, cb, rm)
	if _, err := ev.Eval(context.Background(), Request{Box: rm.ID}); err == nil {
		t.Error("removing active display accepted")
	}
	g.Touch(rm.ID)
	if err := g.SetParams(rm.ID, Params{"name": "circ"}); err != nil {
		t.Fatal(err)
	}
	e = demandR(t, ev, rm.ID)
	if e.DisplayIndex("circ") >= 0 {
		t.Error("removedisplay left the display")
	}

	// swapattr on displays.
	sw, _ := g.AddBox("swapattr", Params{"a": "both", "b": "display"})
	wire(t, g, rm, sw)
	e = demandR(t, ev, sw.ID)
	if e.Displays[0].Name != "display" {
		t.Errorf("swap made %q active", e.Displays[0].Name)
	}
}

func TestSetRangeBox(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	sr, _ := g.AddBox("setrange", Params{"lo": "2", "hi": "10"})
	wire(t, g, tb, sr)
	e := demandR(t, ev, sr.ID)
	if e.ElevRange != (geom.Range{Lo: 2, Hi: 10}) {
		t.Errorf("range = %v", e.ElevRange)
	}
	bad, _ := g.AddBox("setrange", Params{"lo": "10", "hi": "2"})
	wire(t, g, sr, bad)
	if _, err := ev.Eval(context.Background(), Request{Box: bad.ID}); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestOverlayShuffleBoxes(t *testing.T) {
	g, ev := newTestGraph(t)
	t1, _ := g.AddBox("table", Params{"name": "Stations"})
	t2, _ := g.AddBox("table", Params{"name": "LouisianaMap"})
	ov, _ := g.AddBox("overlay", Params{"offset": "1,2"})
	if err := g.Connect(t1.ID, 0, ov.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(t2.ID, 0, ov.ID, 1); err != nil {
		t.Fatal(err)
	}
	res, err := ev.Eval(context.Background(), Request{Box: ov.ID})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := res.Value.(*display.Composite)
	if !ok {
		t.Fatalf("overlay output %T", res.Value)
	}
	if len(c.Layers) != 2 {
		t.Fatalf("%d layers", len(c.Layers))
	}
	if c.Layers[1].Offset[0] != 1 || c.Layers[1].Offset[1] != 2 {
		t.Errorf("offset = %v", c.Layers[1].Offset)
	}

	sh, _ := g.AddBox("shuffle", Params{"layer": "0"})
	if err := g.Connect(ov.ID, 0, sh.ID, 0); err != nil {
		t.Fatal(err)
	}
	res, err = ev.Eval(context.Background(), Request{Box: sh.ID})
	if err != nil {
		t.Fatal(err)
	}
	c2 := res.Value.(*display.Composite)
	if c2.Layers[1].Ext.Label != c.Layers[0].Ext.Label {
		t.Error("shuffle did not move layer 0 to top")
	}
	// Input composite not mutated.
	res, _ = ev.Eval(context.Background(), Request{Box: ov.ID})
	if res.Value.(*display.Composite).Layers[0].Ext.Label != c.Layers[0].Ext.Label {
		t.Error("shuffle mutated its input")
	}
}

func TestStitchBox(t *testing.T) {
	g, ev := newTestGraph(t)
	t1, _ := g.AddBox("table", Params{"name": "Stations"})
	t2, _ := g.AddBox("table", Params{"name": "Observations"})
	st, _ := g.AddBox("stitch", Params{"n": "2", "layout": "vertical"})
	_ = g.Connect(t1.ID, 0, st.ID, 0)
	_ = g.Connect(t2.ID, 0, st.ID, 1)
	res, err := ev.Eval(context.Background(), Request{Box: st.ID})
	if err != nil {
		t.Fatal(err)
	}
	grp, ok := res.Value.(*display.Group)
	if !ok {
		t.Fatalf("stitch output %T", res.Value)
	}
	if len(grp.Members) != 2 || grp.Layout != display.Vertical {
		t.Fatalf("group %+v", grp)
	}
	if _, err := g.AddBox("stitch", Params{"n": "0"}); err == nil {
		t.Error("stitch n=0 accepted")
	}
	if _, err := g.AddBox("stitch", Params{"n": "2", "layout": "diagonal"}); err == nil {
		// Layout is validated at fire time, not port time; check fire.
		t.Log("layout validated at fire time")
	}
}

func TestReplicateBox(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	rep, _ := g.AddBox("replicate", Params{"preds": "altitude < 100; altitude >= 100"})
	wire(t, g, tb, rep)
	res, err := ev.Eval(context.Background(), Request{Box: rep.ID})
	if err != nil {
		t.Fatal(err)
	}
	grp := res.Value.(*display.Group)
	if len(grp.Members) != 2 {
		t.Fatalf("%d replicas", len(grp.Members))
	}
	n0 := grp.Members[0].Layers[0].Ext.Rel.Len()
	n1 := grp.Members[1].Layers[0].Ext.Rel.Len()
	if n0+n1 != 40 {
		t.Errorf("replicas hold %d + %d tuples", n0, n1)
	}

	// rep outputs G; replicate takes R: that connection must fail.
	rep2, _ := g.AddBox("replicate", Params{"preds": "true"})
	if err := g.Connect(rep.ID, 0, rep2.ID, 0); err == nil {
		t.Error("G output fed into replicate's R input")
	}
}

func TestReplicateTabularCross(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	rep, _ := g.AddBox("replicate", Params{
		"preds": "altitude < 100; altitude >= 100",
		"attr":  "state",
	})
	wire(t, g, tb, rep)
	res, err := ev.Eval(context.Background(), Request{Box: rep.ID})
	if err != nil {
		t.Fatal(err)
	}
	grp := res.Value.(*display.Group)
	if grp.Layout != display.Tabular || grp.Cols != 2 {
		t.Fatalf("cross replication layout %v cols %d", grp.Layout, grp.Cols)
	}
	if len(grp.Members)%2 != 0 {
		t.Fatalf("cross replication produced %d members", len(grp.Members))
	}
}

func TestLiftBoxes(t *testing.T) {
	g, ev := newTestGraph(t)
	t1, _ := g.AddBox("table", Params{"name": "Stations"})
	t2, _ := g.AddBox("table", Params{"name": "LouisianaMap"})
	ov, _ := g.AddBox("overlay", nil)
	_ = g.Connect(t1.ID, 0, ov.ID, 0)
	_ = g.Connect(t2.ID, 0, ov.ID, 1)

	// Lift a restrict onto layer 0 of the composite.
	lift, _ := g.AddBox("liftc", LiftParams("restrict", Params{"pred": "state = 'LA'"}, 0, 0))
	_ = g.Connect(ov.ID, 0, lift.ID, 0)
	res, err := ev.Eval(context.Background(), Request{Box: lift.ID})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Value.(*display.Composite)
	if len(c.Layers) != 2 {
		t.Fatal("lift changed composite shape")
	}
	if c.Layers[0].Ext.Rel.Len() >= 40 {
		t.Error("lifted restrict did not filter")
	}
	if c.Layers[1].Ext.Rel.Len() != workloadMapLen() {
		t.Error("lift touched the unselected layer")
	}

	// liftg over a stitch.
	st, _ := g.AddBox("stitch", Params{"n": "1"})
	_ = g.Connect(lift.ID, 0, st.ID, 0)
	lg, _ := g.AddBox("liftg", LiftParams("project", Params{"attrs": "id,state"}, 0, 0))
	_ = g.Connect(st.ID, 0, lg.ID, 0)
	res, err = ev.Eval(context.Background(), Request{Box: lg.ID})
	if err != nil {
		t.Fatal(err)
	}
	grp := res.Value.(*display.Group)
	if grp.Members[0].Layers[0].Ext.Rel.Schema().Len() != 2 {
		t.Error("lifted project did not apply")
	}

	// Bad selections and non-R->R kinds fail.
	badSel, _ := g.AddBox("liftc", LiftParams("restrict", Params{"pred": "true"}, 0, 9))
	_ = g.Connect(lg.ID, 0, badSel.ID, 0)
	_ = badSel
	if _, err := ev.Eval(context.Background(), Request{Box: badSel.ID}); err == nil {
		t.Error("bad selection accepted")
	}
	badKind, _ := g.AddBox("liftc", LiftParams("join", Params{"pred": "true"}, 0, 0))
	_ = g.Connect(ov.ID, 0, badKind.ID, 0)
	if _, err := ev.Eval(context.Background(), Request{Box: badKind.ID}); err == nil {
		t.Error("non-R->R kind accepted")
	}
}

func workloadMapLen() int {
	src := testSource()
	m, _ := src.Table("LouisianaMap")
	return m.Len()
}
