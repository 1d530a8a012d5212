package core

import (
	"context"
	"testing"

	"repro/internal/dataflow"
)

func TestProgramOpsFigure2(t *testing.T) {
	env := seededEnv(t)

	// Add Table (special case of Apply Box with zero inputs).
	tb, err := env.AddTable("Stations")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.AddTable("Nope"); err == nil {
		t.Error("Add Table accepted a missing table")
	}

	// Apply Box: the menu for an R edge includes the database operations.
	menu := env.ApplyBox([]dataflow.PortType{dataflow.RType})
	if len(menu) < 5 {
		t.Fatalf("Apply Box menu too small: %v", menu)
	}

	// Build: table -> restrict -> project.
	rb, err := env.AddBox("restrict", dataflow.Params{"pred": "state = 'LA'"})
	if err != nil {
		t.Fatal(err)
	}
	pj, err := env.AddBox("project", dataflow.Params{"attrs": "id,name"})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Connect(tb.ID, 0, rb.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := env.Connect(rb.ID, 0, pj.ID, 0); err != nil {
		t.Fatal(err)
	}

	// T box on the restrict->project edge.
	tbox, err := env.InsertT(pj.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Program.Boxes()) != 4 {
		t.Fatalf("%d boxes", len(env.Program.Boxes()))
	}

	// Replace Box: restrict -> sample.
	if _, err := env.ReplaceBox(rb.ID, "sample", dataflow.Params{"p": "0.9"}); err != nil {
		t.Fatal(err)
	}
	b, _ := env.Program.Box(rb.ID)
	if b.Kind != "sample" {
		t.Fatal("replace did not apply")
	}

	// Undo the replace: restrict returns.
	if err := env.Undo(); err != nil {
		t.Fatal(err)
	}
	b, _ = env.Program.Box(rb.ID)
	if b.Kind != "restrict" {
		t.Fatalf("undo of replace left %q", b.Kind)
	}

	// Undo the T insertion: the direct edge returns.
	if err := env.Undo(); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Program.Box(tbox.ID); err == nil {
		t.Fatal("undo of InsertT left the T box")
	}
	e, ok := env.Program.InputEdge(pj.ID, 0)
	if !ok || e.From != rb.ID {
		t.Fatal("undo of InsertT did not restore the edge")
	}

	// Save / Load Program round trip.
	if err := env.SaveProgram("fig2"); err != nil {
		t.Fatal(err)
	}
	if err := env.NewProgram(); err != nil {
		t.Fatal(err)
	}
	if len(env.Program.Boxes()) != 0 {
		t.Fatal("New Program left boxes")
	}
	mapping, err := env.LoadProgram("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Program.Boxes()) != 3 {
		t.Fatalf("loaded %d boxes", len(env.Program.Boxes()))
	}
	// Add Program merges a second copy alongside.
	if _, err := env.AddProgram("fig2"); err != nil {
		t.Fatal(err)
	}
	if len(env.Program.Boxes()) != 6 {
		t.Fatalf("after Add Program %d boxes", len(env.Program.Boxes()))
	}
	_ = mapping

	// Undo Add Program.
	if err := env.Undo(); err != nil {
		t.Fatal(err)
	}
	if len(env.Program.Boxes()) != 3 {
		t.Fatalf("undo of Add Program left %d boxes", len(env.Program.Boxes()))
	}

	// Delete Box legality surfaced through the environment.
	loaded := env.Program.Boxes()
	var loadedRestrict *dataflow.Box
	for _, b := range loaded {
		if b.Kind == "restrict" {
			loadedRestrict = b
		}
	}
	if err := env.DeleteBox(loadedRestrict.ID); err != nil {
		t.Fatalf("splice delete through env: %v", err)
	}
	if err := env.Undo(); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Program.Box(loadedRestrict.ID); err != nil {
		t.Fatal("undo of delete did not restore the box")
	}
}

func TestEncapsulateThroughEnvironment(t *testing.T) {
	env := seededEnv(t)
	tb, _ := env.AddTable("Stations")
	rb, _ := env.AddBox("restrict", dataflow.Params{"pred": "state = 'LA'"})
	pj, _ := env.AddBox("project", dataflow.Params{"attrs": "id,name,state"})
	srt, _ := env.AddBox("sort", dataflow.Params{"attr": "id"})
	_ = env.Connect(tb.ID, 0, rb.ID, 0)
	_ = env.Connect(rb.ID, 0, pj.ID, 0)
	_ = env.Connect(pj.ID, 0, srt.ID, 0)

	// Encapsulate restrict+project with project as a hole; stored in the
	// database.
	def, err := env.Encapsulate("laPipeline", []int{rb.ID, pj.ID}, [][]int{{pj.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Holes) != 1 {
		t.Fatal("hole lost")
	}
	if got := env.DB.DefNames(); len(got) != 1 || got[0] != "laPipeline" {
		t.Fatalf("DefNames = %v", got)
	}

	// Instantiate from the database with a different projection plugged
	// in.
	inst, err := env.AddEncapsulated("laPipeline", []dataflow.Filler{
		{Kind: "project", Params: dataflow.Params{"attrs": "id,altitude,state"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb2, _ := env.AddTable("Stations")
	if err := env.Connect(tb2.ID, 0, inst.Inputs[0].Box, inst.Inputs[0].Port); err != nil {
		t.Fatal(err)
	}
	res, err := env.Eval.Eval(context.Background(), dataflow.Request{Box: inst.Outputs[0].Box, Port: inst.Outputs[0].Port})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := dataflow.ValueType(res.Value)
	if err != nil || !pt.Equal(dataflow.RType) {
		t.Fatalf("encapsulated output type %v %v", pt, err)
	}
	if _, err := env.AddEncapsulated("ghost", nil); err == nil {
		t.Error("missing definition accepted")
	}
}

func TestViewerOnAnyEdge(t *testing.T) {
	// The Tioga debugging problem (Section 1.1): Tioga-2 fixes it by
	// allowing a viewer on any arc. Build a 3-stage pipeline and attach a
	// viewer to the intermediate edge via a T box.
	env := seededEnv(t)
	tb, _ := env.AddTable("Stations")
	rb, _ := env.AddBox("restrict", dataflow.Params{"pred": "state = 'LA'"})
	pj, _ := env.AddBox("project", dataflow.Params{"attrs": "id"})
	_ = env.Connect(tb.ID, 0, rb.ID, 0)
	_ = env.Connect(rb.ID, 0, pj.ID, 0)

	tbox, err := env.InsertT(pj.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := env.AddViewer("intermediate", tbox.ID, 1, 320, 240)
	if err != nil {
		t.Fatal(err)
	}
	v.CullMargin = 600
	if err := v.PanTo(0, 200, -50); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElevation(0, 80); err != nil {
		t.Fatal(err)
	}
	_, stats, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DisplaysEvaled == 0 {
		t.Fatal("intermediate viewer rendered nothing")
	}
	// The tapped edge carries the restricted (not projected) relation.
	d, err := env.Demand("intermediate")
	if err != nil {
		t.Fatal(err)
	}
	if d.Dim() != 2 {
		t.Fatal("unexpected dimensionality")
	}
}

func TestLiftedOperationsFigure3(t *testing.T) {
	// Section 2's overloading: a Restrict pointed at a composite.
	env := seededEnv(t)
	st, _ := env.AddTable("Stations")
	mp, _ := env.AddTable("LouisianaMap")
	ov, _ := env.AddBox("overlay", nil)
	_ = env.Connect(st.ID, 0, ov.ID, 0)
	_ = env.Connect(mp.ID, 0, ov.ID, 1)

	lift, err := env.AddBox("liftc", dataflow.LiftParams("restrict", dataflow.Params{"pred": "state = 'LA'"}, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Connect(ov.ID, 0, lift.ID, 0); err != nil {
		t.Fatal(err)
	}
	res, err := env.Eval.Eval(context.Background(), dataflow.Request{Box: lift.ID})
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := dataflow.ValueType(res.Value)
	if !pt.Equal(dataflow.CType) {
		t.Fatalf("lifted output type %v", pt)
	}
}

func TestCanvasRegistry(t *testing.T) {
	env := seededEnv(t)
	tb, _ := env.AddTable("Stations")
	if _, err := env.AddViewer("c1", tb.ID, 0, 100, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Canvas("c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Canvas("ghost"); err == nil {
		t.Error("missing canvas accepted")
	}
	if _, err := env.AddViewer("c1", tb.ID, 0, 100, 100); err == nil {
		t.Error("duplicate canvas accepted")
	}
	if got := env.CanvasNames(); len(got) != 1 {
		t.Errorf("CanvasNames = %v", got)
	}
	if env.Nav == nil {
		t.Error("navigator not initialized with first canvas")
	}
	// Menus.
	if len(env.Tables()) != 4 {
		t.Errorf("Tables = %v", env.Tables())
	}
	if len(env.BoxKinds()) < 20 {
		t.Errorf("BoxKinds = %d", len(env.BoxKinds()))
	}
}

func TestUndoEmpty(t *testing.T) {
	env := seededEnv(t)
	if err := env.Undo(); err == nil {
		t.Error("undo on empty stack accepted")
	}
	if env.UndoDepth() != 0 {
		t.Error("depth")
	}
}

func TestWarningsTaken(t *testing.T) {
	env := seededEnv(t)
	env.warnf("test %d", 1)
	w := env.TakeWarnings()
	if len(w) != 1 || w[0] != "test 1" {
		t.Errorf("warnings = %v", w)
	}
	if len(env.TakeWarnings()) != 0 {
		t.Error("warnings not cleared")
	}
}

func TestApplyToSelection(t *testing.T) {
	env := seededEnv(t)
	st, _ := env.AddTable("Stations")
	mp, _ := env.AddTable("LouisianaMap")
	ov, _ := env.AddBox("overlay", nil)
	_ = env.Connect(st.ID, 0, ov.ID, 0)
	_ = env.Connect(mp.ID, 0, ov.ID, 1)

	// On a plain R edge the box is inserted directly.
	direct, err := env.ApplyToSelection(st.ID, 0, "restrict", dataflow.Params{"pred": "state = 'LA'"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Kind != "restrict" {
		t.Fatalf("direct apply inserted %q", direct.Kind)
	}

	// On a C edge the operation is lifted.
	lifted, err := env.ApplyToSelection(ov.ID, 0, "restrict", dataflow.Params{"pred": "state = 'LA'"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lifted.Kind != "liftc" {
		t.Fatalf("composite apply inserted %q", lifted.Kind)
	}
	res, err := env.Eval.Eval(context.Background(), dataflow.Request{Box: lifted.ID})
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := dataflow.ValueType(res.Value)
	if !pt.Equal(dataflow.CType) {
		t.Fatalf("lifted output %v", pt)
	}

	// On a G edge (stitch output) liftg is used.
	stch, _ := env.AddBox("stitch", dataflow.Params{"n": "1"})
	_ = env.Connect(lifted.ID, 0, stch.ID, 0)
	g, err := env.ApplyToSelection(stch.ID, 0, "project", dataflow.Params{"attrs": "id,state"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != "liftg" {
		t.Fatalf("group apply inserted %q", g.Kind)
	}
	if _, err := env.ApplyToSelection(999, 0, "restrict", nil, 0, 0); err == nil {
		t.Error("missing box accepted")
	}
	if _, err := env.ApplyToSelection(st.ID, 5, "restrict", nil, 0, 0); err == nil {
		t.Error("missing port accepted")
	}
}

func TestEnvDisconnectAndSetParams(t *testing.T) {
	env := seededEnv(t)
	tb, _ := env.AddTable("Stations")
	rb, _ := env.AddBox("restrict", dataflow.Params{"pred": "state = 'LA'"})
	if err := env.Connect(tb.ID, 0, rb.ID, 0); err != nil {
		t.Fatal(err)
	}
	// SetParams through the environment is undoable.
	if err := env.SetParams(rb.ID, dataflow.Params{"pred": "state = 'TX'"}); err != nil {
		t.Fatal(err)
	}
	b, _ := env.Program.Box(rb.ID)
	if b.Params["pred"] != "state = 'TX'" {
		t.Fatal("SetParams did not apply")
	}
	if err := env.Undo(); err != nil {
		t.Fatal(err)
	}
	b, _ = env.Program.Box(rb.ID)
	if b.Params["pred"] != "state = 'LA'" {
		t.Fatalf("undo of SetParams left %q", b.Params["pred"])
	}

	// Disconnect is undoable too.
	if err := env.Disconnect(rb.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Program.InputEdge(rb.ID, 0); ok {
		t.Fatal("disconnect did not apply")
	}
	if err := env.Undo(); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Program.InputEdge(rb.ID, 0); !ok {
		t.Fatal("undo of disconnect did not restore the edge")
	}
}

func TestAddViewerSingleUndo(t *testing.T) {
	env := seededEnv(t)
	tb, _ := env.AddTable("Stations")
	before := env.UndoDepth()
	if _, err := env.AddViewer("uv", tb.ID, 0, 50, 50); err != nil {
		t.Fatal(err)
	}
	if env.UndoDepth() != before+1 {
		t.Fatalf("AddViewer pushed %d undo entries, want 1", env.UndoDepth()-before)
	}
	if err := env.Undo(); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Canvas("uv"); err == nil {
		t.Fatal("undo left the canvas")
	}
	// The viewer box is gone from the program too.
	for _, b := range env.Program.Boxes() {
		if b.Kind == "viewer" {
			t.Fatal("undo left the viewer box")
		}
	}
}
