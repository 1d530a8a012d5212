package tioga

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// TestPublicAPIQuickstart exercises the facade exactly as README's
// quickstart does: seed, build, view, render, update, undo.
func TestPublicAPIQuickstart(t *testing.T) {
	env, err := NewSeededEnvironment(100, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := env.AddTable("Stations")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := env.AddBox("restrict", Params{"pred": "state = 'LA'"})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Connect(tb.ID, 0, rb.ID, 0); err != nil {
		t.Fatal(err)
	}
	v, err := env.AddViewer("Louisiana", rb.ID, 0, 320, 240)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.PanTo(0, 250, -60); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElevation(0, 80); err != nil {
		t.Fatal(err)
	}
	img, stats, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DisplaysEvaled == 0 {
		t.Fatal("nothing rendered")
	}
	var buf bytes.Buffer
	if err := img.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty png")
	}

	// Update through the canvas and undo it.
	h := v.Hits()[0]
	cx := (h.Screen.Min.X + h.Screen.Max.X) / 2
	cy := (h.Screen.Min.Y + h.Screen.Max.Y) / 2
	if err := env.UpdateAt("Louisiana", cx, cy, "altitude", "5.5"); err != nil {
		t.Fatal(err)
	}
	if err := env.Undo(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIStandaloneViewer(t *testing.T) {
	st := GenStations(50, 3)
	fn, err := ParseDisplaySpec("circle r=0.1 color=red + text attr=name size=0.02 dy=-0.3")
	if err != nil {
		t.Fatal(err)
	}
	e, err := ExtendedSpec{Label: "stations", Rel: st, LocAttrs: []string{"longitude", "latitude"}, Display: fn}.Build()
	if err != nil {
		t.Fatal(err)
	}
	v := ViewerSpec{Name: "standalone", D: e, W: 200, H: 150}.Build()
	if err := v.PanTo(0, -100, 37); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElevation(0, 25); err != nil {
		t.Fatal(err)
	}
	if _, stats, err := v.Render(); err != nil || stats.DisplaysEvaled == 0 {
		t.Fatalf("standalone render: %v, %d displays", err, stats.DisplaysEvaled)
	}
}

func TestPublicAPIFigures(t *testing.T) {
	env, err := NewSeededEnvironment(100, 132, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Figure4(env); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure10(env); err != nil {
		t.Fatal(err)
	}
	if len(env.CanvasNames()) != 2 {
		t.Fatalf("canvases %v", env.CanvasNames())
	}
}

func TestPublicAPIExpr(t *testing.T) {
	if _, err := ParseExpr("year(obs_date) < 1990 and state = 'LA'"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseExpr("(("); err == nil {
		t.Fatal("bad expr accepted")
	}
}

func TestPublicAPISlavingAndLift(t *testing.T) {
	st := GenStations(30, 2)
	fn, err := ParseDisplaySpec("circle r=0.1")
	if err != nil {
		t.Fatal(err)
	}
	e, err := ExtendedSpec{Label: "s", Rel: st, LocAttrs: []string{"longitude", "latitude"}, Display: fn}.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := ViewerSpec{Name: "a", D: e, W: 100, H: 100}.Build()
	b := ViewerSpec{Name: "b", D: e, W: 100, H: 100}.Build()
	if err := Slave(a, 0, b, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Pan(0, 5, 0); err != nil {
		t.Fatal(err)
	}
	stB, _ := b.State(0)
	if stB.Center.X != 5 {
		t.Fatal("facade slaving broken")
	}
	Unslave(a, 0, b, 0)

	p := LiftParams("restrict", Params{"pred": "true"}, 1, 2)
	if p["kind"] != "restrict" || p["member"] != "1" || p["op.pred"] != "true" {
		t.Fatalf("LiftParams = %v", p)
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	db := NewDatabase()
	st := GenStations(10, 1)
	if err := db.CreateTable(st); err != nil {
		t.Fatal(err)
	}
	obs, err := GenObservations(st, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Len() != 60 {
		t.Fatalf("obs len %d", obs.Len())
	}
	if GenLouisianaMap().Len() == 0 || GenSales(5, 1).Len() != 5 {
		t.Fatal("generators broken")
	}
}

func TestPublicAPIFigureBuilders(t *testing.T) {
	env, err := NewSeededEnvironment(80, 132, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Figure1(env); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure7(env); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Figure8(env); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Figure9(env); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure11(env); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISpecBuilders(t *testing.T) {
	st := GenStations(20, 1)
	fn, err := ParseDisplaySpec("circle r=0.1 color=blue")
	if err != nil {
		t.Fatal(err)
	}
	alt, err := ParseDisplaySpec("rect w=0.2 h=0.2")
	if err != nil {
		t.Fatal(err)
	}
	e, err := ExtendedSpec{
		Label:    "stations",
		Rel:      st,
		LocAttrs: []string{"longitude", "latitude"},
		Display:  fn,
		Extra:    []NamedDisplay{{Name: "boxes", Fn: alt}},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Displays) != 2 || e.Displays[0].Name != "display" || e.Displays[1].Name != "boxes" {
		t.Fatalf("displays = %v", e.Displays)
	}
	// Missing required fields are rejected, not silently defaulted.
	if _, err := (ExtendedSpec{Label: "x", Rel: st}).Build(); err == nil {
		t.Fatal("spec without location attributes accepted")
	}

	v := ViewerSpec{Name: "v", D: e}.Build()
	if v.W != 640 || v.H != 480 {
		t.Fatalf("zero-valued size did not default: %dx%d", v.W, v.H)
	}
	v2 := ViewerSpec{Name: "v2", D: e, W: 100, H: 80, Parallel: true}.Build()
	if v2.W != 100 || v2.H != 80 || !v2.Parallel {
		t.Fatalf("spec fields not honored: %dx%d parallel=%v", v2.W, v2.H, v2.Parallel)
	}
}

func TestPublicAPIEval(t *testing.T) {
	env, err := NewSeededEnvironment(40, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := env.AddTable("Stations")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := env.AddBox("restrict", Params{"pred": "state = 'LA'"})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Connect(tb.ID, 0, rb.ID, 0); err != nil {
		t.Fatal(err)
	}
	res, err := env.Eval.Eval(context.Background(), EvalRequest{Box: rb.ID},
		WithWorkers(2), WithEvalLabel("facade"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value == nil || res.Fires != 2 || res.Label != "facade" {
		t.Fatalf("result = %+v", res)
	}

	// The typed error surfaces through the facade aliases.
	dangling, err := env.AddBox("restrict", Params{"pred": "true"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = env.Eval.Eval(context.Background(), EvalRequest{Box: dangling.ID}, WithWorkers(1))
	var ee *EvalError
	if !errors.As(err, &ee) || ee.Box != dangling.ID {
		t.Fatalf("facade error = %v (%T)", err, err)
	}
}
