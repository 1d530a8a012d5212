package core

import (
	"errors"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/draw"
	"repro/internal/viewer"
)

func seededEnv(t testing.TB) *Environment {
	t.Helper()
	env, err := NewSeededEnvironment(workloadStations, 132, 42)
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	return env
}

const workloadStations = 200

func TestFigure1TableView(t *testing.T) {
	env := seededEnv(t)
	canvas, err := Figure1(env)
	if err != nil {
		t.Fatalf("figure 1: %v", err)
	}
	v, err := env.Canvas(canvas)
	if err != nil {
		t.Fatal(err)
	}
	img, stats, err := v.Render()
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	if stats.DisplaysEvaled == 0 {
		t.Fatalf("no tuples rendered; stats %+v", stats)
	}
	if n := img.CountNonBackground(draw.White); n < 500 {
		t.Fatalf("table view looks empty: %d non-background pixels", n)
	}
	if stats.DisplayErrors > 0 {
		t.Fatalf("%d display errors", stats.DisplayErrors)
	}
}

func TestFigure4StationMap(t *testing.T) {
	env := seededEnv(t)
	canvas, err := Figure4(env)
	if err != nil {
		t.Fatalf("figure 4: %v", err)
	}
	v, err := env.Canvas(canvas)
	if err != nil {
		t.Fatal(err)
	}
	img, stats, err := v.Render()
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	// Exactly the Louisiana stations (every 4th of the generated set)
	// should be drawn.
	want := workloadStations / 4
	if stats.DisplaysEvaled != want {
		t.Errorf("rendered %d stations, want %d", stats.DisplaysEvaled, want)
	}
	if stats.DisplayErrors > 0 {
		t.Fatalf("%d display errors", stats.DisplayErrors)
	}
	if n := img.CountNonBackground(draw.White); n < 200 {
		t.Fatalf("map looks empty: %d non-background pixels", n)
	}
	// The altitude slider restricts visible stations (Section 5.1).
	if err := v.SetSlider(0, 0, 0, 10); err != nil {
		t.Fatalf("slider: %v", err)
	}
	_, stats2, err := v.Render()
	if err != nil {
		t.Fatalf("render with slider: %v", err)
	}
	if stats2.DisplaysEvaled >= stats.DisplaysEvaled {
		t.Errorf("slider did not cull: %d -> %d", stats.DisplaysEvaled, stats2.DisplaysEvaled)
	}
}

func TestFigure7DrillDown(t *testing.T) {
	env := seededEnv(t)
	canvas, err := Figure7(env)
	if err != nil {
		t.Fatalf("figure 7: %v", err)
	}
	if len(env.TakeWarnings()) == 0 {
		t.Error("expected a dimension-mismatch warning from the map overlay")
	}
	v, err := env.Canvas(canvas)
	if err != nil {
		t.Fatal(err)
	}

	// At elevation 10 only the map and plain circles are visible.
	_, statsHigh, err := v.Render()
	if err != nil {
		t.Fatalf("render high: %v", err)
	}
	em, err := v.ElevationMap(0)
	if err != nil {
		t.Fatalf("elevation map: %v", err)
	}
	if len(em) != 3 {
		t.Fatalf("elevation map has %d entries, want 3 (map, circles, labels)", len(em))
	}

	// Drill down below elevation 3: the labeled layer joins in.
	if err := v.SetElevation(0, 2); err != nil {
		t.Fatal(err)
	}
	_, statsLow, err := v.Render()
	if err != nil {
		t.Fatalf("render low: %v", err)
	}
	if statsLow.DisplaysEvaled <= statsHigh.DisplaysEvaled {
		t.Errorf("drill down did not reveal more detail: high=%d low=%d displays",
			statsHigh.DisplaysEvaled, statsLow.DisplaysEvaled)
	}

	// Elevation-map direct manipulation: hide the labels again by
	// overriding their range.
	if err2 := vSetLabelRangeOff(v, em); err2 != nil {
		t.Fatal(err2)
	}
	_, statsOverride, err := v.Render()
	if err != nil {
		t.Fatalf("render with override: %v", err)
	}
	if statsOverride.DisplaysEvaled >= statsLow.DisplaysEvaled {
		t.Errorf("range override did not hide labels: %d -> %d",
			statsLow.DisplaysEvaled, statsOverride.DisplaysEvaled)
	}
}

// vSetLabelRangeOff finds the labeled layer (range hi = 3) and overrides
// it to an empty elevation window.
func vSetLabelRangeOff(v *viewer.Viewer, em []viewer.ElevationEntry) error {
	for i, e := range em {
		if e.Range.Hi == 3 {
			v.SetLayerRange(0, i, 500, 600)
			return nil
		}
	}
	return errors.New("no label layer with range hi=3 found in elevation map")
}

func TestFigure8WormholeAndMirror(t *testing.T) {
	env := seededEnv(t)
	mapCanvas, destCanvas, nav, err := Figure8(env)
	if err != nil {
		t.Fatalf("figure 8: %v", err)
	}
	mv, err := env.Canvas(mapCanvas)
	if err != nil {
		t.Fatal(err)
	}

	// At elevation 2.2 the wormhole layer (range 0..0.5) is hidden.
	if _, _, err := mv.Render(); err != nil {
		t.Fatal(err)
	}
	for _, h := range mv.Hits() {
		if h.Wormhole != nil {
			t.Fatalf("wormhole visible at elevation 2.2; Set Range should hide it")
		}
	}

	// Zoom onto a station: pick the first hit and center there.
	hits := mv.Hits()
	if len(hits) == 0 {
		t.Fatal("no stations rendered")
	}
	// Resolve the hit's tuple location to canvas coordinates.
	row := hits[0].Ext.Rel.Row(hits[0].Row)
	lon, _ := row.Attr("longitude").AsFloat()
	lat, _ := row.Attr("latitude").AsFloat()
	if err := mv.PanTo(0, lon, lat); err != nil {
		t.Fatal(err)
	}
	if err := mv.SetElevation(0, 0.4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mv.Render(); err != nil {
		t.Fatal(err)
	}
	sawWormhole := false
	for _, h := range mv.Hits() {
		if h.Wormhole != nil {
			sawWormhole = true
			if h.Wormhole.DestCanvas != destCanvas {
				t.Errorf("wormhole leads to %q, want %q", h.Wormhole.DestCanvas, destCanvas)
			}
		}
	}
	if !sawWormhole {
		t.Fatal("zooming in did not reveal the wormhole layer")
	}

	// Descend to zero elevation over the wormhole: pass through.
	passed, err := nav.Descend(0)
	if err != nil {
		t.Fatalf("descend: %v", err)
	}
	if !passed {
		t.Fatal("descending to zero elevation over a wormhole did not traverse it")
	}
	cur, err := nav.Current()
	if err != nil {
		t.Fatal(err)
	}
	if cur.Name != destCanvas {
		t.Fatalf("after traversal on %q, want %q", cur.Name, destCanvas)
	}
	if len(nav.History()) != 1 {
		t.Fatalf("history depth %d, want 1", len(nav.History()))
	}

	// The rear view mirror shows the underside of the map canvas: the
	// WAY-BACK markers with negative elevation ranges.
	mirror, err := nav.RenderMirror(320, 240)
	if err != nil {
		t.Fatalf("mirror: %v", err)
	}
	if mirror == nil {
		t.Fatal("no mirror image after traversal")
	}
	if n := mirror.CountNonBackground(draw.White); n == 0 {
		t.Error("mirror is blank; underside layer did not render")
	}

	// Go back home.
	if err := nav.GoBack(); err != nil {
		t.Fatalf("go back: %v", err)
	}
	cur, _ = nav.Current()
	if cur.Name != mapCanvas {
		t.Fatalf("go back landed on %q, want %q", cur.Name, mapCanvas)
	}
	if len(nav.History()) != 0 {
		t.Fatalf("history depth %d after go back, want 0", len(nav.History()))
	}
}

func TestFigure9Magnifier(t *testing.T) {
	env := seededEnv(t)
	canvas, mag, err := Figure9(env)
	if err != nil {
		t.Fatalf("figure 9: %v", err)
	}
	outer, err := env.Canvas(canvas)
	if err != nil {
		t.Fatal(err)
	}
	img, stats, err := outer.Render()
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	if stats.DisplayErrors > 0 {
		t.Fatalf("%d display errors", stats.DisplayErrors)
	}
	// The magnifier interior must have drawn something inside its rect.
	r := mag.ScreenRect
	if !img.SubImageNonBackground(int(r.Min.X)+3, int(r.Min.Y)+3, int(r.Max.X)-3, int(r.Max.Y)-3, draw.White) {
		t.Error("magnifier interior is blank")
	}

	// Slaving: panning the outer viewer drags the lens.
	innerBefore, err := mag.Inner.State(0)
	if err != nil {
		t.Fatal(err)
	}
	cx := innerBefore.Center.X
	if err := outer.Pan(0, 10, 0); err != nil {
		t.Fatal(err)
	}
	innerAfter, err := mag.Inner.State(0)
	if err != nil {
		t.Fatal(err)
	}
	if innerAfter.Center.X != cx+10 {
		t.Errorf("slaved lens did not follow: %g -> %g", cx, innerAfter.Center.X)
	}
}

func TestFigure10StitchAndSlave(t *testing.T) {
	env := seededEnv(t)
	canvas, err := Figure10(env)
	if err != nil {
		t.Fatalf("figure 10: %v", err)
	}
	v, err := env.Canvas(canvas)
	if err != nil {
		t.Fatal(err)
	}
	img, stats, err := v.Render()
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	if stats.DisplayErrors > 0 {
		t.Fatalf("%d display errors", stats.DisplayErrors)
	}
	// Both stitched halves must contain marks.
	if !img.SubImageNonBackground(10, 10, 630, 310, draw.White) {
		t.Error("top (temperature) half is blank")
	}
	if !img.SubImageNonBackground(10, 330, 630, 630, draw.White) {
		t.Error("bottom (precipitation) half is blank")
	}

	// Slaved date ranges: panning member 0 moves member 1.
	st1, _ := v.State(1)
	x1 := st1.Center.X
	if err := v.Pan(0, 12, 0); err != nil {
		t.Fatal(err)
	}
	st1after, _ := v.State(1)
	if st1after.Center.X != x1+12 {
		t.Errorf("slaved member 1 did not follow: %g -> %g", x1, st1after.Center.X)
	}
}

func TestFigure11Replicate(t *testing.T) {
	env := seededEnv(t)
	canvas, err := Figure11(env)
	if err != nil {
		t.Fatalf("figure 11: %v", err)
	}
	d, err := env.Demand(canvas)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := d.(interface{ Dim() int })
	if !ok {
		t.Fatalf("unexpected displayable %T", d)
	}
	_ = g
	v, err := env.Canvas(canvas)
	if err != nil {
		t.Fatal(err)
	}
	img, stats, err := v.Render()
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	if stats.DisplayErrors > 0 {
		t.Fatalf("%d display errors", stats.DisplayErrors)
	}
	// Both partitions should draw: pre-1990 on the left, post on the
	// right.
	if !img.SubImageNonBackground(10, 10, 390, 390, draw.White) {
		t.Error("pre-1990 partition is blank")
	}
	if !img.SubImageNonBackground(410, 10, 790, 390, draw.White) {
		t.Error("post-1990 partition is blank")
	}
}

func TestUpdatePath(t *testing.T) {
	env := seededEnv(t)
	canvas, err := Figure4(env)
	if err != nil {
		t.Fatal(err)
	}
	v, err := env.Canvas(canvas)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Render(); err != nil {
		t.Fatal(err)
	}
	hits := v.Hits()
	if len(hits) == 0 {
		t.Fatal("nothing rendered to click on")
	}
	h := hits[0]
	base, row := h.Ext.Rel.BaseRow(h.Row)
	if base.Name() != "Stations" {
		t.Fatalf("provenance resolved to %q, want Stations", base.Name())
	}
	before := base.Row(row).Attr("altitude")

	cx := (h.Screen.Min.X + h.Screen.Max.X) / 2
	cy := (h.Screen.Min.Y + h.Screen.Max.Y) / 2
	if err := env.UpdateAt(canvas, cx, cy, "altitude", "123.5"); err != nil {
		t.Fatalf("update: %v", err)
	}
	stations, _ := env.DB.Table("Stations")
	after := stations.Row(row).Attr("altitude")
	if after.Float() != 123.5 {
		t.Fatalf("update did not land: %s -> %s", before, after)
	}

	// The canvas sees the change on next render (table box touched).
	if _, _, err := v.Render(); err != nil {
		t.Fatalf("render after update: %v", err)
	}

	// Undo restores the old value. Writes are copy-on-write, so the
	// restored version is observed through a fresh catalog fetch.
	if err := env.Undo(); err != nil {
		t.Fatalf("undo: %v", err)
	}
	stations, _ = env.DB.Table("Stations")
	restored := stations.Row(row).Attr("altitude")
	if !restored.Equal(before) {
		t.Fatalf("undo did not restore: %s, want %s", restored, before)
	}
}

// An update reaches the base table through restrict → sort → limit:
// each of the three returns a selection of the Stations store, and the
// clicked object traces through all of them to its Stations row.
func TestUpdatePathThroughSortAndLimit(t *testing.T) {
	env := seededEnv(t)
	boxes, err := addChain(env,
		[2]interface{}{"table", dataflow.Params{"name": "Stations"}},
		[2]interface{}{"restrict", dataflow.Params{"pred": "state = 'LA'"}},
		[2]interface{}{"sort", dataflow.Params{"attr": "altitude", "desc": "true"}},
		[2]interface{}{"limit", dataflow.Params{"n": "5"}},
		[2]interface{}{"setdisplay", dataflow.Params{"name": "display", "spec": "circle r=0.05 color=blue", "active": "true"}},
		[2]interface{}{"setlocation", dataflow.Params{"attrs": "longitude,latitude,altitude"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	v, err := env.AddViewer("Highest", boxes[len(boxes)-1].ID, 0, 640, 480)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapViewDefaults(v); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Render(); err != nil {
		t.Fatal(err)
	}
	hits := v.Hits()
	if len(hits) == 0 {
		t.Fatal("nothing rendered to click on")
	}
	h := hits[len(hits)-1]
	if n := h.Ext.Rel.Len(); n != 5 {
		t.Fatalf("limit kept %d stations, want 5", n)
	}
	base, row := h.Ext.Rel.BaseRow(h.Row)
	if base.Name() != "Stations" {
		t.Fatalf("provenance resolved to %q, want Stations", base.Name())
	}
	clicked := h.Ext.Rel.Row(h.Row)
	if !base.Row(row).Attr("id").Equal(clicked.Attr("id")) {
		t.Fatalf("tuple %d traces to Stations row %d, which is another station", h.Row, row)
	}
	cx := (h.Screen.Min.X + h.Screen.Max.X) / 2
	cy := (h.Screen.Min.Y + h.Screen.Max.Y) / 2
	if err := env.UpdateAt("Highest", cx, cy, "altitude", "9999.5"); err != nil {
		t.Fatalf("update: %v", err)
	}
	stations, _ := env.DB.Table("Stations")
	if after := stations.Row(row).Attr("altitude"); after.Float() != 9999.5 {
		t.Fatalf("update did not land on Stations row %d: altitude %s", row, after)
	}
	// The updated station now sorts first.
	if _, _, err := v.Render(); err != nil {
		t.Fatalf("render after update: %v", err)
	}
	top := v.Hits()[0].Ext.Rel.Row(0)
	if !top.Attr("id").Equal(clicked.Attr("id")) || top.Attr("altitude").Float() != 9999.5 {
		t.Fatalf("after the update the first station is %v, want id %v at 9999.5", top.Attr("id"), clicked.Attr("id"))
	}
}

func TestFigure8SliderPinnedOnTraversal(t *testing.T) {
	// "The user is initially positioned viewing the data for station s"
	// (Section 6.2): traversal pins the destination's station_id slider
	// to the station whose wormhole was entered.
	env := seededEnv(t)
	mapCanvas, destCanvas, nav, err := Figure8(env)
	if err != nil {
		t.Fatal(err)
	}
	mv, _ := env.Canvas(mapCanvas)
	if _, _, err := mv.Render(); err != nil {
		t.Fatal(err)
	}
	h := mv.Hits()[0]
	row := h.Ext.Rel.Row(h.Row)
	stationID, _ := row.Attr("id").AsFloat()
	lon, _ := row.Attr("longitude").AsFloat()
	lat, _ := row.Attr("latitude").AsFloat()
	if err := mv.PanTo(0, lon, lat); err != nil {
		t.Fatal(err)
	}
	if err := mv.SetElevation(0, 0.4); err != nil {
		t.Fatal(err)
	}
	passed, err := nav.Descend(0)
	if err != nil || !passed {
		t.Fatalf("traversal: %v %v", passed, err)
	}
	dv, _ := env.Canvas(destCanvas)
	st, _ := dv.State(0)
	if len(st.Sliders) == 0 || st.Sliders[0].Lo != stationID || st.Sliders[0].Hi != stationID {
		t.Fatalf("slider not pinned to station %g: %v", stationID, st.Sliders)
	}
	// The destination renders only that station's observations.
	_, stats, err := dv.Render()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DisplaysEvaled == 0 {
		t.Fatal("destination blank")
	}
	obs, _ := env.DB.Table("Observations")
	perStation := 0
	for i := 0; i < obs.Len(); i++ {
		if v, _ := obs.Row(i).Attr("station_id").AsFloat(); v == stationID {
			perStation++
		}
	}
	if stats.DisplaysEvaled > perStation {
		t.Fatalf("destination shows %d tuples, station has %d", stats.DisplaysEvaled, perStation)
	}
}
