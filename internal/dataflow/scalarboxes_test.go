package dataflow

import (
	"context"
	"testing"

	"repro/internal/types"
)

func TestConstBox(t *testing.T) {
	g, ev := newTestGraph(t)
	c, err := g.AddBox("const", Params{"type": "float", "value": "2.5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Out) != 1 || !c.Out[0].Equal(ScalarType(types.Float)) {
		t.Fatalf("const port = %v", c.Out)
	}
	res, err := ev.Eval(context.Background(), Request{Box: c.ID})
	if err != nil {
		t.Fatal(err)
	}
	if sv := res.Value.(types.Value); sv.Float() != 2.5 {
		t.Fatalf("const = %s", sv)
	}
	// Bad type or value.
	if _, err := g.AddBox("const", Params{"type": "blob", "value": "1"}); err == nil {
		t.Error("bad type accepted")
	}
	bad, _ := g.AddBox("const", Params{"type": "int", "value": "xyz"})
	if _, err := ev.Eval(context.Background(), Request{Box: bad.ID}); err == nil {
		t.Error("unparsable value accepted")
	}
}

func TestThresholdBoxWithRuntimeParameter(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	cv, _ := g.AddBox("const", Params{"type": "float", "value": "100"})
	th, _ := g.AddBox("threshold", Params{"attr": "altitude", "op": "<="})
	if err := g.Connect(tb.ID, 0, th.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(cv.ID, 0, th.ID, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(context.Background(), Request{Box: th.ID}); err != nil {
		t.Fatal(err)
	}
	e := demandR(t, ev, th.ID)
	for i := 0; i < e.Rel.Len(); i++ {
		alt, _ := e.Rel.Row(i).Attr("altitude").AsFloat()
		if alt > 100 {
			t.Fatalf("threshold leaked altitude %g", alt)
		}
	}

	// Turning the dial re-fires: the runtime parameter is live.
	if err := g.SetParams(cv.ID, Params{"type": "float", "value": "10"}); err != nil {
		t.Fatal(err)
	}
	e2 := demandR(t, ev, th.ID)
	if e2.Rel.Len() >= e.Rel.Len() {
		t.Errorf("tighter threshold kept %d >= %d tuples", e2.Rel.Len(), e.Rel.Len())
	}

	// A scalar of the wrong kind is a connect-time type error.
	ci, _ := g.AddBox("const", Params{"type": "text", "value": "x"})
	th2, _ := g.AddBox("threshold", Params{"attr": "altitude"})
	if err := g.Connect(ci.ID, 0, th2.ID, 1); err == nil {
		t.Error("text scalar into float port accepted")
	}
	// A scalar cannot feed a displayable port.
	rb, _ := g.AddBox("restrict", Params{"pred": "true"})
	if err := g.Connect(cv.ID, 0, rb.ID, 0); err == nil {
		t.Error("scalar into R port accepted")
	}
}

func TestSamplePBox(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Observations"})
	cv, _ := g.AddBox("const", Params{"type": "float", "value": "0.25"})
	sp, _ := g.AddBox("samplep", Params{"seed": "5"})
	_ = g.Connect(tb.ID, 0, sp.ID, 0)
	_ = g.Connect(cv.ID, 0, sp.ID, 1)
	e := demandR(t, ev, sp.ID)
	all := demandR(t, ev, tb.ID)
	frac := float64(e.Rel.Len()) / float64(all.Rel.Len())
	if frac < 0.1 || frac > 0.4 {
		t.Errorf("samplep kept fraction %.2f, want ~0.25", frac)
	}
	// Out-of-range probability errors at fire time.
	if err := g.SetParams(cv.ID, Params{"type": "float", "value": "1.5"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(context.Background(), Request{Box: sp.ID}); err == nil {
		t.Error("probability > 1 accepted")
	}
}

func TestCountBox(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	ct, _ := g.AddBox("count", nil)
	_ = g.Connect(tb.ID, 0, ct.ID, 0)
	res, err := ev.Eval(context.Background(), Request{Box: ct.ID})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Value.(types.Value).Int(); n != 40 {
		t.Fatalf("count = %d", n)
	}
	// T box over a scalar edge: the type parameter supports scalars.
	tt, err := g.AddBox("t", Params{"type": "scalar:int"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(ct.ID, 0, tt.ID, 0); err != nil {
		t.Fatal(err)
	}
	res, err = ev.Eval(context.Background(), Request{Box: tt.ID, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.(types.Value).Int() != 40 {
		t.Fatal("T over scalar lost the value")
	}
}
