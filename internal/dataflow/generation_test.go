package dataflow

import (
	"context"
	"testing"

	"repro/internal/display"
)

// TestInvalidateBumpsDisplayableGenerations: dropping a memoized
// displayable must bump its generation, so render caches keyed on the old
// stamp (internal/viewer) retire their entries even while they still hold
// the old pointer.
func TestInvalidateBumpsDisplayableGenerations(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, err := g.AddBox("table", Params{"name": "Stations"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.Eval(context.Background(), Request{Box: tb.ID})
	if err != nil {
		t.Fatal(err)
	}
	ext, ok := res.Value.(*display.Extended)
	if !ok {
		t.Fatalf("table output is %T, want *display.Extended", res.Value)
	}
	before := ext.Generation()
	ev.Invalidate(tb.ID)
	if after := ext.Generation(); after.Meta == before.Meta {
		t.Fatal("Invalidate did not bump the dropped displayable's generation")
	}
}

func TestInvalidateAllBumpsDisplayableGenerations(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, err := g.AddBox("table", Params{"name": "Stations"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.Eval(context.Background(), Request{Box: tb.ID})
	if err != nil {
		t.Fatal(err)
	}
	ext := res.Value.(*display.Extended)
	before := ext.Generation()
	ev.InvalidateAll()
	if after := ext.Generation(); after.Meta == before.Meta {
		t.Fatal("InvalidateAll did not bump the dropped displayable's generation")
	}
}
