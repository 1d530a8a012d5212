package dataflow

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// corruptProgram is a program containing a cycle (1<->2), an unconnected
// input (join box 3, both ports), and a port-type mismatch (scalar const
// 4 feeding R input of restrict 5) — one of each plan-time failure mode.
const corruptProgram = `{
  "boxes": [
    {"id": 1, "kind": "restrict", "params": {"pred": "true"}},
    {"id": 2, "kind": "restrict", "params": {"pred": "true"}},
    {"id": 3, "kind": "join", "params": {"pred": "true"}},
    {"id": 4, "kind": "const", "params": {"type": "float", "value": "1"}},
    {"id": 5, "kind": "restrict", "params": {"pred": "true"}}
  ],
  "edges": [
    {"From": 1, "FromPort": 0, "To": 2, "ToPort": 0},
    {"From": 2, "FromPort": 0, "To": 1, "ToPort": 0},
    {"From": 4, "FromPort": 0, "To": 5, "ToPort": 0}
  ]
}`

func TestValidateGraphAggregates(t *testing.T) {
	g, loadDiags, err := UnmarshalPermissive(NewRegistry(), []byte(corruptProgram))
	if err != nil {
		t.Fatal(err)
	}
	if len(loadDiags) != 0 {
		t.Fatalf("unexpected load diagnostics: %v", loadDiags)
	}
	diags := ValidateGraph(g)
	for _, sentinel := range []error{ErrCycle, ErrUnconnected, ErrPortType} {
		found := false
		for _, d := range diags {
			if errors.Is(d, sentinel) {
				found = true
			}
		}
		if !found {
			t.Errorf("ValidateGraph missed %v; got %v", sentinel, diags)
		}
	}
	// One aggregate error answers errors.Is for every sentinel at once.
	err = diags.AsError()
	if !errors.Is(err, ErrCycle) || !errors.Is(err, ErrUnconnected) || !errors.Is(err, ErrPortType) {
		t.Errorf("aggregate error does not expose all causes: %v", err)
	}
	var de *Error
	if !errors.As(err, &de) {
		t.Fatalf("aggregate %T does not unwrap to *dataflow.Error", err)
	}
}

func TestEvalPreflightAggregatesPlanDiagnostics(t *testing.T) {
	// A join whose input 0 hangs off a cycle and whose input 1 is
	// unconnected: the old planner stopped at whichever it hit first; the
	// pre-flight reports both in one *dataflow.Error.
	g := NewGraph(NewRegistry())
	a, _ := g.AddBox("restrict", Params{"pred": "true"})
	b, _ := g.AddBox("restrict", Params{"pred": "true"})
	j, _ := g.AddBox("join", Params{"pred": "true"})
	g.edges[a.ID] = map[int]Edge{0: {From: b.ID, FromPort: 0, To: a.ID, ToPort: 0}}
	g.edges[b.ID] = map[int]Edge{0: {From: a.ID, FromPort: 0, To: b.ID, ToPort: 0}}
	g.edges[j.ID] = map[int]Edge{0: {From: a.ID, FromPort: 0, To: j.ID, ToPort: 0}}

	ev := NewEvaluator(g, nil)
	_, err := ev.Eval(context.Background(), Request{Box: j.ID})
	if err == nil {
		t.Fatal("corrupt program evaluated")
	}
	if !errors.Is(err, ErrCycle) {
		t.Errorf("aggregate lacks ErrCycle: %v", err)
	}
	if !errors.Is(err, ErrUnconnected) {
		t.Errorf("aggregate lacks ErrUnconnected: %v", err)
	}
	var de *Error
	if !errors.As(err, &de) {
		t.Fatalf("%T does not unwrap to *dataflow.Error", err)
	}
	if de.Op != "plan" {
		t.Errorf("aggregate op = %q, want plan", de.Op)
	}
}

func TestPreflightMemoInvalidatedByGraphEdits(t *testing.T) {
	g := NewGraph(NewRegistry())
	r, _ := g.AddBox("restrict", Params{"pred": "true"})
	ev := NewEvaluator(g, nil)
	ctx := context.Background()
	for i := 0; i < 2; i++ { // second demand answers from the verdict memo
		if _, err := ev.Eval(ctx, Request{Box: r.ID}); !errors.Is(err, ErrUnconnected) {
			t.Fatalf("demand %d: got %v, want ErrUnconnected", i, err)
		}
	}
	// Fixing the program bumps the clock; the stale verdict must not stick.
	tb, _ := g.AddBox("table", Params{"name": "cities"})
	if err := g.Connect(tb.ID, 0, r.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(ctx, Request{Box: r.ID}); errors.Is(err, ErrUnconnected) {
		t.Fatalf("preflight verdict not invalidated after edit: %v", err)
	}
}

func TestUnmarshalRejectsCorruptProgramWithDiagnostics(t *testing.T) {
	// Round-trip the corrupt-load fixture: wire a cycle directly (as a
	// corrupt store would), marshal it, and watch the strict loader
	// reject it with aggregated diagnostics instead of deferring the
	// failure to eval.
	g := NewGraph(NewRegistry())
	a, _ := g.AddBox("restrict", Params{"pred": "true"})
	b, _ := g.AddBox("restrict", Params{"pred": "true"})
	g.edges[a.ID] = map[int]Edge{0: {From: b.ID, FromPort: 0, To: a.ID, ToPort: 0}}
	g.edges[b.ID] = map[int]Edge{0: {From: a.ID, FromPort: 0, To: b.ID, ToPort: 0}}
	data, err := Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(NewRegistry(), data); !errors.Is(err, ErrCycle) {
		t.Fatalf("strict load of cyclic program: got %v, want ErrCycle", err)
	}

	// The aggregate carries every problem, not just the first.
	if _, err := Unmarshal(NewRegistry(), []byte(corruptProgram)); err == nil {
		t.Fatal("strict load accepted corrupt program")
	} else {
		if !errors.Is(err, ErrCycle) || !errors.Is(err, ErrPortType) {
			t.Errorf("load error lacks causes: %v", err)
		}
		// Unconnected inputs alone must NOT reject (programs under
		// construction stay loadable) — so the join's dangling inputs are
		// absent from the load error.
		if errors.Is(err, ErrUnconnected) {
			t.Errorf("load rejected unconnected inputs: %v", err)
		}
	}
}

func TestUnmarshalKeepsEditablePrograms(t *testing.T) {
	// A saved program with an unconnected input loads fine.
	data := []byte(`{"boxes":[{"id":1,"kind":"restrict","params":{"pred":"true"}}]}`)
	g, err := Unmarshal(NewRegistry(), data)
	if err != nil {
		t.Fatalf("program under construction rejected: %v", err)
	}
	if len(g.Boxes()) != 1 {
		t.Fatalf("loaded %d boxes, want 1", len(g.Boxes()))
	}
}

func TestUnmarshalPermissiveReportsLoaderFindings(t *testing.T) {
	data := []byte(`{
	  "boxes": [
	    {"id": 1, "kind": "table", "params": {"name": "a"}},
	    {"id": 2, "kind": "table", "params": {"name": "b"}},
	    {"id": 2, "kind": "table", "params": {"name": "c"}},
	    {"id": 3, "kind": "viewer"}
	  ],
	  "edges": [
	    {"From": 1, "FromPort": 0, "To": 3, "ToPort": 0},
	    {"From": 2, "FromPort": 0, "To": 3, "ToPort": 0}
	  ]
	}`)
	_, diags, err := UnmarshalPermissive(NewRegistry(), data)
	if err != nil {
		t.Fatal(err)
	}
	var dupID, dupIn bool
	for _, d := range diags {
		if strings.Contains(d.Error(), "duplicate box id") {
			dupID = true
		}
		if errors.Is(d, ErrDuplicateInput) {
			dupIn = true
		}
	}
	if !dupID || !dupIn {
		t.Errorf("loader findings incomplete (dupID=%v dupIn=%v): %v", dupID, dupIn, diags)
	}
}
