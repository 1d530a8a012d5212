package dataflow

import (
	"context"
	"testing"

	"repro/internal/display"
	"repro/internal/rel"
	"repro/internal/workload"
)

// memSource is a TableSource over a fixed map.
type memSource map[string]*rel.Relation

func (m memSource) Table(name string) (*rel.Relation, error) {
	t, ok := m[name]
	if !ok {
		return nil, errNoTable(name)
	}
	return t, nil
}

type errNoTable string

func (e errNoTable) Error() string { return "no table " + string(e) }

func (m memSource) TableNames() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	return out
}

func testSource() memSource {
	st := workload.Stations(40, 1)
	obs, err := workload.Observations(st, 12, 2)
	if err != nil {
		panic(err)
	}
	return memSource{"Stations": st, "Observations": obs, "LouisianaMap": workload.LouisianaMap()}
}

func newTestGraph(t testing.TB) (*Graph, *Evaluator) {
	t.Helper()
	g := NewGraph(NewRegistry())
	return g, NewEvaluator(g, testSource())
}

func TestAddBoxUnknownKind(t *testing.T) {
	g, _ := newTestGraph(t)
	if _, err := g.AddBox("froboz", nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestConnectTypeChecking(t *testing.T) {
	g, _ := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	rb, _ := g.AddBox("restrict", Params{"pred": "true"})
	ov, _ := g.AddBox("overlay", nil)
	vb, _ := g.AddBox("viewer", nil)

	// R -> R fine.
	if err := g.Connect(tb.ID, 0, rb.ID, 0); err != nil {
		t.Fatalf("R->R: %v", err)
	}
	// R -> C promotes.
	if err := g.Connect(rb.ID, 0, ov.ID, 0); err != nil {
		t.Fatalf("R->C promotion: %v", err)
	}
	// C -> G promotes into the viewer.
	if err := g.Connect(tb.ID, 0, ov.ID, 1); err != nil {
		t.Fatalf("second overlay input: %v", err)
	}
	if err := g.Connect(ov.ID, 0, vb.ID, 0); err != nil {
		t.Fatalf("C->G promotion: %v", err)
	}

	// Double-connecting an input fails.
	if err := g.Connect(tb.ID, 0, rb.ID, 0); err == nil {
		t.Error("double connection accepted")
	}
	// Bad port indexes fail.
	if err := g.Connect(tb.ID, 5, rb.ID, 0); err == nil {
		t.Error("missing output accepted")
	}
	if err := g.Connect(tb.ID, 0, rb.ID, 5); err == nil {
		t.Error("missing input accepted")
	}
	// G -> R is a type error: a stitch output cannot feed restrict.
	st, _ := g.AddBox("stitch", Params{"n": "1"})
	r2, _ := g.AddBox("restrict", Params{"pred": "true"})
	if err := g.Connect(st.ID, 0, r2.ID, 0); err == nil {
		t.Error("G->R accepted")
	}
}

func TestCycleRejection(t *testing.T) {
	g, _ := newTestGraph(t)
	a, _ := g.AddBox("restrict", Params{"pred": "true"})
	b, _ := g.AddBox("restrict", Params{"pred": "true"})
	if err := g.Connect(a.ID, 0, b.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(b.ID, 0, a.ID, 0); err == nil {
		t.Error("cycle accepted")
	}
	if err := g.Connect(a.ID, 0, a.ID, 0); err == nil {
		t.Error("self-loop accepted")
	}
}

func TestDeleteBoxRules(t *testing.T) {
	g, _ := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	rb, _ := g.AddBox("restrict", Params{"pred": "true"})
	pj, _ := g.AddBox("project", Params{"attrs": "id"})
	if err := g.Connect(tb.ID, 0, rb.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(rb.ID, 0, pj.ID, 0); err != nil {
		t.Fatal(err)
	}

	// Rule 2: restrict is a single-in single-out R->R box; deleting it
	// splices table directly into project.
	if err := g.DeleteBox(rb.ID); err != nil {
		t.Fatalf("splice delete: %v", err)
	}
	e, ok := g.InputEdge(pj.ID, 0)
	if !ok || e.From != tb.ID {
		t.Fatal("splice did not rewire")
	}

	// A table (no inputs) with connected outputs cannot be deleted.
	if err := g.DeleteBox(tb.ID); err == nil {
		t.Error("deleting a connected source accepted")
	}

	// Rule 1: a sink deletes freely.
	if err := g.DeleteBox(pj.ID); err != nil {
		t.Fatalf("sink delete: %v", err)
	}
	// Now the table has no connected outputs: deletable.
	if err := g.DeleteBox(tb.ID); err != nil {
		t.Fatalf("source delete: %v", err)
	}
	if len(g.Boxes()) != 0 {
		t.Error("boxes remain")
	}
}

func TestDeleteSpliceFansOut(t *testing.T) {
	g, _ := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	rb, _ := g.AddBox("restrict", Params{"pred": "true"})
	d1, _ := g.AddBox("project", Params{"attrs": "id"})
	d2, _ := g.AddBox("project", Params{"attrs": "name"})
	_ = g.Connect(tb.ID, 0, rb.ID, 0)
	_ = g.Connect(rb.ID, 0, d1.ID, 0)
	_ = g.Connect(rb.ID, 0, d2.ID, 0)
	if err := g.DeleteBox(rb.ID); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Box{d1, d2} {
		e, ok := g.InputEdge(d.ID, 0)
		if !ok || e.From != tb.ID {
			t.Fatal("fan-out splice failed")
		}
	}
}

func TestReplaceBox(t *testing.T) {
	g, _ := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	rb, _ := g.AddBox("restrict", Params{"pred": "state = 'LA'"})
	pj, _ := g.AddBox("project", Params{"attrs": "id"})
	_ = g.Connect(tb.ID, 0, rb.ID, 0)
	_ = g.Connect(rb.ID, 0, pj.ID, 0)

	// restrict -> sample: both R -> R.
	nb, err := g.ReplaceBox(rb.ID, "sample", Params{"p": "0.5"})
	if err != nil {
		t.Fatalf("replace: %v", err)
	}
	if nb.Kind != "sample" || nb.ID != rb.ID {
		t.Fatal("replace identity")
	}
	// Connections intact.
	if _, ok := g.InputEdge(pj.ID, 0); !ok {
		t.Fatal("replace lost edges")
	}
	// restrict -> join: different arity, rejected.
	if _, err := g.ReplaceBox(rb.ID, "join", Params{"pred": "true"}); err == nil {
		t.Error("arity-changing replace accepted")
	}
	// restrict -> stitch: different types, rejected.
	if _, err := g.ReplaceBox(rb.ID, "stitch", Params{"n": "1"}); err == nil {
		t.Error("type-changing replace accepted")
	}
}

func TestInsertT(t *testing.T) {
	g, _ := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	pj, _ := g.AddBox("project", Params{"attrs": "id"})
	_ = g.Connect(tb.ID, 0, pj.ID, 0)

	tbox, err := g.InsertT(pj.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	// table -> T -> project; T's second output free.
	e1, _ := g.InputEdge(tbox.ID, 0)
	if e1.From != tb.ID {
		t.Fatal("T not fed by table")
	}
	e2, _ := g.InputEdge(pj.ID, 0)
	if e2.From != tbox.ID {
		t.Fatal("project not fed by T")
	}
	if len(g.OutputEdges(tbox.ID)) != 1 {
		t.Fatal("T second output should be free")
	}
	// Free output is connectable: a viewer taps the edge.
	vb, _ := g.AddBox("viewer", nil)
	if err := g.Connect(tbox.ID, 1, vb.ID, 0); err != nil {
		t.Fatalf("viewer on T: %v", err)
	}
	if _, err := g.InsertT(tb.ID, 0); err == nil {
		t.Error("InsertT on unconnected input accepted")
	}
}

func TestMatchingKinds(t *testing.T) {
	g, _ := newTestGraph(t)
	names := g.MatchingKinds([]PortType{RType})
	if len(names) == 0 {
		t.Fatal("no kinds accept an R edge")
	}
	must := map[string]bool{"restrict": false, "project": false, "viewer": false, "overlay": false}
	for _, n := range names {
		if _, ok := must[n]; ok {
			must[n] = true
		}
	}
	for k, seen := range must {
		if !seen {
			t.Errorf("Apply Box menu missing %q for an R edge", k)
		}
	}
	// Two R edges match join.
	names = g.MatchingKinds([]PortType{RType, RType})
	found := false
	for _, n := range names {
		if n == "join" {
			found = true
		}
	}
	if !found {
		t.Error("join not offered for two R edges")
	}
	// A G edge cannot feed restrict.
	for _, n := range g.MatchingKinds([]PortType{GType}) {
		if n == "restrict" {
			t.Error("restrict offered for a G edge")
		}
	}
	if got := g.MatchingKinds(nil); got != nil {
		t.Errorf("empty selection yields %v", got)
	}
}

func TestSetParams(t *testing.T) {
	g, ev := newTestGraph(t)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	rb, _ := g.AddBox("restrict", Params{"pred": "state = 'LA'"})
	_ = g.Connect(tb.ID, 0, rb.ID, 0)

	res, err := ev.Eval(context.Background(), Request{Box: rb.ID})
	if err != nil {
		t.Fatal(err)
	}
	n1 := extLen(t, res.Value)

	if err := g.SetParams(rb.ID, Params{"pred": "true"}); err != nil {
		t.Fatal(err)
	}
	res, err = ev.Eval(context.Background(), Request{Box: rb.ID})
	if err != nil {
		t.Fatal(err)
	}
	if extLen(t, res.Value) <= n1 {
		t.Error("new predicate did not re-fire")
	}

	// Reshaping a connected box is rejected (a partition's output count
	// depends on params).
	pt, _ := g.AddBox("partition", Params{"preds": "true"})
	_ = g.Connect(rb.ID, 0, pt.ID, 0)
	if err := g.SetParams(pt.ID, Params{"preds": "true;false"}); err == nil {
		t.Error("reshaping a connected box accepted")
	}
	// Unconnected boxes may reshape.
	pt2, _ := g.AddBox("partition", Params{"preds": "true"})
	if err := g.SetParams(pt2.ID, Params{"preds": "true;false"}); err != nil {
		t.Errorf("reshaping unconnected box rejected: %v", err)
	}
	if len(pt2.Out) != 2 {
		t.Error("reshape did not apply")
	}
}

// extLen returns the tuple count behind an R-valued output.
func extLen(t testing.TB, v Value) int {
	t.Helper()
	e, ok := v.(*display.Extended)
	if !ok {
		t.Fatalf("not an extended relation: %T", v)
	}
	return e.Rel.Len()
}
