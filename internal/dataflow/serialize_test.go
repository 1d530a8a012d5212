package dataflow

import (
	"bytes"
	"context"
	"testing"
)

func TestProgramRoundTrip(t *testing.T) {
	g, _, boxes := buildPipeline(t)
	data, err := Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Unmarshal(NewRegistry(), data)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Boxes()) != len(g.Boxes()) {
		t.Fatalf("boxes %d vs %d", len(g2.Boxes()), len(g.Boxes()))
	}
	if len(g2.Edges()) != len(g.Edges()) {
		t.Fatalf("edges %d vs %d", len(g2.Edges()), len(g.Edges()))
	}
	// IDs preserved so viewer references remain valid.
	b, err := g2.Box(boxes["restrict"].ID)
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != "restrict" || b.Params["pred"] != "state = 'LA'" {
		t.Fatalf("box %d = %s %v", b.ID, b.Kind, b.Params)
	}
	// Marshal is deterministic.
	data2, err := Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("Marshal not deterministic")
	}
	// The loaded program evaluates identically.
	ev2 := NewEvaluator(g2, testSource())
	e := demandR(t, ev2, boxes["project"].ID)
	if e.Rel.Schema().Len() != 3 {
		t.Errorf("loaded program output schema %s", e.Rel.Schema())
	}
}

func TestUnmarshalErrors(t *testing.T) {
	reg := NewRegistry()
	if _, err := Unmarshal(reg, []byte("{")); err == nil {
		t.Error("bad json accepted")
	}
	if _, err := Unmarshal(reg, []byte(`{"boxes":[{"id":1,"kind":"froboz"}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Unmarshal(reg, []byte(`{"boxes":[{"id":1,"kind":"t"},{"id":1,"kind":"t"}]}`)); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := Unmarshal(reg, []byte(`{"boxes":[{"id":1,"kind":"t"}],"edges":[{"From":1,"FromPort":0,"To":9,"ToPort":0}]}`)); err == nil {
		t.Error("edge to missing box accepted")
	}
}

func TestMergeAddsWithFreshIDs(t *testing.T) {
	g, _, _ := buildPipeline(t)
	data, err := Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	before := len(g.Boxes())
	mapping, err := Merge(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Boxes()) != 2*before {
		t.Fatalf("after merge %d boxes, want %d", len(g.Boxes()), 2*before)
	}
	// Every mapped ID is fresh.
	for old, fresh := range mapping {
		if old == fresh {
			t.Errorf("id %d not remapped", old)
		}
	}
	if diags := ValidateGraph(g); len(diags) != 0 {
		t.Fatalf("merged graph diagnostics: %v", diags)
	}
}

func TestRestoreUndo(t *testing.T) {
	g, ev, boxes := buildPipeline(t)
	snapshot, err := Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(context.Background(), Request{Box: boxes["project"].ID}); err != nil {
		t.Fatal(err)
	}

	// Mutate: delete the project box (a sink).
	if err := g.DeleteBox(boxes["project"].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Box(boxes["project"].ID); err == nil {
		t.Fatal("delete did not apply")
	}

	// Restore: the graph object (and evaluator) survive.
	if err := Restore(g, snapshot); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Box(boxes["project"].ID); err != nil {
		t.Fatal("restore did not bring the box back")
	}
	// Evaluation works and re-fires (versions bumped).
	res, err := ev.Eval(context.Background(), Request{Box: boxes["project"].ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires == 0 {
		t.Error("restore did not invalidate memo entries")
	}
}

func TestParamsHelpers(t *testing.T) {
	p := Params{"s": "hello", "f": "2.5", "i": "7", "b": "true", "list": "a, b , c", "fl": "1,2.5"}
	if p.Str("s", "") != "hello" || p.Str("missing", "d") != "d" {
		t.Error("Str")
	}
	if v, err := p.Float("f", 0); err != nil || v != 2.5 {
		t.Error("Float")
	}
	if v, err := p.Float("missing", 9); err != nil || v != 9 {
		t.Error("Float default")
	}
	if _, err := p.Float("s", 0); err == nil {
		t.Error("Float on text accepted")
	}
	if v, err := p.Int("i", 0); err != nil || v != 7 {
		t.Error("Int")
	}
	if _, err := p.Int("f", 0); err == nil {
		t.Error("Int on float accepted")
	}
	if v, err := p.Bool("b", false); err != nil || !v {
		t.Error("Bool")
	}
	if got := p.List("list"); len(got) != 3 || got[1] != "b" {
		t.Errorf("List = %v", got)
	}
	if got := p.List("missing"); got != nil {
		t.Error("List missing")
	}
	if got, err := p.Floats("fl"); err != nil || len(got) != 2 || got[1] != 2.5 {
		t.Errorf("Floats = %v, %v", got, err)
	}
	if _, err := p.Floats("list"); err == nil {
		t.Error("Floats on text accepted")
	}
	if _, err := p.Need("missing"); err == nil {
		t.Error("Need on missing accepted")
	}
	c := p.Clone()
	c["s"] = "changed"
	if p["s"] != "hello" {
		t.Error("Clone aliases")
	}
	if p.String() == "" {
		t.Error("String empty")
	}
}

func TestPortTypeParsing(t *testing.T) {
	for _, s := range []string{"R", "C", "G", "scalar:int", "scalar:text"} {
		pt, err := parsePortType(s)
		if err != nil {
			t.Errorf("parsePortType(%q): %v", s, err)
			continue
		}
		if pt.String() != s {
			t.Errorf("round trip %q -> %q", s, pt.String())
		}
	}
	if _, err := parsePortType("Q"); err == nil {
		t.Error("bad port type accepted")
	}
	if _, err := parsePortType("scalar:blob"); err == nil {
		t.Error("bad scalar accepted")
	}
}

func TestCompatibility(t *testing.T) {
	cases := []struct {
		out, in PortType
		want    bool
	}{
		{RType, RType, true},
		{RType, CType, true},
		{RType, GType, true},
		{CType, GType, true},
		{CType, RType, false},
		{GType, CType, false},
		{GType, GType, true},
		{ScalarType(1), ScalarType(1), true},
		{ScalarType(1), ScalarType(2), false},
		{RType, ScalarType(1), false},
		{ScalarType(1), RType, false},
	}
	for _, c := range cases {
		if got := Compatible(c.out, c.in); got != c.want {
			t.Errorf("Compatible(%s, %s) = %v", c.out, c.in, got)
		}
	}
}
