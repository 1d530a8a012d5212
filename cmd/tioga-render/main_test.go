package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rel"
)

// TestRenderFigure7WithTrace saves the Figure 7 program into a database
// directory, renders it headlessly the way `tioga-render -trace` does, and
// checks the resulting file is a well-formed Chrome trace: a top-level
// traceEvents array of complete ("X") events covering the render phases,
// each parent id naming another event of the file.
func TestRenderFigure7WithTrace(t *testing.T) {
	obs.Reset()
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.StopTracing()
		obs.SetEnabled(false)
		obs.Reset()
	})

	env, err := core.NewSeededEnvironment(80, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Figure7(env); err != nil {
		t.Fatal(err)
	}
	if err := env.SaveProgram("figure7"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db")
	b, err := rel.NewFileBackend(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.DB.SaveBackend(b); err != nil {
		t.Fatal(err)
	}

	obs.StartTracing()
	png := filepath.Join(dir, "f7.png")
	if err := run(dbPath, "figure7", 0, 0, png, 320, 240, -92.5, 31, 2, false); err != nil {
		t.Fatal(err)
	}
	obs.StopTracing()
	tracePath := filepath.Join(dir, "trace.json")
	if err := obs.WriteTraceFile(tracePath); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	spans := map[string]bool{}
	seen := map[string]bool{}
	for _, e := range tf.TraceEvents {
		seen[e.Name] = true
		spans[e.Args["span"]] = true
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("event %s: phase %q dur %v, want X with dur >= 0", e.Name, e.Ph, e.Dur)
		}
	}
	for _, e := range tf.TraceEvents {
		if p := e.Args["parent"]; p != "" && !spans[p] {
			t.Fatalf("event %s names parent %s, which is not in the trace", e.Name, p)
		}
	}
	for _, want := range []string{"db.load", "eval.fire", "render.frame", "render.cull", "render.display_eval", "render.paint"} {
		if !seen[want] {
			t.Errorf("trace missing %s span", want)
		}
	}
	if _, err := os.Stat(png); err != nil {
		t.Fatalf("render wrote no image: %v", err)
	}
}
