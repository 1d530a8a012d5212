package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/viewer"
)

// TestFigure7ParallelEvalDeterminism renders the figure-7 canvas once
// with the serial scheduler and once with a 4-worker wavefront, from a
// cold memo each time, and requires byte-identical PNG output: parallel
// evaluation must change latency only, never the picture.
func TestFigure7ParallelEvalDeterminism(t *testing.T) {
	env := seededEnv(t)
	canvas, err := Figure7(env)
	if err != nil {
		t.Fatalf("figure 7: %v", err)
	}
	env.TakeWarnings() // the expected dimension-mismatch warning
	v, err := env.Canvas(canvas)
	if err != nil {
		t.Fatal(err)
	}
	src, ok := v.Source.(viewer.BoxSource)
	if !ok {
		t.Fatalf("canvas source is %T, want viewer.BoxSource", v.Source)
	}
	if err := v.SetElevation(0, 2); err != nil { // labels visible: more work
		t.Fatal(err)
	}

	render := func(opts ...dataflow.EvalOption) []byte {
		t.Helper()
		env.Eval.InvalidateAll()
		s := src
		s.Options = opts
		s.Ctx = context.Background()
		v.Source = s
		img, _, err := v.Render()
		if err != nil {
			t.Fatalf("render: %v", err)
		}
		var buf bytes.Buffer
		if err := img.WritePNG(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := render(dataflow.WithWorkers(1), dataflow.WithLabel("determinism-serial"))
	parallel := render(dataflow.WithWorkers(4), dataflow.WithLabel("determinism-parallel"))
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel render differs from serial (%d vs %d PNG bytes)", len(serial), len(parallel))
	}
}
