package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/db"
	"repro/internal/rel"
)

// TestFullPersistenceRoundTrip drives the complete persistence story: a
// session is built, its database (tables + program + session) saved to a
// directory, reloaded into a brand-new environment, and the restored
// canvas must render byte-identically.
func TestFullPersistenceRoundTrip(t *testing.T) {
	env := seededEnv(t)
	canvas, err := Figure4(env)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := env.Canvas(canvas)
	if err := v.PanTo(0, -90.8, 30.4); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElevation(0, 1.9); err != nil {
		t.Fatal(err)
	}
	imgBefore, _, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.SaveSession("trip"); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	b, err := rel.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.DB.SaveBackend(b); err != nil {
		t.Fatal(err)
	}

	// A brand-new world.
	db2, err := db.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	env2 := NewEnvironment(db2)
	if err := env2.LoadSession("trip"); err != nil {
		t.Fatal(err)
	}
	v2, err := env2.Canvas(canvas)
	if err != nil {
		t.Fatal(err)
	}
	imgAfter, _, err := v2.Render()
	if err != nil {
		t.Fatal(err)
	}
	if len(imgBefore.Pix) != len(imgAfter.Pix) {
		t.Fatal("size changed")
	}
	for i := range imgBefore.Pix {
		if imgBefore.Pix[i] != imgAfter.Pix[i] {
			t.Fatalf("pixel %d differs after full persistence round trip", i)
		}
	}
}

// TestRandomEditSequencesStayEvaluable fuzzes the editing surface: random
// legal operations (and undos) must never leave the program in a state
// that fails typechecking or evaluation of its sinks.
func TestRandomEditSequencesStayEvaluable(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env, err := NewSeededEnvironment(40, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		kinds := []string{"restrict", "project", "sample", "sort"}
		params := map[string]dataflow.Params{
			"restrict": {"pred": "state = 'LA'"},
			"project":  {"attrs": "id,name,state"},
			"sample":   {"p": "0.5", "seed": "1"},
			"sort":     {"attr": "id"},
		}
		for step := 0; step < 60; step++ {
			boxes := env.Program.Boxes()
			switch op := rng.Intn(6); op {
			case 0: // add a table
				if _, err := env.AddTable("Stations"); err != nil {
					t.Fatal(err)
				}
			case 1: // add a random R->R box
				k := kinds[rng.Intn(len(kinds))]
				if _, err := env.AddBox(k, params[k]); err != nil {
					t.Fatal(err)
				}
			case 2: // try to connect two random ports (may legally fail)
				if len(boxes) >= 2 {
					a := boxes[rng.Intn(len(boxes))]
					b := boxes[rng.Intn(len(boxes))]
					if len(a.Out) > 0 && len(b.In) > 0 {
						_ = env.Connect(a.ID, rng.Intn(len(a.Out)), b.ID, rng.Intn(len(b.In)))
					}
				}
			case 3: // try to delete a random box (may legally fail)
				if len(boxes) > 0 {
					_ = env.DeleteBox(boxes[rng.Intn(len(boxes))].ID)
				}
			case 4: // undo
				if env.UndoDepth() > 0 {
					if err := env.Undo(); err != nil {
						t.Fatalf("seed %d step %d: undo: %v", seed, step, err)
					}
				}
			case 5: // insert a T on a random connected input
				edges := env.Program.Edges()
				if len(edges) > 0 {
					e := edges[rng.Intn(len(edges))]
					_, _ = env.InsertT(e.To, e.ToPort)
				}
			}

			// Invariant: the program always validates, apart from
			// inputs not yet wired.
			for _, d := range dataflow.ValidateGraph(env.Program) {
				if !errors.Is(d, dataflow.ErrUnconnected) {
					t.Fatalf("seed %d step %d: %v", seed, step, d)
				}
			}
		}
		// Invariant: every box with fully connected inputs evaluates.
		for _, b := range env.Program.Boxes() {
			ready := true
			for port := range b.In {
				if _, ok := env.Program.InputEdge(b.ID, port); !ok {
					ready = false
					break
				}
			}
			if !ready || len(b.Out) == 0 {
				continue
			}
			if _, err := env.Eval.Eval(context.Background(), dataflow.Request{Box: b.ID}); err != nil {
				t.Fatalf("seed %d: box %d (%s) failed to evaluate: %v", seed, b.ID, b.Kind, err)
			}
		}
	}
}

// TestProgramJSONStability: a saved program reloads to the identical
// serialization (the store is canonical).
func TestProgramJSONStability(t *testing.T) {
	env := seededEnv(t)
	if _, err := Figure1(env); err != nil {
		t.Fatal(err)
	}
	d1, err := dataflow.Marshal(env.Program)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := dataflow.Unmarshal(env.Registry, d1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := dataflow.Marshal(g2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("program serialization is not canonical")
	}
}
