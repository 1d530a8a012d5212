package check

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataflow"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden runs the checker over every fixture program in testdata and
// compares the rendered diagnostics against the .golden file next to it.
// Program fixtures (tv*.json, mixed.json) go through ProgramData — the
// same permissive-load path tioga-vet uses — and definition fixtures
// (def_*.json) through UnmarshalDef + Def.
func TestGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no fixtures found")
	}
	reg := dataflow.NewRegistry()
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".json")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var diags []Diagnostic
			if strings.HasPrefix(name, "def_") {
				def, err := dataflow.UnmarshalDef(data)
				if err != nil {
					t.Fatalf("UnmarshalDef: %v", err)
				}
				diags = Def(reg, def)
			} else {
				if diags, err = ProgramData(reg, data); err != nil {
					t.Fatalf("ProgramData: %v", err)
				}
			}
			got := Render("", diags)
			golden := strings.TrimSuffix(file, ".json") + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGoldenCoversEveryCode guards the fixture suite itself: each TV code
// must appear in at least one golden file, so retiring a fixture (or a
// code silently changing) fails loudly.
func TestGoldenCoversEveryCode(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	for _, g := range goldens {
		b, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		all.Write(b)
	}
	for _, code := range []Code{CodeCycle, CodeUnconnected, CodePortType, CodeDeadBox,
		CodeHoleMismatch, CodeBadParam, CodeUnknownKind, CodeDanglingEdge, CodeDupInput} {
		if !strings.Contains(all.String(), string(code)) {
			t.Errorf("no golden fixture exercises %s", code)
		}
	}
}

// TestLiftMismatchMessage pins the R/C/G lifting inference: wrapping a
// non-R->R operator in a lift box is a TV003 with the inferred signature
// in the message, before anything fires.
func TestLiftMismatchMessage(t *testing.T) {
	g := dataflow.NewGraph(dataflow.NewRegistry())
	b, err := g.AddBox("liftg", dataflow.LiftParams("union", nil, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	diags := Program(g)
	var found bool
	for _, d := range diags {
		if d.Code == CodePortType && d.Box == b.ID {
			found = true
			if !strings.Contains(d.Message, "R,R -> R") {
				t.Errorf("lift diagnostic lacks inferred signature: %s", d.Message)
			}
		}
	}
	if !found {
		t.Errorf("no TV003 for lifted non-R->R operator; got %v", diags)
	}
}

// TestCleanProgram confirms a well-formed program yields no diagnostics.
func TestCleanProgram(t *testing.T) {
	g := dataflow.NewGraph(dataflow.NewRegistry())
	tb, _ := g.AddBox("table", dataflow.Params{"name": "cities"})
	rb, _ := g.AddBox("restrict", dataflow.Params{"pred": "true"})
	vb, _ := g.AddBox("viewer", nil)
	if err := g.Connect(tb.ID, 0, rb.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(rb.ID, 0, vb.ID, 0); err != nil {
		t.Fatal(err)
	}
	if diags := Program(g); len(diags) != 0 {
		t.Errorf("clean program produced diagnostics:\n%s", Render("", diags))
	}
}

// TestFusedChainStillChecked pins that a restrict→project→restrict
// chain is checked exactly like any other program: the TV002 and TV004
// diagnostics the fused_chain fixture carries alongside its chain must
// always surface.
func TestFusedChainStillChecked(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fused_chain.json"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := ProgramData(dataflow.NewRegistry(), data)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Code]int{}
	for _, d := range diags {
		counts[d.Code]++
	}
	if counts[CodeUnconnected] != 1 || counts[CodeDeadBox] != 2 {
		t.Errorf("want one TV002 and two TV004s, got:\n%s", Render("", diags))
	}
}
