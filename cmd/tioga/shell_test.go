package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
)

// testShell runs a script of commands against a small seeded environment
// and returns all output.
func testShell(t *testing.T, commands ...string) (*shell, string) {
	t.Helper()
	env, err := core.NewSeededEnvironment(80, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sh := newShell(env, &buf)
	for _, c := range commands {
		if quit := sh.Execute(c); quit {
			break
		}
	}
	return sh, buf.String()
}

func TestShellBuildAndShow(t *testing.T) {
	_, out := testShell(t,
		"add table name=Stations",
		`add restrict pred='state = "LA"'`,
		"connect 1.0 2.0",
		"show",
	)
	if !strings.Contains(out, "box [1] table") || !strings.Contains(out, "box [2] restrict") {
		t.Fatalf("add output missing:\n%s", out)
	}
	if !strings.Contains(out, "edge 1.0->2.0") {
		t.Fatalf("show missing edge:\n%s", out)
	}
}

func TestShellErrorsAreReportedNotFatal(t *testing.T) {
	_, out := testShell(t,
		"connect 9.0 8.0",
		"nonsense",
		"add froboz",
		"tables",
	)
	if strings.Count(out, "error:") != 3 {
		t.Fatalf("expected 3 errors:\n%s", out)
	}
	if !strings.Contains(out, "Stations") {
		t.Fatal("shell died after an error")
	}
}

func TestShellViewerAndAscii(t *testing.T) {
	_, out := testShell(t,
		"add table name=Stations",
		"viewer tbl 1.0 200 100",
		"panto tbl 250 -30",
		"elev tbl 60",
		"ascii tbl 50",
	)
	if !strings.Contains(out, `canvas "tbl"`) {
		t.Fatalf("viewer not attached:\n%s", out)
	}
	// ASCII output contains at least one non-space glyph row.
	lines := strings.Split(out, "\n")
	drew := false
	for _, l := range lines {
		if strings.ContainsAny(l, ".:-=+*#%@") && !strings.Contains(l, "error") {
			drew = true
		}
	}
	if !drew {
		t.Fatalf("ascii canvas blank:\n%s", out)
	}
}

func TestShellMenusAndApply(t *testing.T) {
	_, out := testShell(t, "boxes", "apply R", "programs")
	if !strings.Contains(out, "restrict") {
		t.Fatalf("boxes menu:\n%s", out)
	}
	if !strings.Contains(out, "viewer") {
		t.Fatalf("apply menu missing viewer:\n%s", out)
	}
	if _, out := testShell(t, "apply Q"); !strings.Contains(out, "error") {
		t.Fatal("bad apply type accepted")
	}
}

func TestShellEncapsulateInstantiate(t *testing.T) {
	_, out := testShell(t,
		"add table name=Stations",
		`add restrict pred='state = "LA"'`,
		"add project attrs=id,name",
		"connect 1.0 2.0",
		"connect 2.0 3.0",
		"encapsulate mybox 2,3 hole=3",
		"instantiate mybox project:attrs=id",
		"show",
	)
	if !strings.Contains(out, `encapsulated "mybox"`) {
		t.Fatalf("encapsulate failed:\n%s", out)
	}
	if !strings.Contains(out, "instantiated") {
		t.Fatalf("instantiate failed:\n%s", out)
	}
}

func TestShellSessionRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	sh, _ := testShell(t,
		"add table name=Stations",
		"viewer v1 1.0 100 100",
		"panto v1 111 -22",
		"savesession s1",
		"new",
		"loadsession s1",
		"savedb "+dir,
	)
	v, err := sh.env.Canvas("v1")
	if err != nil {
		t.Fatalf("session canvas lost: %v", err)
	}
	st, _ := v.State(0)
	if st.Center.X != 111 || st.Center.Y != -22 {
		t.Fatalf("restored state %+v", st)
	}
	// savedb wrote a directory that tioga -db loads, session included.
	d, err := db.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	env := core.NewEnvironment(d)
	if err := env.LoadSession("s1"); err != nil {
		t.Fatalf("session lost across savedb: %v", err)
	}
}

func TestShellUndo(t *testing.T) {
	sh, _ := testShell(t,
		"add table name=Stations",
		"add sample p=0.5",
		"undo",
	)
	if got := len(sh.env.Program.Boxes()); got != 1 {
		t.Fatalf("%d boxes after undo, want 1", got)
	}
}

func TestShellRenderWritesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "o.png")
	_, out := testShell(t,
		"add table name=Stations",
		"viewer v 1.0 100 80",
		"panto v 250 -30",
		"elev v 60",
		"render v "+path,
	)
	if !strings.Contains(out, path) {
		t.Fatalf("render output:\n%s", out)
	}
}

func TestSplitQuoted(t *testing.T) {
	got := splitQuoted(`add restrict pred='state = "LA"' p=1`)
	if len(got) != 4 || got[2] != `pred='state = "LA"'` {
		t.Fatalf("splitQuoted = %q", got)
	}
	if len(splitQuoted("   ")) != 0 {
		t.Fatal("blank line")
	}
}

func TestParseRef(t *testing.T) {
	b, p, err := parseRef("12.3")
	if err != nil || b != 12 || p != 3 {
		t.Fatalf("parseRef = %d %d %v", b, p, err)
	}
	b, p, err = parseRef("7")
	if err != nil || b != 7 || p != 0 {
		t.Fatalf("bare ref = %d %d %v", b, p, err)
	}
	if _, _, err := parseRef("x.y"); err == nil {
		t.Fatal("bad ref accepted")
	}
}

func TestShellFiguresAndNavigation(t *testing.T) {
	sh, out := testShell(t,
		"figures",
		"elevmap Louisiana drill-down", // wrong arity: canvas names with spaces need care
	)
	if !strings.Contains(out, "figure8 -> canvases") {
		t.Fatalf("figures output:\n%s", out)
	}
	// The navigator is armed after figures.
	if sh.nav == nil {
		t.Fatal("figures did not arm navigation")
	}
	// Descend above ground, then go back errors with no history.
	_, out2 := testShell(t, "figures", "descend 1.5", "mirror", "back")
	if !strings.Contains(out2, "on Station wormholes") {
		t.Fatalf("descend output:\n%s", out2)
	}
	if !strings.Contains(out2, "no travel history") {
		t.Fatalf("mirror without travel:\n%s", out2)
	}
	if !strings.Contains(out2, "error: viewer: no wormhole to go back through") {
		t.Fatalf("back without travel:\n%s", out2)
	}
}

func TestShellElevmapHitsUpdate(t *testing.T) {
	_, out := testShell(t,
		"add table name=Stations",
		"add setdisplay name=display spec='circle r=0.2 fill' active=true",
		"add setlocation attrs=longitude,latitude",
		"connect 1.0 2.0",
		"connect 2.0 3.0",
		"viewer map 3.0 200 200",
		"panto map -100 37",
		"elev map 30",
		"render map "+t.TempDir()+"/m.png",
		"elevmap map",
		"hits map",
	)
	if !strings.Contains(out, "layer 0") {
		t.Fatalf("elevmap output:\n%s", out)
	}
	if !strings.Contains(out, "tuple row") {
		t.Fatalf("hits output:\n%s", out)
	}
}

func TestShellMagnifyAndProgpng(t *testing.T) {
	dir := t.TempDir()
	_, out := testShell(t,
		"add table name=Stations",
		"add setdisplay name=display spec='circle r=0.2 fill' active=true",
		"add setlocation attrs=longitude,latitude",
		"connect 1.0 2.0",
		"connect 2.0 3.0",
		"viewer map 3.0 200 200",
		"magnify map 100 100 180 180 4",
		"progpng "+dir+"/p.png",
	)
	if !strings.Contains(out, "magnifier at") {
		t.Fatalf("magnify output:\n%s", out)
	}
	if !strings.Contains(out, "program window ->") {
		t.Fatalf("progpng output:\n%s", out)
	}
}

func TestShellParamsAndDisconnect(t *testing.T) {
	sh, _ := testShell(t,
		"add table name=Stations",
		`add restrict pred='state = "LA"'`,
		"connect 1.0 2.0",
		`params 2 pred='state = "TX"'`,
		"disconnect 2.0",
		"delete 2",
	)
	if got := len(sh.env.Program.Boxes()); got != 1 {
		t.Fatalf("%d boxes after delete", got)
	}
}

// TestShellHelpCoversCommands: help lists every command of the table on
// its own line under its section heading, printed once, and a command
// given too few arguments reports its usage line from the table.
func TestShellHelpCoversCommands(t *testing.T) {
	_, out := testShell(t, "help")
	listed := map[string]bool{}
	headings := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  ") {
			listed[strings.Fields(line)[0]] = true
		} else if strings.HasSuffix(line, ":") {
			headings[strings.TrimSuffix(line, ":")]++
		}
	}
	var bare []string
	for _, c := range commands {
		if !listed[c.name] {
			t.Errorf("help missing %q", c.name)
		}
		if headings[c.section] != 1 {
			t.Errorf("help prints section %q %d times", c.section, headings[c.section])
		}
		if c.minArgs > 0 {
			bare = append(bare, c.name)
		}
	}
	_, out = testShell(t, bare...)
	for _, name := range bare {
		if want := "error: usage: " + lookup(name).usage() + "\n"; !strings.Contains(out, want) {
			t.Errorf("bare %q did not print %q:\n%s", name, want, out)
		}
	}
}

// TestShellMotionNeedsItsNumbers: a navigation command short of numbers
// is a usage error, not an index panic.
func TestShellMotionNeedsItsNumbers(t *testing.T) {
	_, out := testShell(t,
		"add table name=Stations",
		"viewer v 1.0 100 80",
		"pan v 5",
		"slider v 1 2",
	)
	for _, want := range []string{"error: usage: pan ", "error: usage: slider "} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellApplySel(t *testing.T) {
	_, out := testShell(t,
		"add table name=Stations",
		"add table name=LouisianaMap",
		"add overlay",
		"connect 1.0 3.0",
		"connect 2.0 3.1",
		`applysel 3.0 restrict 0 0 pred='state = "LA"'`,
		"show",
	)
	if strings.Contains(out, "error") {
		t.Fatalf("applysel failed:\n%s", out)
	}
	if !strings.Contains(out, "liftc") {
		t.Fatalf("no lift box in program:\n%s", out)
	}
}

func TestShellStatsTraceHisto(t *testing.T) {
	obs.Reset()
	t.Cleanup(obs.Reset)
	dir := t.TempDir()
	png := filepath.Join(dir, "o.png")
	tracePath := filepath.Join(dir, "trace.json")
	_, out := testShell(t,
		"trace on "+tracePath,
		"add table name=Stations",
		"viewer v 1.0 120 90",
		"panto v -92 31",
		"elev v 10",
		"render v "+png,
		"trace off",
		"stats",
		"histo render.frame_ns",
	)
	// The render fired boxes and culled out-of-view tuples; stats shows
	// both with nonzero values.
	if fires := obs.CounterValue(obs.EvalFires); fires == 0 {
		t.Fatalf("no box fires recorded:\n%s", out)
	}
	if culled := obs.CounterValue(obs.RenderTuplesCulled); culled == 0 {
		t.Fatalf("no tuples culled:\n%s", out)
	}
	for _, want := range []string{obs.EvalFires, obs.RenderTuplesCulled, obs.RenderFrameNS} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %s:\n%s", want, out)
		}
	}
	// The histogram renders with its summary line.
	if !strings.Contains(out, "p95") {
		t.Errorf("histo output missing summary:\n%s", out)
	}
	// trace off wrote a Chrome trace with render spans.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range tf.TraceEvents {
		seen[e.Name] = true
	}
	if !seen["render.frame"] || !seen["eval.fire"] {
		t.Fatalf("trace missing expected spans (got %v)", seen)
	}
}

// TestShellStatsShowsCacheCountersWithoutObs: the per-viewer render cache
// counters live on the viewers, not in the obs registry, so stats surfaces
// them even with instrumentation fully disabled.
func TestShellStatsShowsCacheCountersWithoutObs(t *testing.T) {
	obs.Reset()
	t.Cleanup(func() { obs.Reset(); obs.SetEnabled(false) })
	dir := t.TempDir()
	png := filepath.Join(dir, "o.png")
	env, err := core.NewSeededEnvironment(80, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sh := newShell(env, &buf)
	obs.SetEnabled(false) // newShell turns metrics on; force them off
	for _, c := range []string{
		"add table name=Stations",
		"viewer v 1.0 120 90",
		"render v " + png,
		"render v " + png,
		"stats",
	} {
		sh.Execute(c)
	}
	out := buf.String()
	if !strings.Contains(out, "canvas v") || !strings.Contains(out, "memo") {
		t.Fatalf("stats output missing cache counters:\n%s", out)
	}
	// The second render of an unchanged view must have hit the memo, and
	// the hit shows up in stats without any obs counters recorded.
	v, err := env.Canvas("v")
	if err != nil {
		t.Fatal(err)
	}
	if v.CacheStats().MemoHits == 0 {
		t.Fatalf("repeat render did not hit the display memo: %+v", v.CacheStats())
	}
	if obs.CounterValue(obs.RenderMemoHits) != 0 {
		t.Fatal("obs counters recorded while disabled")
	}
}

func TestShellTraceUsageErrors(t *testing.T) {
	_, out := testShell(t, "trace", "trace off", "histo no.such_metric")
	if strings.Count(out, "error:") != 3 {
		t.Fatalf("expected 3 errors:\n%s", out)
	}
}

func TestShellCheckCommand(t *testing.T) {
	// A clean pipeline checks ok; an unwired join then draws a coded,
	// located diagnostic (plus a dead-box warning for its unused output).
	_, out := testShell(t,
		"add table name=Stations",
		"add restrict pred='true'",
		"connect 1.0 2.0",
		"add join pred='true'",
		"check",
	)
	for _, want := range []string{
		"TV002 error box 3 (join) port 0: input not connected",
		"TV002 error box 3 (join) port 1: input not connected",
		"TV004 warning box 3 (join)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("check output missing %q:\n%s", want, out)
		}
	}

	_, out = testShell(t,
		"add table name=Stations",
		"add restrict pred='true'",
		"connect 1.0 2.0",
		"viewer v 2.0",
		"check",
	)
	if !strings.Contains(out, "ok: no diagnostics") {
		t.Errorf("clean program did not check ok:\n%s", out)
	}
}

func TestShellFlightCommand(t *testing.T) {
	obs.ResetFlight()
	prev := obs.SetFlightEnabled(true)
	defer obs.SetFlightEnabled(prev)

	dir := t.TempDir()
	dump := filepath.Join(dir, "flight.json")
	_, out := testShell(t,
		"add table name=Stations",
		`add restrict pred='state = "LA"'`,
		"connect 1.0 2.0",
		"viewer v 2.0 120 80",
		"ascii v 10",
		"flight",
		"flight "+dump,
		"flight budget 16ms",
		"flight budget off",
		"flight budget nonsense",
	)
	if !strings.Contains(out, "flight recorder:") || !strings.Contains(out, "spans buffered") {
		t.Fatalf("flight summary missing:\n%s", out)
	}
	if !strings.Contains(out, "most recent trace") || !strings.Contains(out, "render.frame") {
		t.Fatalf("flight span tree missing render.frame:\n%s", out)
	}
	if !strings.Contains(out, "watchdog armed") || !strings.Contains(out, "watchdog off") {
		t.Fatalf("flight budget output missing:\n%s", out)
	}
	if !strings.Contains(out, "bad duration") {
		t.Fatalf("bad budget duration not rejected:\n%s", out)
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("flight dump is not Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("flight dump has no events")
	}
}
