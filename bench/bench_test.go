package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// tinySizes runs every workload in well under a second of set-up.
var tinySizes = sizes{
	setups:         1,
	browseStations: 400,
	checkedFrames:  5,
	liveStations:   400,
	writePeriod:    20 * time.Millisecond,
	editStations:   400,
	frameW:         160,
	frameH:         120,
}

func tinyConfig(t *testing.T, wl string, trace bool) config {
	dir := t.TempDir()
	return config{
		workload:  wl,
		seed:      3,
		window:    300 * time.Millisecond,
		trace:     trace,
		traceFile: filepath.Join(dir, "trace.json"),
		workDir:   dir,
		sizes:     tinySizes,
	}
}

func TestSummarize(t *testing.T) {
	if d := summarize(nil); d.N != 0 || d.P50 != 0 || d.P95 != 0 || d.P95Supported {
		t.Fatalf("empty sample: %+v", d)
	}
	xs := make([]float64, 0, 240)
	for i := 240; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	d := summarize(xs)
	// Interpolated ranks: p50 at 119.5, p95 at 227.05 (0-based).
	if d.N != 240 || d.P50 != 120.5 || math.Abs(d.P95-228.05) > 1e-9 {
		t.Fatalf("summarize(1..240) = %+v", d)
	}
	if !d.P95Supported {
		t.Fatalf("240 samples leave 12 beyond p95, want supported")
	}
	if summarize(xs[:100]).P95Supported {
		t.Fatalf("100 samples leave 5 beyond p95, want unsupported")
	}
	if beyond(200, 0.95) < minBeyond || beyond(180, 0.95) >= minBeyond {
		t.Fatalf("beyond(200)=%d beyond(180)=%d", beyond(200, 0.95), beyond(180, 0.95))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1.5, 2.5, 10, 7, 3, 9, 4, 8}, [3]float64{2.625, 5.5, 8.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1.5, 2.5, 10, 7, 3, 9, 4, 8}); math.Abs(got-(8.75-2.625)/5.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{id: 1, name: spanEditOp, start: at(0), end: at(100)},
		{id: 2, parent: 1, name: spanSetParams, start: at(0), end: at(10)},
		{id: 3, parent: 1, name: spanEval, start: at(5), end: at(50)}, // overlaps its sibling
		{id: 4, parent: 1, name: spanRenderInto, start: at(60), end: at(90)},
	}
	self := selfTimes(spans, t0)
	want := map[string]time.Duration{
		"bench": 20 * time.Millisecond, "core": 10 * time.Millisecond,
		"dataflow": 45 * time.Millisecond, "viewer": 30 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestScriptsFollowTheSeed(t *testing.T) {
	views := func(seed int64) []server.ClientOp {
		var out []server.ClientOp
		for c := 0; c < 2; c++ {
			s := newViewScript(seed, c)
			for i := 0; i < 50; i++ {
				out = append(out, s.next())
			}
		}
		return append(out, finalView(seed))
	}
	writes := func(seed int64) []write {
		s := newWriteScript(seed, 10000, 50*time.Millisecond)
		var out []write
		for i := 0; i < 50; i++ {
			out = append(out, s.next())
		}
		return out
	}
	edits := func(seed int64) []edit {
		s := newEditScript(seed)
		var out []edit
		for i := 0; i < 50; i++ {
			out = append(out, s.next())
		}
		return out
	}
	if !reflect.DeepEqual(views(1), views(1)) || !reflect.DeepEqual(writes(1), writes(1)) || !reflect.DeepEqual(edits(1), edits(1)) {
		t.Fatal("the same seed gave different sequences")
	}
	if reflect.DeepEqual(views(1), views(2)) || reflect.DeepEqual(writes(1), writes(2)) || reflect.DeepEqual(edits(1), edits(2)) {
		t.Fatal("different seeds gave the same sequence")
	}
	if v := views(1); reflect.DeepEqual(v[:50], v[50:100]) {
		t.Fatal("two clients share one view script")
	}
	for _, w := range writes(1) {
		if w.row%4 != 0 || w.row >= 10000 {
			t.Fatalf("write to row %d, want a Louisiana station below 10000", w.row)
		}
	}
}

// TestEveryWorkloadSmall runs each workload untraced and traced at a
// tiny size: every run must pass its oracles and print exactly the
// metrics BENCHMARK.json lists for its mode, with their units.
func TestEveryWorkloadSmall(t *testing.T) {
	spec := readSpec(t)
	start := time.Now()
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, wl.Name, trace)
			var log bytes.Buffer
			res, err := execute(cfg, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.Name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want positive", wl.Name, name, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v printed metrics %v, want %v", wl.Name, trace, got, want)
			}
			if trace {
				checkTraceFile(t, cfg.traceFile)
			}
		}
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("small runs took %v", took)
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
}

func TestBogusOpCountsAsFailed(t *testing.T) {
	cfg := tinyConfig(t, "browse", false)
	cfg.inject = []server.ClientOp{{Op: "bogus"}}
	done := make(chan struct{})
	var res *result
	var err error
	go func() {
		defer close(done)
		res, err = execute(cfg, &bytes.Buffer{})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a bogus op hung the run")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct {
		t.Fatalf("bogus op: failed=%d correct=%v, want a failed op and an incorrect run", res.Failed, res.Correct)
	}
}

func TestLiveRejectsALaggingWriter(t *testing.T) {
	w, err := newWorkload(tinyConfig(t, "live", false), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	info := &runInfo{}
	if err := w.setup(info); err != nil {
		t.Fatal(err)
	}
	lagging := func(ms float64) *phase {
		p := &phase{}
		for i := 0; i < 40; i++ {
			p.writerLag = append(p.writerLag, ms)
		}
		return p
	}
	info.timed = lagging(maxWriterLagMS / 2)
	if failures := w.check(info); len(failures) != 0 {
		t.Fatalf("a writer on schedule failed the run: %v", failures)
	}
	info.timed = lagging(2 * maxWriterLagMS)
	failures := w.check(info)
	if len(failures) != 1 || !strings.Contains(failures[0], "writer lag") {
		t.Fatalf("a writer behind schedule gave failures %v, want one for its lag", failures)
	}
}

// specFile is BENCHMARK.json with every field the benchmark contract
// allows.
type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) *specFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s specFile
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &s
}

func TestBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if !reflect.DeepEqual(s.Paths, []string{"bench"}) || len(s.Command) == 0 || s.Command[len(s.Command)-1] != "bench/run.sh" {
		t.Errorf("command %v, paths %v", s.Command, s.Paths)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 || len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 || len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics", len(s.Workloads), len(s.EndToEnd), len(s.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	workloads := map[string]bool{}
	for _, w := range s.Workloads {
		name(w.Name)
		workloads[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(workloads, map[string]bool{"browse": true, "live": true, "edit": true, "edit_spill": true}) {
		t.Errorf("workloads %v", workloads)
	}
	endToEndNames := map[string]bool{}
	var setup bool
	for i, m := range s.EndToEnd {
		name(m.Name)
		endToEndNames[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q better %q bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range s.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
		if i >= len(endToEnd) || endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit || endToEnd[i].better != m.Better {
			t.Errorf("end_to_end[%d] = %s %s %s does not match the program's table", i, m.Name, m.Unit, m.Better)
		}
	}
	if !setup || len(s.EndToEnd) != len(endToEnd) {
		t.Errorf("setup_s missing or end-to-end tables differ in length")
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		name(m.Name)
		p := perLayer[i]
		if !unitRE.MatchString(m.Unit) || p.name != m.Name || p.unit != m.Unit || p.better != m.Better {
			t.Errorf("per_layer[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, p.name, p.unit, p.better)
		}
		if !endToEndNames[p.moves] {
			t.Errorf("per-layer %s moves %q, not an end-to-end metric", p.name, p.moves)
		}
		if len(p.on) == 0 {
			t.Errorf("per-layer %s names no workload", p.name)
		}
		for _, w := range p.on {
			if !workloads[w] {
				t.Errorf("per-layer %s names unknown workload %q", p.name, w)
			}
		}
	}
	if len(seen) != len(s.Workloads)+len(s.EndToEnd)+len(s.PerLayer) {
		t.Errorf("names are not unique")
	}
}

func TestAgreeMarksWideSpreadUnresolved(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fps float64) string {
		res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"frames_per_s": {Value: fps, Unit: "1/s"},
		}}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, append([]byte("some log line\n"), append(line, '\n')...), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	steady := []string{write("browse.a1.json", 100), write("browse.a2.json", 101), write("browse.a3.json", 99)}
	noisy := []string{write("browse.b1.json", 50), write("browse.b2.json", 100), write("browse.b3.json", 150)}
	// The agree summary reads BENCHMARK.json from the repository root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	var out, errOut bytes.Buffer
	if code := run(append(append([]string{"--agree"}, steady...), append([]string{"--"}, noisy...)...), &out, &errOut); code != 0 {
		t.Fatalf("agree exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "== browse") || !strings.Contains(out.String(), "unresolved") {
		t.Fatalf("noisy set not marked unresolved:\n%s", out.String())
	}
	out.Reset()
	if code := run(append([]string{"--agree"}, steady...), &out, &errOut); code != 0 {
		t.Fatalf("agree exited %d: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), "unresolved") || !strings.Contains(out.String(), " ok") {
		t.Fatalf("steady set not ok:\n%s", out.String())
	}
}
