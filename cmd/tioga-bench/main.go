// Command tioga-bench runs a fixed set of representative workloads with
// Go's benchmark machinery and writes a machine-readable JSON report:
// ns/op for each workload plus the obs counter deltas (box fires, cache
// hits, tuples culled, ...) one iteration of that workload produces.
//
// Timing runs happen with obs disabled, so the numbers match the
// production configuration; counters come from a separate instrumented
// pass over the same closure.
//
// Usage:
//
//	tioga-bench [-o BENCH_obs.json] [-benchtime 1s] [-v]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/display"
	"repro/internal/draw"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/raster"
	"repro/internal/rel"
	"repro/internal/viewer"
	"repro/internal/workload"
)

type benchResult struct {
	Name       string           `json:"name"`
	Iterations int              `json:"iterations"`
	NsPerOp    int64            `json:"ns_per_op"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

type benchReport struct {
	GeneratedBy string        `json:"generated_by"`
	Meta        runMeta       `json:"meta"`
	BenchTime   string        `json:"bench_time"`
	Results     []benchResult `json:"results"`
}

// benchCase is one workload: setup runs once and returns the closure a
// single iteration executes.
type benchCase struct {
	name  string
	setup func() (func() error, error)
}

func main() {
	out := flag.String("o", "BENCH_obs.json", "output JSON file")
	parallelOut := flag.String("parallel-out", "BENCH_parallel_eval.json", "output JSON file for the serial-vs-parallel eval comparison")
	renderOut := flag.String("render-out", "BENCH_render.json", "output JSON file for the cached-vs-uncached render comparison")
	queryOut := flag.String("query-out", "BENCH_query.json", "output JSON file for the compiled-vs-interpreted query pipeline comparison")
	columnarOut := flag.String("columnar-out", "BENCH_columnar.json", "output JSON file for the columnar-kernel-vs-row-major scan comparison")
	loadOut := flag.String("load-out", "BENCH_load.json", "output JSON file for the multi-client push server load run")
	benchtime := flag.Duration("benchtime", time.Second, "target time per workload")
	quick := flag.Bool("quick", false, "CI smoke mode: small datasets and short benchtime")
	verbose := flag.Bool("v", false, "print results as they complete")
	compare := flag.Bool("compare", false, "compare two bench reports (args: old.json new.json) and fail on regressions")
	threshold := flag.Float64("threshold", 0.15, "relative regression tolerance for -compare (0.15 = 15%)")
	absGate := flag.Bool("abs", false, "with -compare, also gate absolute ns keys (same-machine comparisons only)")
	telemetry := flag.String("telemetry", "", "serve /snapshot, /metrics, /trace, and pprof on this address while benchmarks run")
	testing.Init() // registers test.benchtime, which testing.Benchmark reads
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "tioga-bench: -compare needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		regs, err := runCompare(flag.Arg(0), flag.Arg(1), *threshold, *absGate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tioga-bench:", err)
			os.Exit(1)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "tioga-bench: %d regression(s) vs %s:\n", len(regs), flag.Arg(0))
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  "+r.String())
			}
			os.Exit(1)
		}
		fmt.Printf("no regressions: %s vs %s (threshold %.0f%%)\n", flag.Arg(1), flag.Arg(0), 100**threshold)
		return
	}

	if *quick && *benchtime == time.Second {
		*benchtime = 50 * time.Millisecond
	}
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintln(os.Stderr, "tioga-bench:", err)
		os.Exit(1)
	}
	if *telemetry != "" {
		obs.SetEnabled(true) // timedSection still turns recorders off inside timed passes
		srv, terr := export.Start(*telemetry)
		if terr != nil {
			fmt.Fprintln(os.Stderr, "tioga-bench:", terr)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry -> http://%s/\n", srv.Addr)
	}

	// fail dumps the flight recorder next to the reports before exiting,
	// so a CI failure ships the causal trace of what the bench was doing.
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "tioga-bench:", err)
		if events := obs.DumpFlight(); len(events) > 0 {
			if werr := obs.WriteFlightFile("flight_trace.json", events); werr == nil {
				fmt.Fprintln(os.Stderr, "flight recorder -> flight_trace.json")
			}
		}
		os.Exit(1)
	}
	if err := run(*out, *benchtime, *verbose); err != nil {
		fail(err)
	}
	if err := runParallelEval(*parallelOut, *quick, *verbose); err != nil {
		fail(err)
	}
	if err := runRenderBench(*renderOut, *quick, *verbose); err != nil {
		fail(err)
	}
	if err := runQueryBench(*queryOut, *quick, *verbose); err != nil {
		fail(err)
	}
	if err := runColumnarBench(*columnarOut, *quick, *verbose); err != nil {
		fail(err)
	}
	if err := runLoadBench(*loadOut, *quick, *verbose); err != nil {
		fail(err)
	}
}

// timedSection runs fn with the flight recorder off as well as the obs
// registry, so timed passes measure the true production configuration,
// then restores the recorder for the surrounding instrumented passes.
func timedSection(fn func()) {
	prevObs := obs.Enabled()
	obs.SetEnabled(false)
	prevFlight := obs.SetFlightEnabled(false)
	defer func() {
		obs.SetFlightEnabled(prevFlight)
		obs.SetEnabled(prevObs)
	}()
	fn()
}

func run(out string, benchtime time.Duration, verbose bool) error {
	cases := []benchCase{
		{"figure7_drilldown", setupFigure7},
		{"parallel_display_eval", setupParallelEval},
		{"lazy_demand", setupLazyDemand},
		{"join_hash", setupJoinHash},
	}
	report := benchReport{GeneratedBy: "tioga-bench", Meta: collectMeta(), BenchTime: benchtime.String()}
	for _, c := range cases {
		iter, err := c.setup()
		if err != nil {
			return fmt.Errorf("%s: setup: %w", c.name, err)
		}

		// Timed pass: obs and the flight recorder off, the production
		// configuration.
		var iterErr error
		var r testing.BenchmarkResult
		timedSection(func() {
			r = testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := iter(); err != nil {
						iterErr = err
						b.FailNow()
					}
				}
			})
		})
		if iterErr != nil {
			return fmt.Errorf("%s: %w", c.name, iterErr)
		}

		// Counter pass: one instrumented iteration against a clean
		// registry yields the per-iteration counter profile.
		obs.Reset()
		prevObs := obs.Enabled()
		obs.SetEnabled(true)
		before := obs.TakeSnapshot()
		if err := iter(); err != nil {
			obs.SetEnabled(prevObs)
			return fmt.Errorf("%s: instrumented run: %w", c.name, err)
		}
		delta := obs.CounterDelta(before, obs.TakeSnapshot())
		obs.SetEnabled(prevObs)
		obs.Reset()

		res := benchResult{
			Name:       c.name,
			Iterations: r.N,
			NsPerOp:    r.NsPerOp(),
			Counters:   delta,
		}
		report.Results = append(report.Results, res)
		if verbose {
			fmt.Printf("%-24s %12d ns/op  (%d iterations)\n", c.name, res.NsPerOp, res.Iterations)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d workloads)\n", out, len(report.Results))
	return nil
}

// setupFigure7 mirrors BenchmarkFigure7DrillDown: the figure-7 canvas at
// low elevation (labels visible), re-rendered per iteration.
func setupFigure7() (func() error, error) {
	env, err := core.NewSeededEnvironment(400, 132, 42)
	if err != nil {
		return nil, err
	}
	canvas, err := core.Figure7(env)
	if err != nil {
		return nil, err
	}
	v, err := env.Canvas(canvas)
	if err != nil {
		return nil, err
	}
	if err := v.SetElevation(0, 2); err != nil {
		return nil, err
	}
	if _, _, err := v.Render(); err != nil { // warm dataflow caches
		return nil, err
	}
	return func() error {
		_, _, err := v.Render()
		return err
	}, nil
}

// setupParallelEval mirrors BenchmarkParallelDisplayEval/Parallel: an
// expression-heavy display over a large visible batch.
func setupParallelEval() (func() error, error) {
	st := workload.Stations(30000, 1)
	fn, err := draw.ParseSpec("circle rexpr='sqrt(altitude + 1.0) / 20' color=blue + label expr='upper(name)' size=0.01")
	if err != nil {
		return nil, err
	}
	e, err := display.NewExtended("stations", st,
		[]string{"longitude", "latitude"},
		[]display.NamedDisplay{{Name: "display", Fn: fn}})
	if err != nil {
		return nil, err
	}
	v := viewer.New("v", viewer.DirectSource{D: e}, 640, 480)
	v.Parallel = true
	if err := v.PanTo(0, -100, 37); err != nil {
		return nil, err
	}
	if err := v.SetElevation(0, 30); err != nil {
		return nil, err
	}
	if _, _, err := v.Render(); err != nil {
		return nil, err
	}
	return func() error {
		_, _, err := v.Render()
		return err
	}, nil
}

// setupLazyDemand builds table -> restrict -> project and measures a
// cold demand (invalidate, fire the chain) plus a memoized re-demand.
func setupLazyDemand() (func() error, error) {
	env, err := core.NewSeededEnvironment(400, 132, 42)
	if err != nil {
		return nil, err
	}
	tb, err := env.AddBox("table", map[string]string{"name": "Stations"})
	if err != nil {
		return nil, err
	}
	rb, err := env.AddBox("restrict", map[string]string{"pred": "state = 'LA'"})
	if err != nil {
		return nil, err
	}
	pb, err := env.AddBox("project", map[string]string{"attrs": "id,name,state"})
	if err != nil {
		return nil, err
	}
	if err := env.Connect(tb.ID, 0, rb.ID, 0); err != nil {
		return nil, err
	}
	if err := env.Connect(rb.ID, 0, pb.ID, 0); err != nil {
		return nil, err
	}
	req := dataflow.Request{Box: pb.ID}
	return func() error {
		env.Eval.InvalidateAll()
		if _, err := env.Eval.Eval(context.Background(), req); err != nil {
			return err
		}
		_, err := env.Eval.Eval(context.Background(), req) // memo hit
		return err
	}, nil
}

// parallelEvalReport is the serial-vs-parallel wavefront comparison
// written to BENCH_parallel_eval.json: one wide-fanout workload timed
// under both schedulers, plus the output-identity check the speedup is
// only meaningful with.
type parallelEvalReport struct {
	GeneratedBy      string           `json:"generated_by"`
	Meta             runMeta          `json:"meta"`
	Workload         string           `json:"workload"`
	Rows             int              `json:"rows"`
	Branches         int              `json:"branches"`
	Workers          int              `json:"workers"`
	FetchDelayMS     int              `json:"simulated_fetch_ms"`
	NumCPU           int              `json:"num_cpu"`
	SerialNsPerOp    int64            `json:"serial_ns_per_op"`
	ParallelNsPerOp  int64            `json:"parallel_ns_per_op"`
	Speedup          float64          `json:"speedup"`
	OutputsIdentical bool             `json:"outputs_identical"`
	ParallelStats    map[string]int64 `json:"parallel_stats,omitempty"`
}

// registerSlowFetch installs a bench-only R -> R box that passes its
// input through after a fixed delay, standing in for the per-query
// POSTGRES fetch latency of the paper's client/server deployment
// (Tioga-2 boxes issue queries to a database server; this repo's
// in-memory tables answer instantly, so the latency the wavefront
// scheduler exists to overlap is simulated explicitly).
func registerSlowFetch(reg *dataflow.Registry) {
	reg.MustRegister(&dataflow.Kind{
		Name:          "slowfetch",
		Doc:           "Bench-only: identity on R after a simulated server fetch delay (param ms).",
		ExampleParams: dataflow.Params{"ms": "10"},
		Ports: func(p dataflow.Params) (in, out []dataflow.PortType, err error) {
			return []dataflow.PortType{dataflow.RType}, []dataflow.PortType{dataflow.RType}, nil
		},
		Fire: func(fc *dataflow.FireContext, p dataflow.Params, in []dataflow.Value) ([]dataflow.Value, error) {
			ms, err := strconv.Atoi(p["ms"])
			if err != nil {
				return nil, fmt.Errorf("slowfetch: bad ms param %q", p["ms"])
			}
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return []dataflow.Value{in[0]}, nil
		},
	})
}

// buildFanout constructs the wide-fanout program: one table feeding
// `branches` independent fetch+restrict chains — a slowfetch modeling
// the per-branch server round trip, then a restrict with an
// arithmetic-heavy predicate — merged back to a single root by a
// binary tree of union boxes. All fetches share a wavefront level, as
// do all restricts, so the parallel scheduler can fire each level's
// boxes concurrently.
func buildFanout(env *core.Environment, branches, fetchMS int) (root int, err error) {
	tb, err := env.AddBox("table", map[string]string{"name": "Stations"})
	if err != nil {
		return 0, err
	}
	var layer []*dataflow.Box
	for i := 0; i < branches; i++ {
		fb, err := env.AddBox("slowfetch", map[string]string{"ms": strconv.Itoa(fetchMS)})
		if err != nil {
			return 0, err
		}
		if err := env.Connect(tb.ID, 0, fb.ID, 0); err != nil {
			return 0, err
		}
		pred := fmt.Sprintf(
			"sqrt((longitude + 200.0) * (longitude + 200.0) + latitude * latitude + altitude) + sin(latitude * %d.0) * sin(longitude * %d.0) > %d.0",
			i+1, i+2, 190+i)
		rb, err := env.AddBox("restrict", map[string]string{"pred": pred})
		if err != nil {
			return 0, err
		}
		if err := env.Connect(fb.ID, 0, rb.ID, 0); err != nil {
			return 0, err
		}
		layer = append(layer, rb)
	}
	for len(layer) > 1 {
		var next []*dataflow.Box
		for i := 0; i+1 < len(layer); i += 2 {
			ub, err := env.AddBox("union", nil)
			if err != nil {
				return 0, err
			}
			if err := env.Connect(layer[i].ID, 0, ub.ID, 0); err != nil {
				return 0, err
			}
			if err := env.Connect(layer[i+1].ID, 0, ub.ID, 1); err != nil {
				return 0, err
			}
			next = append(next, ub)
		}
		if len(layer)%2 == 1 {
			next = append(next, layer[len(layer)-1])
		}
		layer = next
	}
	return layer[0].ID, nil
}

// fingerprint renders a demanded R value to a canonical string so the
// serial and parallel schedulers can be checked for identical output.
func fingerprint(v dataflow.Value) (string, error) {
	e, ok := v.(*display.Extended)
	if !ok {
		return "", fmt.Errorf("fanout root produced %T, want *display.Extended", v)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %d\n", e.Label, e.Rel.Len())
	for i := 0; i < e.Rel.Len(); i++ {
		fmt.Fprintf(&sb, "%v\n", e.Rel.Tuple(i))
	}
	return sb.String(), nil
}

// runParallelEval times the wide-fanout workload under the serial and
// parallel schedulers and writes the comparison report. Each iteration
// is a cold evaluation: InvalidateAll, then one Eval of the root.
func runParallelEval(out string, quick, verbose bool) error {
	rows, branches, workers, fetchMS := 6000, 12, 4, 25
	if quick {
		rows, fetchMS = 2000, 15
	}
	env, err := core.NewSeededEnvironment(rows, 1, 42)
	if err != nil {
		return fmt.Errorf("parallel_eval: seed: %w", err)
	}
	registerSlowFetch(env.Registry)
	root, err := buildFanout(env, branches, fetchMS)
	if err != nil {
		return fmt.Errorf("parallel_eval: build: %w", err)
	}

	ctx := context.Background()
	evalOnce := func(opts ...dataflow.EvalOption) (dataflow.Result, error) {
		env.Eval.InvalidateAll()
		return env.Eval.Eval(ctx, dataflow.Request{Box: root, Port: 0}, opts...)
	}

	// Output identity first: the speedup claim is vacuous if the
	// schedulers disagree.
	serialRes, err := evalOnce(dataflow.WithWorkers(1), dataflow.WithLabel("bench-serial"))
	if err != nil {
		return fmt.Errorf("parallel_eval: serial eval: %w", err)
	}
	serialFP, err := fingerprint(serialRes.Value)
	if err != nil {
		return fmt.Errorf("parallel_eval: %w", err)
	}
	parRes, err := evalOnce(dataflow.WithWorkers(workers), dataflow.WithLabel("bench-parallel"))
	if err != nil {
		return fmt.Errorf("parallel_eval: parallel eval: %w", err)
	}
	parFP, err := fingerprint(parRes.Value)
	if err != nil {
		return fmt.Errorf("parallel_eval: %w", err)
	}
	identical := serialFP == parFP

	time_ := func(opts ...dataflow.EvalOption) (int64, error) {
		var iterErr error
		var r testing.BenchmarkResult
		timedSection(func() {
			r = testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := evalOnce(opts...); err != nil {
						iterErr = err
						b.FailNow()
					}
				}
			})
		})
		if iterErr != nil {
			return 0, iterErr
		}
		return r.NsPerOp(), nil
	}
	serialNs, err := time_(dataflow.WithWorkers(1))
	if err != nil {
		return fmt.Errorf("parallel_eval: serial bench: %w", err)
	}
	parNs, err := time_(dataflow.WithWorkers(workers))
	if err != nil {
		return fmt.Errorf("parallel_eval: parallel bench: %w", err)
	}

	report := parallelEvalReport{
		GeneratedBy:      "tioga-bench",
		Meta:             collectMeta(),
		Workload:         "wide_fanout_fetch_restrict_union",
		Rows:             rows,
		Branches:         branches,
		Workers:          workers,
		FetchDelayMS:     fetchMS,
		NumCPU:           runtime.NumCPU(),
		SerialNsPerOp:    serialNs,
		ParallelNsPerOp:  parNs,
		Speedup:          float64(serialNs) / float64(parNs),
		OutputsIdentical: identical,
		ParallelStats: map[string]int64{
			"fires":      int64(parRes.Fires),
			"cache_hits": int64(parRes.CacheHits),
			"coalesced":  int64(parRes.Coalesced),
			"waves":      int64(parRes.Waves),
		},
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	if verbose {
		fmt.Printf("%-24s %12d ns/op (serial)\n", "parallel_eval", serialNs)
		fmt.Printf("%-24s %12d ns/op (%d workers)\n", "", parNs, workers)
	}
	fmt.Printf("wrote %s (speedup %.2fx, outputs identical: %v)\n", out, report.Speedup, identical)
	if !identical {
		return fmt.Errorf("parallel_eval: serial and parallel outputs differ")
	}
	return nil
}

// renderBenchReport is the cached-vs-uncached render comparison written
// to BENCH_render.json: a fixed pan/zoom sequence over a large stations
// relation timed with the cross-frame render caches on and off, the
// byte-identity check the speedup is only meaningful with, and the
// per-frame obs counter profile of each configuration.
type renderBenchReport struct {
	GeneratedBy        string           `json:"generated_by"`
	Meta               runMeta          `json:"meta"`
	Workload           string           `json:"workload"`
	Rows               int              `json:"rows"`
	Frames             int              `json:"frames_per_iteration"`
	Width              int              `json:"width"`
	Height             int              `json:"height"`
	CachedNsPerFrame   int64            `json:"cached_ns_per_frame"`
	UncachedNsPerFrame int64            `json:"uncached_ns_per_frame"`
	CachedP95NS        int64            `json:"cached_p95_ns"`
	UncachedP95NS      int64            `json:"uncached_p95_ns"`
	Speedup            float64          `json:"speedup"`
	OutputsIdentical   bool             `json:"outputs_identical"`
	CachedPerFrame     map[string]int64 `json:"cached_counters_per_frame,omitempty"`
	UncachedPerFrame   map[string]int64 `json:"uncached_counters_per_frame,omitempty"`
	CachedCacheStats   string           `json:"cached_cache_stats,omitempty"`
}

// renderFrame is one step of the pan/zoom script.
type renderFrame struct{ x, y, elev float64 }

// renderScript is the interaction the caches target — the paper's
// pan-and-zoom browsing regime, where each frame sees a small window of a
// large, stable dataset: a run of small pan steps across Louisiana at
// constant elevation, a zoom in/out, and a revisit of an earlier
// viewpoint.
func renderScript() []renderFrame {
	var frames []renderFrame
	for i := 0; i < 10; i++ { // pan strip across Louisiana
		frames = append(frames, renderFrame{-93.5 + 0.2*float64(i), 31, 0.35})
	}
	frames = append(frames,
		renderFrame{-91.7, 31, 0.12}, // zoom in
		renderFrame{-91.7, 31, 0.35}, // zoom back out
		renderFrame{-93.5, 31, 0.35}, // revisit the strip's start
		renderFrame{-93.3, 31, 0.35},
	)
	return frames
}

// newRenderBenchViewer builds the workload viewer: a large stations
// relation with an expression-heavy display (the memo's target — display
// evaluation that costs something).
func newRenderBenchViewer(rows int, cached bool) (*viewer.Viewer, error) {
	st := workload.Stations(rows, 1)
	fn, err := draw.ParseSpec("circle rexpr='sqrt(altitude + 1.0) / 3000' color=blue + circle rexpr='(sin(latitude) * sin(latitude) + 1.0) / 500' color=red")
	if err != nil {
		return nil, err
	}
	e, err := display.NewExtended("stations", st,
		[]string{"longitude", "latitude"},
		[]display.NamedDisplay{{Name: "display", Fn: fn}})
	if err != nil {
		return nil, err
	}
	v := viewer.New("render-bench", viewer.DirectSource{D: e}, 640, 480)
	// The default cull margin (20 canvas units) is sized for coarse
	// canvases; these drawables reach at most ~0.05 degrees, so a huge
	// margin would just drag most of the continent through the pipeline.
	v.CullMargin = 0.1
	if !cached {
		v.DisableSpatialIndex = true
		v.DisableDisplayMemo = true
		v.DisableWormholeCache = true
	}
	return v, nil
}

// runRenderBench times the pan/zoom script with caches on and off and
// writes the comparison report.
func runRenderBench(out string, quick, verbose bool) error {
	rows := 100000
	if quick {
		rows = 20000
	}
	script := renderScript()

	playFrame := func(v *viewer.Viewer, img *raster.Image, f renderFrame) error {
		if err := v.PanTo(0, f.x, f.y); err != nil {
			return err
		}
		if err := v.SetElevation(0, f.elev); err != nil {
			return err
		}
		_, err := v.RenderInto(img)
		return err
	}

	// Output identity first: every frame of the script, cached vs
	// uncached, must encode to the same PNG bytes.
	cv, err := newRenderBenchViewer(rows, true)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	uv, err := newRenderBenchViewer(rows, false)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	cImg := raster.NewImage(cv.W, cv.H)
	uImg := raster.NewImage(uv.W, uv.H)
	identical := true
	for i, f := range script {
		if err := playFrame(cv, cImg, f); err != nil {
			return fmt.Errorf("render: cached frame %d: %w", i, err)
		}
		if err := playFrame(uv, uImg, f); err != nil {
			return fmt.Errorf("render: uncached frame %d: %w", i, err)
		}
		var cb, ub bytes.Buffer
		if err := cImg.WritePNG(&cb); err != nil {
			return err
		}
		if err := uImg.WritePNG(&ub); err != nil {
			return err
		}
		if !bytes.Equal(cb.Bytes(), ub.Bytes()) {
			identical = false
			fmt.Fprintf(os.Stderr, "render: frame %d (%+v) differs cached vs uncached\n", i, f)
		}
	}

	// Timed passes: obs and flight recorder off, caches pre-warmed on the
	// cached viewer by the identity pass above (steady-state panning is
	// what the caches serve). Alongside the mean, each pass records every
	// individual frame time and reports the p95 — tail latency is what an
	// interactive user feels, and a cache that helps the mean but not the
	// tail would hide behind an average.
	timeScript := func(v *viewer.Viewer, img *raster.Image) (mean, p95 int64, err error) {
		var iterErr error
		var frameNS []int64
		var r testing.BenchmarkResult
		timedSection(func() {
			r = testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				frameNS = frameNS[:0]
				for i := 0; i < b.N; i++ {
					for _, f := range script {
						fs := time.Now()
						if err := playFrame(v, img, f); err != nil {
							iterErr = err
							b.FailNow()
						}
						frameNS = append(frameNS, time.Since(fs).Nanoseconds())
					}
				}
			})
		})
		if iterErr != nil {
			return 0, 0, iterErr
		}
		sort.Slice(frameNS, func(i, j int) bool { return frameNS[i] < frameNS[j] })
		p95 = frameNS[(len(frameNS)-1)*95/100]
		return r.NsPerOp() / int64(len(script)), p95, nil
	}
	cachedNs, cachedP95, err := timeScript(cv, cImg)
	if err != nil {
		return fmt.Errorf("render: cached bench: %w", err)
	}
	uncachedNs, uncachedP95, err := timeScript(uv, uImg)
	if err != nil {
		return fmt.Errorf("render: uncached bench: %w", err)
	}

	// Counter passes: one instrumented run of the script per
	// configuration, divided down to per-frame averages.
	perFrame := func(v *viewer.Viewer, img *raster.Image) (map[string]int64, error) {
		obs.Reset()
		prevObs := obs.Enabled()
		obs.SetEnabled(true)
		defer obs.SetEnabled(prevObs)
		before := obs.TakeSnapshot()
		for _, f := range script {
			if err := playFrame(v, img, f); err != nil {
				return nil, err
			}
		}
		delta := obs.CounterDelta(before, obs.TakeSnapshot())
		for k, n := range delta {
			delta[k] = n / int64(len(script))
		}
		return delta, nil
	}
	cachedCounters, err := perFrame(cv, cImg)
	if err != nil {
		return fmt.Errorf("render: cached counters: %w", err)
	}
	uncachedCounters, err := perFrame(uv, uImg)
	if err != nil {
		return fmt.Errorf("render: uncached counters: %w", err)
	}
	obs.Reset()

	report := renderBenchReport{
		GeneratedBy:        "tioga-bench",
		Meta:               collectMeta(),
		Workload:           "stations_pan_zoom",
		Rows:               rows,
		Frames:             len(script),
		Width:              cv.W,
		Height:             cv.H,
		CachedNsPerFrame:   cachedNs,
		UncachedNsPerFrame: uncachedNs,
		CachedP95NS:        cachedP95,
		UncachedP95NS:      uncachedP95,
		Speedup:            float64(uncachedNs) / float64(cachedNs),
		OutputsIdentical:   identical,
		CachedPerFrame:     cachedCounters,
		UncachedPerFrame:   uncachedCounters,
		CachedCacheStats:   cv.CacheStats().String(),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	if verbose {
		fmt.Printf("%-24s %12d ns/frame (cached)\n", "render_pan_zoom", cachedNs)
		fmt.Printf("%-24s %12d ns/frame (uncached)\n", "", uncachedNs)
	}
	fmt.Printf("wrote %s (speedup %.2fx, outputs identical: %v)\n", out, report.Speedup, identical)
	if !identical {
		return fmt.Errorf("render: cached and uncached frames differ")
	}
	return nil
}

// queryBenchReport is the compiled-vs-interpreted query pipeline
// comparison written to BENCH_query.json: a restrict→project→restrict
// dataflow chain plus a hash join with an arithmetic residual predicate,
// timed with the full fast path (chunk kernels, parallel scans) against
// the ablated baseline (tree-walking interpreter, serial scans), with the
// output-identity check the speedup is only meaningful with. Both legs
// fire every box of the chain; each box's output views its input's
// chunks. The "compiled" keys name the fast path.
type queryBenchReport struct {
	GeneratedBy        string           `json:"generated_by"`
	Meta               runMeta          `json:"meta"`
	Workload           string           `json:"workload"`
	Rows               int              `json:"rows"`
	ObservationRows    int              `json:"observation_rows"`
	NumCPU             int              `json:"num_cpu"`
	ScanWorkers        int              `json:"scan_workers"`
	InterpretedNsPerOp int64            `json:"interpreted_ns_per_op"`
	CompiledNsPerOp    int64            `json:"compiled_ns_per_op"`
	Speedup            float64          `json:"speedup"`
	OutputsIdentical   bool             `json:"outputs_identical"`
	CompiledCounters   map[string]int64 `json:"compiled_counters,omitempty"`

	// StationsLive is the streaming-workload section (live.go): delta
	// propagation against full refiring on a live Observations feed.
	StationsLive *stationsLiveReport `json:"stations_live"`
}

// buildQueryPipeline gives Stations the computed attributes dist2 (a
// squared distance from a reference point) and score (derived from
// dist2), then wires table → restrict → project → restrict — a chain of
// views over one table's chunks — with predicates that reference the computed
// attributes repeatedly. This is the workload the fast path is built
// for: the interpreter re-walks a computed definition at every
// reference, the kernels evaluate each once per chunk.
func buildQueryPipeline(env *core.Environment) (int, error) {
	err := env.DB.AlterTable("Stations", func(st *rel.Relation) error {
		if err := st.AddComputed("dist2", expr.MustParse(
			"(longitude + 92.0) * (longitude + 92.0) + (latitude - 31.0) * (latitude - 31.0)")); err != nil {
			return err
		}
		return st.AddComputed("score", expr.MustParse(
			"dist2 * 0.5 + altitude / 100.0"))
	})
	if err != nil {
		return 0, err
	}
	tb, err := env.AddBox("table", map[string]string{"name": "Stations"})
	if err != nil {
		return 0, err
	}
	r1, err := env.AddBox("restrict", map[string]string{
		"pred": "score > 2.0 and dist2 < 4000.0 and score + dist2 * 0.25 < 9000.0 and dist2 * 0.125 - score / 2.0 < 4500.0",
	})
	if err != nil {
		return 0, err
	}
	pb, err := env.AddBox("project", map[string]string{"attrs": "id,name,longitude,latitude,altitude"})
	if err != nil {
		return 0, err
	}
	r2, err := env.AddBox("restrict", map[string]string{
		"pred": "(dist2 * 0.5 + score < 6000.0 or score / 4.0 > 1.0) and score - dist2 / 16.0 < 8000.0",
	})
	if err != nil {
		return 0, err
	}
	chain := []int{tb.ID, r1.ID, pb.ID, r2.ID}
	for i := 0; i+1 < len(chain); i++ {
		if err := env.Connect(chain[i], 0, chain[i+1], 0); err != nil {
			return 0, err
		}
	}
	return r2.ID, nil
}

// runQueryBench times the restrict_join_pipeline workload in both engine
// configurations and writes the comparison report.
func runQueryBench(out string, quick, verbose bool) error {
	rows, perStation := 60000, 2
	if quick {
		rows, perStation = 8000, 1
	}
	env, err := core.NewSeededEnvironment(rows, perStation, 42)
	if err != nil {
		return fmt.Errorf("query: seed: %w", err)
	}
	tail, err := buildQueryPipeline(env)
	if err != nil {
		return fmt.Errorf("query: build: %w", err)
	}
	st := workload.Stations(rows, 42)
	obsRel, err := workload.Observations(st, perStation, 43)
	if err != nil {
		return fmt.Errorf("query: observations: %w", err)
	}
	// The join residual leans on computed attributes too: degf and
	// elev_adj are re-derived at every reference by the interpreter,
	// once per block of candidate pairs by the kernels.
	if err := st.AddComputed("elev_adj", expr.MustParse("altitude / 1000.0 + latitude * 0.1")); err != nil {
		return fmt.Errorf("query: computed: %w", err)
	}
	if err := obsRel.AddComputed("degf", expr.MustParse("temperature * 1.8 + 32.0")); err != nil {
		return fmt.Errorf("query: computed: %w", err)
	}
	joinPred := expr.MustParse("id = station_id and degf > 60.0 and degf < 110.0 and precipitation * 25.4 < elev_adj * 100.0 + degf - 30.0 and degf * 0.5 + elev_adj * 2.0 < 300.0")

	ctx := context.Background()
	iterate := func(opts ...dataflow.EvalOption) (dataflow.Value, *rel.Relation, error) {
		env.Eval.InvalidateAll()
		res, err := env.Eval.Eval(ctx, dataflow.Request{Box: tail, Port: 0}, opts...)
		if err != nil {
			return nil, nil, err
		}
		j, err := rel.Join(st, obsRel, joinPred, rel.JoinHash)
		if err != nil {
			return nil, nil, err
		}
		return res.Value, j, nil
	}

	// The two engine configurations. Baseline ablates every fast-path
	// layer: interpreter instead of chunk kernels, one scan worker
	// instead of chunking.
	workers := runtime.GOMAXPROCS(0)
	baseline := func() (dataflow.Value, *rel.Relation, error) {
		prevC := rel.SetCompileDisabled(true)
		prevW := rel.SetScanWorkers(1)
		defer func() {
			rel.SetCompileDisabled(prevC)
			rel.SetScanWorkers(prevW)
		}()
		return iterate(dataflow.WithWorkers(1))
	}
	fast := func() (dataflow.Value, *rel.Relation, error) {
		// One eval worker fires the chain's boxes in order; each box's
		// scan keeps the package's scan-worker setting.
		return iterate(dataflow.WithWorkers(1))
	}

	// Output identity first (fingerprinting happens here, outside the
	// timed loop): the speedup claim is vacuous if the engines disagree.
	stamp := func(v dataflow.Value, j *rel.Relation) (string, error) {
		fp, err := fingerprint(v)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		sb.WriteString(fp)
		fmt.Fprintf(&sb, "|join %d\n", j.Len())
		for i := 0; i < j.Len(); i++ {
			fmt.Fprintf(&sb, "%v\n", j.Tuple(i))
		}
		return sb.String(), nil
	}
	bv, bj, err := baseline()
	if err != nil {
		return fmt.Errorf("query: interpreted eval: %w", err)
	}
	baseFP, err := stamp(bv, bj)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	fv, fj, err := fast()
	if err != nil {
		return fmt.Errorf("query: compiled eval: %w", err)
	}
	fastFP, err := stamp(fv, fj)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	identical := baseFP == fastFP

	// Counter pass: the compiled configuration's per-iteration profile.
	obs.Reset()
	prevObs := obs.Enabled()
	obs.SetEnabled(true)
	before := obs.TakeSnapshot()
	if _, _, err := fast(); err != nil {
		obs.SetEnabled(prevObs)
		return fmt.Errorf("query: instrumented run: %w", err)
	}
	compiledCounters := obs.CounterDelta(before, obs.TakeSnapshot())
	obs.SetEnabled(prevObs)
	obs.Reset()

	// Best of three: each leg is measured as the median of three
	// independently calibrated testing.Benchmark passes, so a scheduler
	// or GC hiccup in one pass cannot swing the committed speedup.
	time_ := func(fn func() (dataflow.Value, *rel.Relation, error)) (int64, error) {
		var iterErr error
		samples := make([]int64, 0, 3)
		for rep := 0; rep < 3 && iterErr == nil; rep++ {
			var r testing.BenchmarkResult
			timedSection(func() {
				r = testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := fn(); err != nil {
							iterErr = err
							b.FailNow()
						}
					}
				})
			})
			samples = append(samples, r.NsPerOp())
		}
		if iterErr != nil {
			return 0, iterErr
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return samples[1], nil
	}
	interpNs, err := time_(baseline)
	if err != nil {
		return fmt.Errorf("query: interpreted bench: %w", err)
	}
	fastNs, err := time_(fast)
	if err != nil {
		return fmt.Errorf("query: compiled bench: %w", err)
	}

	live, err := runStationsLive(quick, verbose)
	if err != nil {
		return fmt.Errorf("query: stations_live: %w", err)
	}

	report := queryBenchReport{
		GeneratedBy:        "tioga-bench",
		Meta:               collectMeta(),
		Workload:           "restrict_join_pipeline",
		Rows:               rows,
		ObservationRows:    obsRel.Len(),
		NumCPU:             runtime.NumCPU(),
		ScanWorkers:        workers,
		InterpretedNsPerOp: interpNs,
		CompiledNsPerOp:    fastNs,
		Speedup:            float64(interpNs) / float64(fastNs),
		OutputsIdentical:   identical,
		CompiledCounters:   compiledCounters,
		StationsLive:       live,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	if verbose {
		fmt.Printf("%-24s %12d ns/op (interpreted)\n", "query_pipeline", interpNs)
		fmt.Printf("%-24s %12d ns/op (kernels)\n", "", fastNs)
	}
	fmt.Printf("wrote %s (speedup %.2fx, outputs identical: %v; stations_live %.1fx, outputs identical: %v)\n",
		out, report.Speedup, identical, live.Speedup, live.OutputsIdentical)
	if !identical {
		return fmt.Errorf("query: interpreted and compiled outputs differ")
	}
	if !live.OutputsIdentical {
		return fmt.Errorf("query: stations_live incremental and full outputs differ")
	}
	return nil
}

// setupJoinHash joins stations to observations on the station key using
// the hash strategy (the Join box's fast path).
func setupJoinHash() (func() error, error) {
	st := workload.Stations(1000, 1)
	obsRel, err := workload.Observations(st, 12, 2)
	if err != nil {
		return nil, err
	}
	pred := expr.MustParse("id = station_id")
	return func() error {
		_, err := rel.Join(st, obsRel, pred, rel.JoinHash)
		return err
	}, nil
}
