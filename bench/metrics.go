package main

import (
	"runtime/metrics"
	"time"

	"repro/internal/obs"
)

// metricSpec describes one reported metric. For a per-layer metric,
// moves names the end-to-end metric a change in this layer should move
// and on the workloads where it should show; an optimisation claim is
// checked against that prediction.
type metricSpec struct {
	name, unit, better string
	moves              string
	on                 []string
}

var allWorkloads = []string{"browse", "live", "edit", "edit_spill"}

// endToEnd lists what a user of the system waits on, reported by every
// untraced run of every workload. frame_latency is a view op's round
// trip on browse and live and SetParams-to-frame on edit and edit_spill.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "frames_per_s", unit: "1/s", better: "higher"},
	{name: "frame_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "frame_latency_p95_ms", unit: "ms", better: "lower"},
	{name: "heap_live_mb", unit: "MB", better: "lower"},
}

var (
	viaServer = []string{"browse", "live"}
	edits     = []string{"edit", "edit_spill"}
	live      = []string{"live"}
	spill     = []string{"edit_spill"}
)

// perLayer lists the traced run's metrics. Every traced run prints all of
// them; a layer idle on a workload reads 0 there. Freshness is here
// rather than in endToEnd only because an end-to-end metric must mean
// something on every workload, and only live has writes.
var perLayer = []metricSpec{
	{"loadgen.writer_lag_p95_ms", "ms", "lower", "frame_latency_p95_ms", live},
	{"server.freshness_p50_ms", "ms", "lower", "frame_latency_p50_ms", live},
	{"server.freshness_p95_ms", "ms", "lower", "frame_latency_p95_ms", live},
	{"server.rtt_minus_render_p50_ms", "ms", "lower", "frame_latency_p50_ms", viaServer},
	{"server.rtt_minus_render_p95_ms", "ms", "lower", "frame_latency_p95_ms", viaServer},
	{"server.pushed_per_requested", "ratio", "lower", "frames_per_s", live},
	{"server.broadcasts_per_write", "ratio", "lower", "frame_latency_p50_ms", live},
	{"server.png_kb_per_frame", "KB", "lower", "frame_latency_p50_ms", viaServer},
	{"viewer.render_p50_ms", "ms", "lower", "frame_latency_p50_ms", allWorkloads},
	{"viewer.render_p95_ms", "ms", "lower", "frame_latency_p95_ms", allWorkloads},
	{"viewer.tuples_seen_per_frame", "count", "lower", "frame_latency_p50_ms", allWorkloads},
	{"viewer.cull_ratio", "ratio", "higher", "frame_latency_p50_ms", allWorkloads},
	{"viewer.memo_hit_ratio", "ratio", "higher", "frame_latency_p50_ms", allWorkloads},
	{"viewer.display_eval_ms_per_frame", "ms", "lower", "frame_latency_p50_ms", allWorkloads},
	{"viewer.drawables_per_frame", "count", "lower", "frame_latency_p50_ms", allWorkloads},
	{"viewer.spatial_builds_per_frame", "count", "lower", "frame_latency_p50_ms", allWorkloads},
	{"viewer.self_ms_per_op", "ms", "lower", "frame_latency_p50_ms", edits},
	{"raster.png_encode_p50_ms", "ms", "lower", "frame_latency_p50_ms", viaServer},
	{"dataflow.eval_p50_ms", "ms", "lower", "frame_latency_p50_ms", edits},
	{"dataflow.eval_p95_ms", "ms", "lower", "frame_latency_p95_ms", edits},
	{"dataflow.fires_per_op", "count", "lower", "frame_latency_p50_ms", edits},
	{"dataflow.memo_hit_ratio", "ratio", "higher", "frame_latency_p50_ms", allWorkloads},
	{"dataflow.demand_ms_per_frame", "ms", "lower", "frame_latency_p50_ms", allWorkloads},
	{"dataflow.delta_applied_per_write", "ratio", "higher", "frame_latency_p50_ms", live},
	{"dataflow.delta_fallbacks_per_write", "ratio", "lower", "frame_latency_p50_ms", live},
	{"dataflow.delta_ops_per_write", "count", "lower", "frame_latency_p50_ms", live},
	{"dataflow.self_ms_per_op", "ms", "lower", "frame_latency_p50_ms", edits},
	{"rel.rows_scanned_per_op", "count", "lower", "frame_latency_p50_ms", edits},
	{"rel.rows_scanned_per_row_out", "ratio", "lower", "frame_latency_p50_ms", edits},
	{"rel.join_rows_out_per_op", "count", "lower", "frame_latency_p50_ms", edits},
	{"rel.kernel_scans_per_op", "count", "lower", "frame_latency_p50_ms", edits},
	{"rel.kernel_fallback_rows_per_op", "count", "lower", "frame_latency_p50_ms", edits},
	{"rel.chunk_loads_per_op", "count", "lower", "frame_latency_p50_ms", spill},
	{"rel.chunk_evictions_per_op", "count", "lower", "frame_latency_p50_ms", spill},
	{"rel.chunk_peak_mb", "MB", "lower", "heap_live_mb", spill},
	{"db.update_p50_us", "us", "lower", "frame_latency_p50_ms", live},
	{"db.update_p95_us", "us", "lower", "frame_latency_p95_ms", live},
	{"db.events_coalesced_per_write", "ratio", "lower", "frame_latency_p50_ms", live},
	{"db.seed_s", "s", "lower", "setup_s", allWorkloads},
	{"db.save_backend_s", "s", "lower", "setup_s", spill},
	{"db.load_backend_s", "s", "lower", "setup_s", spill},
	{"db.self_ms_per_op", "ms", "lower", "frame_latency_p50_ms", live},
	{"core.set_params_p50_us", "us", "lower", "frame_latency_p50_ms", edits},
	{"core.self_ms_per_op", "ms", "lower", "frame_latency_p50_ms", edits},
	{"bench.self_ms_per_op", "ms", "lower", "frame_latency_p50_ms", edits},
	{"runtime.alloc_mb_per_op", "MB", "lower", "frame_latency_p95_ms", allWorkloads},
	{"runtime.gc_cycles_per_op", "count", "lower", "frame_latency_p95_ms", allWorkloads},
	{"runtime.gc_cpu_fraction", "ratio", "lower", "frames_per_s", allWorkloads},
	{"trace.overhead_pct", "%", "lower", "frames_per_s", allWorkloads},
}

// phase holds what one measured window recorded. Latencies are in
// milliseconds unless the field says otherwise.
type phase struct {
	start   time.Time
	elapsed time.Duration

	ops               int // completed timed ops: requested frames or edits
	attempted, failed int

	latency        []float64 // op to its frame
	render         []float64 // server render_ns, or the RenderInto call
	rttMinusRender []float64
	pushed         int // frames read that did not answer the op in flight
	framesRead     int
	frameBytes     int64

	writes    int
	writerLag []float64
	updateUS  []float64
	freshness []float64

	eval        []float64
	setParamsUS []float64
	chunkPeak   int64

	counters map[string]int64
	histSum  map[string]int64 // histogram sums (ns) over the window
	runtime  runtimeDelta
	self     map[string]time.Duration
}

func (p *phase) fps() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.ops) / p.elapsed.Seconds()
}

// merge folds a load goroutine's tallies into p.
func (p *phase) merge(q *phase) {
	p.ops += q.ops
	p.attempted += q.attempted
	p.failed += q.failed
	p.latency = append(p.latency, q.latency...)
	p.render = append(p.render, q.render...)
	p.rttMinusRender = append(p.rttMinusRender, q.rttMinusRender...)
	p.pushed += q.pushed
	p.framesRead += q.framesRead
	p.frameBytes += q.frameBytes
	p.writes += q.writes
	p.writerLag = append(p.writerLag, q.writerLag...)
	p.updateUS = append(p.updateUS, q.updateUS...)
	p.freshness = append(p.freshness, q.freshness...)
}

// runtimeSample reads the runtime's own accounting; it is taken at the
// window edges only.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

type runtimeDelta struct {
	allocMB, gcCycles, gcCPUFraction float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	d := runtimeDelta{
		allocMB:  float64(b.allocBytes-a.allocBytes) / (1 << 20),
		gcCycles: float64(b.gcCycles - a.gcCycles),
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFraction = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// obsWindow captures obs counters and histogram sums at a window's
// start so the end can report the window's share.
type obsWindow struct{ before obs.Snapshot }

func startObsWindow() obsWindow { return obsWindow{before: obs.TakeSnapshot()} }

func (w obsWindow) finish(p *phase) {
	after := obs.TakeSnapshot()
	p.counters = obs.CounterDelta(w.before, after)
	p.histSum = make(map[string]int64)
	for name, h := range after.Histograms {
		p.histSum[name] = h.SumNS - w.before.Histograms[name].SumNS
	}
}

// runInfo is what a whole run recorded outside its measured windows.
type runInfo struct {
	setupS, seedS, saveS, loadS []float64
	pngEncode                   []float64
	heapLiveMB                  float64 // after the last set-up
	warmup                      *phase
	timed                       *phase // the measured window, traced in a traced run
	reference                   *phase // untraced half of a traced run
}

// endToEndValues reports the untraced run's metrics.
func endToEndValues(r *runInfo) map[string]float64 {
	p := r.timed
	lat := summarize(p.latency)
	return map[string]float64{
		"setup_s":              median(r.setupS),
		"frames_per_s":         p.fps(),
		"frame_latency_p50_ms": lat.P50,
		"frame_latency_p95_ms": lat.P95,
		"heap_live_mb":         r.heapLiveMB,
	}
}

// perLayerValues reports the traced window's metrics.
func perLayerValues(r *runInfo) map[string]float64 {
	p := r.timed
	c := p.counters
	per := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	ops, writes, frames := int64(p.ops), int64(p.writes), c[obs.RenderFrames]
	lag := summarize(p.writerLag)
	fresh := summarize(p.freshness)
	rmr := summarize(p.rttMinusRender)
	rnd := summarize(p.render)
	ev := summarize(p.eval)
	upd := summarize(p.updateUS)
	selfMS := func(layer string) float64 {
		return per(p.self[layer].Nanoseconds(), ops) / 1e6
	}
	v := map[string]float64{
		"loadgen.writer_lag_p95_ms":      lag.P95,
		"server.freshness_p50_ms":        fresh.P50,
		"server.freshness_p95_ms":        fresh.P95,
		"server.rtt_minus_render_p50_ms": rmr.P50,
		"server.rtt_minus_render_p95_ms": rmr.P95,
		"server.pushed_per_requested":    per(int64(p.pushed), ops),
		"server.broadcasts_per_write":    per(c[obs.ServerBroadcasts], writes),
		"server.png_kb_per_frame":        per(p.frameBytes, int64(p.framesRead)) / 1024,

		"viewer.render_p50_ms":             rnd.P50,
		"viewer.render_p95_ms":             rnd.P95,
		"viewer.tuples_seen_per_frame":     per(c[obs.RenderTuplesSeen], frames),
		"viewer.cull_ratio":                per(c[obs.RenderTuplesCulled], c[obs.RenderTuplesSeen]),
		"viewer.memo_hit_ratio":            per(c[obs.RenderMemoHits], c[obs.RenderMemoHits]+c[obs.RenderMemoMisses]),
		"viewer.display_eval_ms_per_frame": per(p.histSum[obs.RenderDisplayEvalNS], frames) / 1e6,
		"viewer.drawables_per_frame":       per(c[obs.RenderDrawablesDrawn], frames),
		"viewer.spatial_builds_per_frame":  per(c[obs.RenderSpatialBuilds], frames),
		"viewer.self_ms_per_op":            selfMS("viewer"),

		"raster.png_encode_p50_ms": summarize(r.pngEncode).P50,

		"dataflow.eval_p50_ms":               ev.P50,
		"dataflow.eval_p95_ms":               ev.P95,
		"dataflow.fires_per_op":              per(c[obs.EvalFires], ops),
		"dataflow.memo_hit_ratio":            per(c[obs.EvalCacheHits], c[obs.EvalCacheHits]+c[obs.EvalCacheMiss]),
		"dataflow.demand_ms_per_frame":       per(p.histSum[obs.EvalDemandNS], frames) / 1e6,
		"dataflow.delta_applied_per_write":   per(c[obs.EvalDeltaApplied], writes),
		"dataflow.delta_fallbacks_per_write": per(c[obs.EvalDeltaFallbacks], writes),
		"dataflow.delta_ops_per_write":       per(c[obs.EvalDeltaOps], writes),
		"dataflow.self_ms_per_op":            selfMS("dataflow"),

		"rel.rows_scanned_per_op":         per(c[obs.RelRestrictRowsIn], ops),
		"rel.rows_scanned_per_row_out":    per(c[obs.RelRestrictRowsIn], c[obs.RelRestrictRowsOut]),
		"rel.join_rows_out_per_op":        per(c[obs.RelJoinRowsOut], ops),
		"rel.kernel_scans_per_op":         per(c[obs.RelKernelScans], ops),
		"rel.kernel_fallback_rows_per_op": per(c[obs.RelKernelFallback], ops),
		"rel.chunk_loads_per_op":          per(c[obs.RelChunkLoads], ops),
		"rel.chunk_evictions_per_op":      per(c[obs.RelChunkEvictions], ops),
		"rel.chunk_peak_mb":               float64(p.chunkPeak) / (1 << 20),

		"db.update_p50_us":              upd.P50,
		"db.update_p95_us":              upd.P95,
		"db.events_coalesced_per_write": per(c[obs.DBEventsCoalesced], writes),
		"db.seed_s":                     median(r.seedS),
		"db.save_backend_s":             median(r.saveS),
		"db.load_backend_s":             median(r.loadS),
		"db.self_ms_per_op":             selfMS("db"),

		"core.set_params_p50_us": summarize(p.setParamsUS).P50,
		"core.self_ms_per_op":    selfMS("core"),
		"bench.self_ms_per_op":   selfMS("bench"),

		"runtime.alloc_mb_per_op":  p.runtime.allocMB / float64(max(p.ops, 1)),
		"runtime.gc_cycles_per_op": p.runtime.gcCycles / float64(max(p.ops, 1)),
		"runtime.gc_cpu_fraction":  p.runtime.gcCPUFraction,
		"trace.overhead_pct":       0,
	}
	if ref := r.reference.fps(); ref > 0 {
		v["trace.overhead_pct"] = (ref - p.fps()) / ref * 100
	}
	return v
}
