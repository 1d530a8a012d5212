package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/types"
	"repro/internal/workload"
)

// columnarBenchReport is the columnar-kernel-vs-row-major comparison
// written to BENCH_columnar.json: the same restrict→join pipeline over
// the Stations relation, timed with monomorphic chunk kernels against
// the interpreter evaluating one row at a time (the "row-major" leg,
// rel.SetCompileDisabled: the kernels' fallback and oracle), so Speedup
// is kernels against the interpreter, plus a bounded-memory pass where
// the dataset lives in an append-only segment several times larger
// than the chunk-cache quota.
type columnarBenchReport struct {
	GeneratedBy      string              `json:"generated_by"`
	Meta             runMeta             `json:"meta"`
	Workload         string              `json:"workload"`
	Rows             int                 `json:"rows"`
	ChunkRows        int                 `json:"chunk_rows"`
	NumCPU           int                 `json:"num_cpu"`
	RowMajorNsPerOp  int64               `json:"row_major_ns_per_op"`
	ColumnarNsPerOp  int64               `json:"columnar_ns_per_op"`
	Speedup          float64             `json:"speedup"`
	OutputsIdentical bool                `json:"outputs_identical"`
	ColumnarCounters map[string]int64    `json:"columnar_counters,omitempty"`
	BoundedMemory    boundedMemoryReport `json:"bounded_memory"`
}

// boundedMemoryReport is the segment-backed pass: the pipeline runs with
// a chunk-cache quota a fraction of the dataset size, and the cache's
// own accounting proves residency never exceeded it.
type boundedMemoryReport struct {
	QuotaBytes        int64 `json:"quota_bytes"`
	SegmentChunkBytes int64 `json:"segment_chunk_bytes"`
	PeakResidentBytes int64 `json:"peak_resident_bytes"`
	Loads             int64 `json:"loads"`
	Evictions         int64 `json:"evictions"`
	QuotaWarnings     int64 `json:"quota_warnings"`
	OutputsIdentical  bool  `json:"outputs_identical"`
}

// columnarComputed installs the computed attributes the pipeline's
// predicates lean on. Both are kernel-compilable, so the columnar leg
// evaluates them per chunk while the row-major leg interprets their
// definitions at every reference.
func columnarComputed(r *rel.Relation) error {
	if err := r.AddComputed("dist2", expr.MustParse(
		"(longitude + 92.0) * (longitude + 92.0) + (latitude - 31.0) * (latitude - 31.0)")); err != nil {
		return err
	}
	return r.AddComputed("score", expr.MustParse(
		"dist2 * 0.5 + altitude / 100.0"))
}

// columnarDim builds the small build-side relation for the hash join:
// one row per distinct state in the stations data, with a float weight.
// The join key must be a stored column (equiKey does not see computed
// attributes), so the dimension keys on state.
func columnarDim(st *rel.Relation) *rel.Relation {
	stateCol := st.Schema().Index("state")
	seen := make(map[string]bool)
	var states []string
	for i := 0; i < st.Len(); i++ {
		s := st.Tuple(i)[stateCol].Text()
		if !seen[s] {
			seen[s] = true
			states = append(states, s)
		}
	}
	sort.Strings(states)
	d := rel.New("States", rel.MustSchema(
		rel.Column{Name: "st", Kind: types.Text},
		rel.Column{Name: "weight", Kind: types.Float},
	))
	for i, s := range states {
		d.MustAppend([]types.Value{
			types.NewText(s),
			types.NewFloat(float64(i%13) * 0.75),
		})
	}
	return d
}

// runColumnarBench times the columnar_scan workload: a restrict with an
// arithmetic-heavy predicate over computed attributes, feeding a hash
// join against a small dimension table. The ablation is
// SetCompileDisabled, so the row-major leg interprets every row of both
// the scan and the join's candidate pairs.
func runColumnarBench(out string, quick, verbose bool) error {
	rows := 100000
	if quick {
		rows = 12000
	}
	st := workload.Stations(rows, 42)
	if err := columnarComputed(st); err != nil {
		return fmt.Errorf("columnar: computed: %w", err)
	}
	dim := columnarDim(st)
	// Selective (roughly the Louisiana quarter of the data) and
	// arithmetic-heavy: the scan is the dominant cost, which is exactly
	// what the chunk kernels accelerate; the join runs over the small
	// survivor set in both legs.
	pred := expr.MustParse(
		"dist2 < 20.0 and score > 0.5 and score + dist2 * 0.25 < 9000.0 and " +
			"dist2 * 0.125 - score / 2.0 < 4500.0 and " +
			"(longitude + 92.0) * (latitude - 31.0) + altitude * 0.01 < 4000.0")
	joinPred := expr.MustParse("state = st and score + weight * 10.0 < 8000.0")

	pipeline := func(base *rel.Relation) (*rel.Relation, error) {
		res, err := rel.Restrict(base, pred)
		if err != nil {
			return nil, err
		}
		return rel.Join(res, dim, joinPred, rel.JoinHash)
	}
	stamp := func(j *rel.Relation) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "join %d\n", j.Len())
		for i := 0; i < j.Len(); i++ {
			fmt.Fprintf(&sb, "%v\n", j.Tuple(i))
		}
		return sb.String()
	}

	rowMajor := func(base *rel.Relation) (*rel.Relation, error) {
		prev := rel.SetCompileDisabled(true)
		defer rel.SetCompileDisabled(prev)
		return pipeline(base)
	}

	// Output identity before any timing: the speedup is vacuous if the
	// kernels disagree with the interpreter.
	rj, err := rowMajor(st)
	if err != nil {
		return fmt.Errorf("columnar: row-major eval: %w", err)
	}
	rowFP := stamp(rj)
	cj, err := pipeline(st)
	if err != nil {
		return fmt.Errorf("columnar: columnar eval: %w", err)
	}
	identical := stamp(cj) == rowFP

	// Counter pass: the columnar configuration's per-iteration profile
	// (kernel scans, fallback rows, chunk loads).
	obs.Reset()
	prevObs := obs.Enabled()
	obs.SetEnabled(true)
	before := obs.TakeSnapshot()
	if _, err := pipeline(st); err != nil {
		obs.SetEnabled(prevObs)
		return fmt.Errorf("columnar: instrumented run: %w", err)
	}
	counters := obs.CounterDelta(before, obs.TakeSnapshot())
	obs.SetEnabled(prevObs)
	obs.Reset()

	// Best of three, as in the query bench: median of three
	// independently calibrated passes per leg.
	time_ := func(fn func(*rel.Relation) (*rel.Relation, error)) (int64, error) {
		var iterErr error
		samples := make([]int64, 0, 3)
		for rep := 0; rep < 3 && iterErr == nil; rep++ {
			var r testing.BenchmarkResult
			timedSection(func() {
				r = testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := fn(st); err != nil {
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
	rowNs, err := time_(rowMajor)
	if err != nil {
		return fmt.Errorf("columnar: row-major bench: %w", err)
	}
	colNs, err := time_(pipeline)
	if err != nil {
		return fmt.Errorf("columnar: columnar bench: %w", err)
	}

	bounded, err := runBoundedMemoryPass(st, rowFP, pipeline, stamp)
	if err != nil {
		return fmt.Errorf("columnar: bounded memory: %w", err)
	}

	report := columnarBenchReport{
		GeneratedBy:      "tioga-bench",
		Meta:             collectMeta(),
		Workload:         "columnar_scan",
		Rows:             rows,
		ChunkRows:        rel.DefaultChunkRows,
		NumCPU:           runtime.NumCPU(),
		RowMajorNsPerOp:  rowNs,
		ColumnarNsPerOp:  colNs,
		Speedup:          float64(rowNs) / float64(colNs),
		OutputsIdentical: identical && bounded.OutputsIdentical,
		ColumnarCounters: counters,
		BoundedMemory:    bounded,
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
		fmt.Printf("%-24s %12d ns/op (row-major interpreted)\n", "columnar_scan", rowNs)
		fmt.Printf("%-24s %12d ns/op (columnar kernels)\n", "", colNs)
	}
	fmt.Printf("wrote %s (speedup %.2fx, outputs identical: %v; bounded peak %d/%d bytes, %d evictions)\n",
		out, report.Speedup, report.OutputsIdentical,
		bounded.PeakResidentBytes, bounded.QuotaBytes, bounded.Evictions)
	if !identical {
		return fmt.Errorf("columnar: row-major and columnar outputs differ")
	}
	if !bounded.OutputsIdentical {
		return fmt.Errorf("columnar: bounded-memory output differs from row-major output")
	}
	if bounded.PeakResidentBytes > bounded.QuotaBytes {
		return fmt.Errorf("columnar: resident peak %d exceeded quota %d",
			bounded.PeakResidentBytes, bounded.QuotaBytes)
	}
	if !quick && report.Speedup < 2.0 {
		return fmt.Errorf("columnar: speedup %.2fx below the 2x acceptance floor", report.Speedup)
	}
	return nil
}

// runBoundedMemoryPass writes the stations to an append-only in-memory
// segment, reopens it chunk-backed, and runs the pipeline under a
// chunk-cache quota a quarter of the segment (floored so it still clears
// the largest single chunk — the cache must keep the chunk being read
// resident). The cache's own accounting is the evidence: peak resident
// bytes must stay within quota while the scan faults and evicts.
func runBoundedMemoryPass(st *rel.Relation, rowFP string,
	pipeline func(*rel.Relation) (*rel.Relation, error),
	stamp func(*rel.Relation) string) (boundedMemoryReport, error) {

	var rep boundedMemoryReport
	b := rel.NewMemBackend()
	if err := b.WriteSegment("stations", st); err != nil {
		return rep, err
	}
	cs, err := b.OpenSegment("stations", st.Schema())
	if err != nil {
		return rep, err
	}
	var total, maxChunk int64
	for ci := 0; ci < cs.NumChunks(); ci++ {
		c, err := cs.ReadChunk(ci)
		if err != nil {
			return rep, err
		}
		total += c.Bytes()
		if c.Bytes() > maxChunk {
			maxChunk = c.Bytes()
		}
	}
	cb, err := rel.FromChunkSource("Stations", st.Schema(), cs)
	if err != nil {
		return rep, err
	}
	if err := columnarComputed(cb); err != nil {
		return rep, err
	}

	quota := total / 4
	if floor := maxChunk * 3 / 2; quota < floor {
		quota = floor // quick mode: few chunks, but the bound must still clear one
	}
	prev := rel.MemoryQuota()
	rel.DropResidentChunks()
	rel.SetMemoryQuota(quota)
	rel.ResetChunkCacheStats()
	defer func() {
		rel.SetMemoryQuota(prev)
		rel.DropResidentChunks()
		rel.ResetChunkCacheStats()
	}()

	// Two passes so the second faults chunks the first's tail evicted —
	// steady-state churn, not a single cold sweep.
	var fp string
	for pass := 0; pass < 2; pass++ {
		j, err := pipeline(cb)
		if err != nil {
			return rep, err
		}
		fp = stamp(j)
	}
	stats := rel.ChunkCacheStats()
	rep = boundedMemoryReport{
		QuotaBytes:        quota,
		SegmentChunkBytes: total,
		PeakResidentBytes: stats.Peak,
		Loads:             stats.Loads,
		Evictions:         stats.Evictions,
		QuotaWarnings:     stats.QuotaWarnings,
		OutputsIdentical:  fp == rowFP,
	}
	return rep, nil
}
