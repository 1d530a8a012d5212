package rel

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// Restrict runs one scan and Project none: both return views of their
// input's chunks. These tests pin what the operators must preserve:
// outputs with provenance, the per-call obs counters, the absence of
// rel.* spans, and error identity — with kernels on and under the
// SetCompileDisabled oracle, over resident and chunk-backed inputs
// spanning several chunks.

// scanCounters are the obs counters a Restrict or Project call may move.
var scanCounters = []string{
	obs.RelRestrictScans, obs.RelRestrictRowsIn,
	obs.RelRestrictRowsOut, obs.RelKernelScans,
}

func counterValues() map[string]int64 {
	out := make(map[string]int64, len(scanCounters))
	for _, name := range scanCounters {
		out[name] = obs.CounterValue(name)
	}
	return out
}

// singleStep runs op through the standalone operator.
func singleStep(r *Relation, op FusedOp) (*Relation, error) {
	if op.Pred != nil {
		return Restrict(r, op.Pred)
	}
	return Project(r, op.Project)
}

// instrumented turns on obs counters and span recording, with one scan
// worker, for the duration of the test.
func instrumented(t *testing.T) {
	t.Helper()
	prevObs := obs.Enabled()
	obs.SetEnabled(true)
	prevFlight := obs.SetFlightEnabled(true)
	prevW := SetScanWorkers(1)
	t.Cleanup(func() {
		obs.SetEnabled(prevObs)
		obs.SetFlightEnabled(prevFlight)
		obs.ResetFlight()
		SetScanWorkers(prevW)
	})
}

func TestSingleStepScansMatchFusedScan(t *testing.T) {
	instrumented(t)
	row := bigRelation(t, 2*DefaultScanThreshold+77)
	chunked := asChunkBacked(t, row, 1024)

	cases := []struct {
		name   string
		op     FusedOp
		scans  int64 // rel.restrict.scans
		kernel int64 // rel.kernel_scans with kernels on
	}{
		{"kernel", FusedOp{Pred: expr.MustParse("grp < 4 and val > -10.0")}, 1, 1},
		{"rejected", FusedOp{Pred: expr.MustParse("len(tag) > 1")}, 1, 0},
		{"range", FusedOp{Pred: expr.MustParse("id < 3000")}, 1, 1},
		{"project", FusedOp{Project: []string{"val", "id", "tag"}}, 0, 0},
	}
	for _, r := range []*Relation{row, chunked} {
		for _, tc := range cases {
			for _, oracle := range []bool{false, true} {
				name := tc.name + "/" + r.Name()
				if oracle {
					name += "/oracle"
				}
				prev := SetCompileDisabled(oracle)
				before := counterValues()
				obs.ResetFlight()
				got, err := singleStep(r, tc.op)
				spans := obs.DumpFlight()
				after := counterValues()
				SetCompileDisabled(prev)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if chainFingerprint(got) != refChain(t, r, []FusedOp{tc.op}) {
					t.Errorf("%s: output differs from the row-by-row reference", name)
				}
				for _, e := range spans {
					if strings.HasPrefix(e.Name, "rel.") {
						t.Errorf("%s: recorded span %s", name, e.Name)
					}
				}

				wantDelta := map[string]int64{
					obs.RelRestrictScans: tc.scans,
					obs.RelKernelScans:   tc.kernel,
				}
				if tc.op.Pred != nil {
					wantDelta[obs.RelRestrictRowsIn] = int64(r.Len())
					wantDelta[obs.RelRestrictRowsOut] = int64(got.Len())
				}
				if oracle {
					wantDelta[obs.RelKernelScans] = 0
				}
				for _, c := range scanCounters {
					if d := after[c] - before[c]; d != wantDelta[c] {
						t.Errorf("%s: %s moved by %d, want %d", name, c, d, wantDelta[c])
					}
				}
			}
		}
	}
}

// corruptRelation writes src to a segment, flips one byte inside chunk
// 0's payload (the TestBackendDetectsCorruption recipe), and reopens it
// as a chunk-backed relation whose first chunk fails its checksum.
func corruptRelation(t *testing.T, src *Relation) *Relation {
	t.Helper()
	b := NewMemBackend()
	if err := b.WriteSegment("tbl", src); err != nil {
		t.Fatal(err)
	}
	b.segs["tbl"][30] ^= 0xff
	cs, err := b.OpenSegment("tbl", src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	r, err := FromChunkSource("bad", src.Schema(), cs)
	if err != nil {
		t.Fatal(err)
	}
	r.computed = append([]Computed(nil), src.computed...)
	return r
}

func TestSingleStepScanErrorsUnchanged(t *testing.T) {
	instrumented(t)
	src := kernelRelation(t, 2*DefaultChunkRows+50)
	chunked := asChunkBacked(t, src, 1024)
	bad := corruptRelation(t, src)
	badView, err := Limit(bad, 10)
	if err != nil {
		t.Fatal(err)
	}
	const readErr = "rel: loading chunk 0: rel: bad segment format: segment tbl: chunk 0 checksum mismatch"
	cases := []struct {
		name string
		r    *Relation
		op   FusedOp
		msg  string
		read bool // a chunk read error rather than a predicate error
	}{
		{"kernel", src, FusedOp{Pred: expr.MustParse("a / b > 0")}, "rel: restrict: expr: evaluating (a / b): division by zero", false},
		{"kernel-chunked", chunked, FusedOp{Pred: expr.MustParse("a / b > 0")}, "rel: restrict: expr: evaluating (a / b): division by zero", false},
		{"rejected", src, FusedOp{Pred: expr.MustParse("len(tag) >= 0 and a % b = 0")}, "rel: restrict: expr: evaluating (a % b): modulo by zero", false},
		{"read-kernel", bad, FusedOp{Pred: expr.MustParse("a > 0")}, "rel: restrict: " + readErr, true},
		{"read-rejected", bad, FusedOp{Pred: expr.MustParse("len(tag) > 1")}, "rel: restrict: " + readErr, true},
		{"read-selection", badView, FusedOp{Pred: expr.MustParse("a > 0")}, "rel: restrict: " + readErr, true},
	}
	for _, tc := range cases {
		for _, oracle := range []bool{false, true} {
			prev := SetCompileDisabled(oracle)
			_, err := singleStep(tc.r, tc.op)
			SetCompileDisabled(prev)
			if err == nil {
				t.Fatalf("%s (oracle=%v): no error", tc.name, oracle)
			}
			if err.Error() != tc.msg {
				t.Errorf("%s (oracle=%v): error %q, want %q", tc.name, oracle, err, tc.msg)
			}
			var ee *expr.EvalError
			if got := errors.As(err, &ee); got == tc.read {
				t.Errorf("%s (oracle=%v): errors.As(*expr.EvalError) = %v", tc.name, oracle, got)
			}
			if got := errors.Is(err, ErrBadSegment); got != tc.read {
				t.Errorf("%s (oracle=%v): errors.Is(ErrBadSegment) = %v", tc.name, oracle, got)
			}
		}
	}
}

// TestOperatorsReportCorruptChunks runs every rel operator that reads
// tuples over a relation whose first chunk fails its checksum: each must
// fail with an error wrapping ErrBadSegment rather than read the chunk
// as nulls. Project, DropColumn, Sample, Limit and SwapColumns read no
// tuple: they return views of the corrupt store, and the first scan of
// such a view must report the error instead.
func TestOperatorsReportCorruptChunks(t *testing.T) {
	bad := corruptRelation(t, kernelRelation(t, 600))
	good := New("G", MustSchema(Column{Name: "gid", Kind: types.Int}))
	for i := 0; i < 20; i++ {
		good.MustAppend([]types.Value{types.NewInt(int64(i))})
	}
	pred := expr.MustParse("a > 0")
	ops := []struct {
		name string
		run  func() error
	}{
		{"Restrict", func() error { _, err := Restrict(bad, pred); return err }},
		{"JoinHash", func() error { _, err := Join(bad, good, expr.MustParse("id = gid"), JoinHash); return err }},
		{"JoinNestedLoop", func() error { _, err := Join(bad, good, expr.MustParse("id < gid"), JoinNestedLoop); return err }},
		{"Sort", func() error { _, err := Sort(bad, "x", false); return err }},
		{"Union", func() error { _, err := Union(bad, bad); return err }},
		{"Partition", func() error { _, err := Partition(bad, []expr.Node{pred}); return err }},
		{"MapColumn", func() error { _, err := MapColumn(bad, "x", expr.MustParse("x * 2.0")); return err }},
		{"DistinctValues", func() error { _, err := DistinctValues(bad, "tag"); return err }},
		{"Distinct", func() error { _, err := Distinct(bad); return err }},
	}
	views := []struct {
		name string
		make func() (*Relation, error)
	}{
		{"Project", func() (*Relation, error) { return Project(bad, []string{"id", "a"}) }},
		{"DropColumn", func() (*Relation, error) { return DropColumn(bad, "tag") }},
		{"Sample", func() (*Relation, error) { return Sample(bad, 0.5, 1) }},
		{"Limit", func() (*Relation, error) { return Limit(bad, 10) }},
		{"SwapColumns", func() (*Relation, error) { return SwapColumns(bad, "a", "b") }},
	}
	for _, v := range views {
		ops = append(ops, struct {
			name string
			run  func() error
		}{v.name + " then Restrict", func() error {
			out, err := v.make()
			if err != nil {
				return err
			}
			_, err = Restrict(out, pred)
			return err
		}})
	}
	for _, op := range ops {
		if err := op.run(); !errors.Is(err, ErrBadSegment) {
			t.Errorf("%s over a corrupt chunk: error %v, want one wrapping ErrBadSegment", op.name, err)
		}
	}
}
