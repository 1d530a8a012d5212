package rel

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// FusedScan executes an adjacent Restrict/Project chain as one pass over
// the source relation — no intermediate relations, one (optionally
// chunk-parallel) row scan — producing exactly the relation the unfused
// chain would: same schema, computed attributes, tuples, and provenance.
// The dataflow evaluator's plan-time fusion pass (internal/dataflow's
// fuse.go) is its only intended caller, but it is independently testable
// against the unfused operators.
//
// The one observable difference from the unfused chain is error
// attribution when several rows fail: the unfused chain runs step-major
// (every row through step 1, then step 2), a fused scan runs row-major,
// so with predicate errors on multiple steps a different step may report
// first. Whether an error occurs at all is identical.

// FusedOp is one step of a fused scan: a restriction (Pred non-nil) or a
// projection (Project non-nil). Exactly one field is set.
type FusedOp struct {
	Pred    expr.Node
	Project []string
}

// FusedStepError attributes a fused-scan failure to the step that raised
// it, so the dataflow layer can blame the same box an unfused chain would.
type FusedStepError struct {
	Step int
	Err  error
}

// Error implements the error interface.
func (e *FusedStepError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying step error.
func (e *FusedStepError) Unwrap() error { return e.Err }

// FusedResult is a fused scan's output. Shapes holds one relation per
// step with the schema and computed attributes that step's unfused output
// would have — the last entry is Out itself, the earlier ones are empty
// shells the dataflow layer replays display-metadata derivation over
// (rederive reads only attribute names and kinds, never tuples).
type FusedResult struct {
	Out    *Relation
	Shapes []*Relation
}

// fusedPred is one restriction of the pipeline, bound to the shape it
// was checked against over the source relation's tuple layout.
type fusedPred struct {
	step int
	pred *boundExpr
}

// FusedScan runs the pipeline over r with up to workers scan workers
// (0 inherits the package scan-worker setting). Errors carry the failing
// step as a *FusedStepError.
func FusedScan(r *Relation, ops []FusedOp, workers int) (*FusedResult, error) {
	return FusedScanCtx(context.Background(), r, ops, workers)
}

// FusedScanCtx is FusedScan attributed to the request carried by ctx:
// the scan records a rel.fused_scan span (parented under the firing that
// invoked it) with a rel.compile.pass child covering the shape-check
// pass. The pass runs — and so records — with kernels on and off,
// keeping trace structure identical across the ablation.
func FusedScanCtx(ctx context.Context, r *Relation, ops []FusedOp, workers int) (*FusedResult, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("rel: fused scan: empty pipeline")
	}
	var sp *obs.Span
	if obs.Recording() {
		ctx, sp = obs.StartSpanCtx(ctx, obs.SpanRelFusedScan,
			"steps", strconv.Itoa(len(ops)), "rows_in", strconv.Itoa(r.Len()))
	}
	res, err := fusedScan(ctx, r, ops, workers)
	if err == nil {
		sp.Annotate("rows_out", strconv.Itoa(res.Out.Len()))
	}
	sp.End()
	return res, err
}

// fusedScan is FusedScanCtx without the rel.fused_scan span.
func fusedScan(ctx context.Context, r *Relation, ops []FusedOp, workers int) (*FusedResult, error) {
	sh, err := tracedShapePass(ctx, r, ops)
	if err != nil {
		return nil, err
	}
	obs.Inc(obs.RelFusedScans)
	out, err := sh.run(r, workers)
	if err != nil {
		if _, step := err.(*FusedStepError); !step {
			err = fmt.Errorf("rel: fused scan: %w", err)
		}
		return nil, err
	}
	return &FusedResult{Out: out, Shapes: sh.shapes}, nil
}

// runStep runs one Restrict or Project step through the fused scan and
// reports errors in the standalone operator's shape: the step's own
// error unwrapped, chunk read errors prefixed with the operator name.
func runStep(r *Relation, op FusedOp, name string) (*Relation, error) {
	sh, err := fusedShapePass(r, []FusedOp{op})
	if err == nil {
		var out *Relation
		if out, err = sh.run(r, 0); err == nil {
			return out, nil
		}
	}
	if se, ok := err.(*FusedStepError); ok {
		return nil, se.Err
	}
	return nil, fmt.Errorf("rel: %s: %w", name, err)
}

// fusedShape is the result of a fused pipeline's shape pass over a source
// relation: the per-step output shapes, the final stored-column mapping
// back to source ordinals, and the checked predicates bound to their
// shapes. run scans with it; the incremental path (FusedDelta) reuses it
// to evaluate single rows, and Join to filter candidate pairs.
type fusedShape struct {
	shape  *Relation   // final output shape (schema + surviving computed attrs)
	shapes []*Relation // per-step shapes, last == shape
	colMap []int       // final stored column -> source tuple ordinal
	preds  []*fusedPred
	op     string // the operator a predicate error names: "restrict" or "join"
}

// tracedShapePass is fusedShapePass under a rel.compile.pass span.
func tracedShapePass(ctx context.Context, r *Relation, ops []FusedOp) (*fusedShape, error) {
	var sp *obs.Span
	if obs.Recording() {
		_, sp = obs.StartSpanCtx(ctx, obs.SpanRelCompile)
	}
	defer sp.End()
	return fusedShapePass(r, ops)
}

// fusedShapePass replays the schema and computed-attribute derivations the
// unfused operators would perform, tracking for every surviving stored
// column its ordinal in r's tuples. Checking happens here, once, in step
// order — the same order the unfused chain would report a bad predicate
// or projection in.
func fusedShapePass(r *Relation, ops []FusedOp) (*fusedShape, error) {
	shape := New("", r.schema)
	shape.computed = r.computed
	colMap := identityMap(r.schema.Len())
	sh := &fusedShape{shapes: make([]*Relation, len(ops)), op: "restrict"}
	for i, op := range ops {
		switch {
		case op.Pred != nil:
			if err := expr.CheckPredicate(op.Pred, shape); err != nil {
				return nil, &FusedStepError{Step: i, Err: err}
			}
			sh.preds = append(sh.preds, &fusedPred{step: i, pred: &boundExpr{node: op.Pred, shape: shape, colMap: colMap}})
			shape = shape.derive(shape.schema, true)
		case op.Project != nil:
			ns, err := shape.schema.project(op.Project)
			if err != nil {
				return nil, &FusedStepError{Step: i, Err: err}
			}
			nm := make([]int, len(op.Project))
			for j, name := range op.Project {
				nm[j] = colMap[shape.schema.Index(name)]
			}
			shape = shape.derive(ns, true)
			colMap = nm
		default:
			return nil, &FusedStepError{Step: i, Err: fmt.Errorf("rel: fused scan: step %d is neither restrict nor project", i)}
		}
		sh.shapes[i] = shape
	}
	sh.shape, sh.colMap = shape, colMap
	return sh, nil
}

// evalRow interprets every predicate of the pipeline over one source
// tuple (with the source relation's stored arity), returning whether it
// survives.
func (sh *fusedShape) evalRow(tup []types.Value, env *rowEnv) (bool, error) {
	for _, fp := range sh.preds {
		ok, err := fp.pred.test(tup, env)
		if err != nil {
			return false, &FusedStepError{Step: fp.step, Err: fmt.Errorf("rel: %s: %w", sh.op, err)}
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// projectRow maps one surviving source tuple into the output layout.
func (sh *fusedShape) projectRow(tup []types.Value) []types.Value {
	nt := make([]types.Value, len(sh.colMap))
	for j, ci := range sh.colMap {
		nt[j] = tup[ci]
	}
	return nt
}

// run is the one scan behind Restrict, Project and FusedScan. It
// selects the surviving rows and gathers them column by column into the
// final shape's pinned chunks, with provenance. Predicate failures come
// back as *FusedStepError; chunk read errors come back bare, for the
// caller to prefix with its operator name.
func (sh *fusedShape) run(r *Relation, workers int) (*Relation, error) {
	rows, err := sh.selectRows(r, workers)
	if err != nil {
		return nil, err
	}
	out := sh.shape
	if out.cols, err = gatherStore(out.schema, workers, part{r.cols, rows, sh.colMap}); err != nil {
		return nil, err
	}
	out.setProv(r, rows)
	return out, nil
}

// selectRows returns the rows of r that pass every predicate, ascending,
// filtering r's chunks with kernels where they compile (chunkFilter).
// Workers take contiguous runs of chunks, so concatenating their
// keep-lists reproduces the serial row order, and runChunks reports the
// error a serial scan would hit first.
func (sh *fusedShape) selectRows(r *Relation, workers int) ([]int, error) {
	n := r.Len()
	if len(sh.preds) == 0 || n == 0 {
		return identityMap(n), nil
	}
	progs := sh.kernels()
	cs := r.cols
	chunkKeep := make([][]int, len(cs.slots))
	err := runChunks(len(cs.slots), min(scanChunks(n, workers), len(cs.slots)), func(_, lo, hi int) error {
		f := sh.newFilter(progs)
		defer f.release()
		for ci := lo; ci < hi; ci++ {
			ck, err := cs.chunk(ci)
			if err != nil {
				return err
			}
			base, end := cs.chunkSpan(ci)
			if chunkKeep[ci], err = f.keep(ck, base, make([]int, 0, (end-base)/4+8)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concatRows(chunkKeep), nil
}
