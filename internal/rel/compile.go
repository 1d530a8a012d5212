package rel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// This file prepares predicates and expressions for row evaluation and
// provides the chunked parallel-scan machinery the operators share.
// Every operator evaluates rows through one handle, compiledPred or
// compiledExpr, that holds either closures compiled by internal/expr or
// — with compilation disabled — the tree-walking interpreter over the
// same positional tuple layout. That switch is the differential oracle:
// flipping it changes how each row is evaluated (and turns the columnar
// kernel off along with the closures), never which scan runs, its row
// order or its chunking.

// DefaultScanThreshold is the row count below which scans stay
// single-threaded: chunk bookkeeping and goroutine handoff cost more than
// they save on small relations.
const DefaultScanThreshold = 4096

var (
	compileOff  atomic.Bool
	scanWorkers atomic.Int64 // 0 = GOMAXPROCS
)

// SetCompileDisabled turns expression compilation off (true) or on
// (false) process-wide and returns the previous setting. With compilation
// off every operator evaluates rows with the interpreter — the ablation
// baseline and differential oracle.
func SetCompileDisabled(off bool) bool { return compileOff.Swap(off) }

// CompileDisabled reports whether expression compilation is disabled.
func CompileDisabled() bool { return compileOff.Load() }

// SetScanWorkers sets the worker count for parallel scans and returns the
// previous setting. Zero or negative means GOMAXPROCS; one disables
// parallel scans.
func SetScanWorkers(n int) int { return int(scanWorkers.Swap(int64(n))) }

// ScanWorkers returns the configured scan worker count (0 = GOMAXPROCS).
func ScanWorkers() int { return int(scanWorkers.Load()) }

// effectiveWorkers resolves a caller-requested worker count (0 = inherit
// the package setting, which itself defaults to GOMAXPROCS).
func effectiveWorkers(n int) int {
	if n > 0 {
		return n
	}
	if w := int(scanWorkers.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// scanChunks decides how many contiguous chunks an n-row scan splits
// into: 1 (serial) below the threshold or with one worker, else up to the
// effective worker count.
func scanChunks(n, workers int) int {
	w := effectiveWorkers(workers)
	if w <= 1 || n < DefaultScanThreshold {
		return 1
	}
	if w > n {
		w = n
	}
	return w
}

// runChunks runs fn over [0, n) split into the given number of contiguous
// chunks, concurrently when chunks > 1. Output determinism is the
// caller's job (chunks are contiguous and ordered, so concatenating
// per-chunk results in chunk order reproduces the serial order). Error
// determinism is guaranteed here: fn stops a chunk at its first failure
// and runChunks returns the error of the lowest-numbered failed chunk —
// every row before that failure, in this or any lower chunk, succeeded,
// so the reported error is the one a serial scan would have hit first.
func runChunks(n, chunks int, fn func(chunk, lo, hi int) error) error {
	if chunks <= 1 {
		return fn(0, 0, n)
	}
	obs.Add(obs.RelScanChunks, int64(chunks))
	size := (n + chunks - 1) / chunks
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			errs[c] = fn(c, lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// concatRows joins per-chunk row lists in chunk order.
func concatRows(chunkRows [][]int) []int {
	total := 0
	for _, rs := range chunkRows {
		total += len(rs)
	}
	rows := make([]int, 0, total)
	for _, rs := range chunkRows {
		rows = append(rows, rs...)
	}
	return rows
}

// mappedScope adapts a relation's attribute names to expr.CompileScope
// over a positional tuple layout. Stored columns resolve to their
// ordinal, mapped through colMap when the tuples are another relation's
// (a fused scan's steps all read the SOURCE tuples; nil means identity).
// Computed attributes listed in mat resolve to their materialized slot
// past the stored columns (see matPlan); the others inline their
// definitions, with the same evaluate-to-null error swallowing as Row.
type mappedScope struct {
	shape  *Relation
	colMap []int
	mat    map[string]int
}

// ResolveAttr implements expr.CompileScope.
func (s mappedScope) ResolveAttr(name string) (int, expr.Node, bool) {
	if i := s.shape.schema.Index(name); i >= 0 {
		if s.colMap != nil {
			i = s.colMap[i]
		}
		return i, nil, true
	}
	if j, ok := s.mat[name]; ok {
		return j, nil, true
	}
	for _, c := range s.shape.computed {
		if c.Name == name {
			return -1, c.Expr, true
		}
	}
	return -1, nil, false
}

// matPlan materializes computed attributes once per row. Inlining a
// computed definition at every Ref re-evaluates it per reference — the
// same asymptotic work as the interpreter. The plan instead extends each
// tuple with the referenced computed attributes, evaluated once in
// definition order (AddComputed guarantees definitions only reference
// stored columns and earlier computed attributes), and the main
// expression compiles against the extended layout where those names are
// plain slot reads.
type matPlan struct {
	comps []*expr.Compiled
}

// extend appends the plan's computed values to t inside scratch (reused
// across rows; pass the returned slice back in). A definition that fails
// evaluates to null, exactly like a computed Ref through an Env.
func (m *matPlan) extend(t, scratch []types.Value) []types.Value {
	ext := append(scratch[:0], t...)
	for _, c := range m.comps {
		v, err := c.Eval(ext)
		if err != nil {
			v = types.Null
		}
		ext = append(ext, v)
	}
	return ext
}

// buildMat plans materialization for the computed attributes
// transitively referenced by nodes: the map gives each its extended
// ordinal for mappedScope, the plan evaluates them per row. Returns nils
// when nothing is referenced or a definition fails to compile (the
// caller then compiles with plain inlining).
func (r *Relation) buildMat(nodes ...expr.Node) (*matPlan, map[string]int) {
	if len(r.computed) == 0 {
		return nil, nil
	}
	defs := make(map[string]expr.Node, len(r.computed))
	for _, c := range r.computed {
		defs[c.Name] = c.Expr
	}
	need := make(map[string]bool)
	var visit func(n expr.Node)
	visit = func(n expr.Node) {
		for _, name := range expr.Refs(n) {
			if def, ok := defs[name]; ok && !need[name] {
				need[name] = true
				visit(def)
			}
		}
	}
	for _, n := range nodes {
		visit(n)
	}
	if len(need) == 0 {
		return nil, nil
	}
	width := r.schema.Len()
	plan := &matPlan{comps: make([]*expr.Compiled, 0, len(need))}
	mat := make(map[string]int, len(need))
	for _, c := range r.computed {
		if !need[c.Name] {
			continue
		}
		// mat holds only earlier names here, so a definition compiles
		// against the slots already materialized when it runs.
		ce, err := expr.Compile(c.Expr, mappedScope{shape: r, mat: mat})
		if err != nil {
			return nil, nil
		}
		mat[c.Name] = width + len(plan.comps)
		plan.comps = append(plan.comps, ce)
	}
	return plan, mat
}

// prepare is where a scan reads the oracle switch. With compilation on
// it plans materialization of the computed attributes nodes reference —
// one plan shared by all of them — and reports compile=true, so callers
// compile each node against a mappedScope carrying mat. With compilation off
// it returns no plan and compile=false: every handle interprets.
func (r *Relation) prepare(nodes ...expr.Node) (plan *matPlan, mat map[string]int, compile bool) {
	if compileOff.Load() {
		return nil, nil, false
	}
	plan, mat = r.buildMat(nodes...)
	return plan, mat, true
}

// oracleEnv is the interpreter's view of one positional tuple: names
// resolve through the same scope the compiler uses, and a computed
// attribute evaluates its definition with the evaluate-to-null error
// swallowing of Row.AttrValue.
type oracleEnv struct {
	scope expr.CompileScope
	tuple []types.Value
}

// AttrValue implements expr.Env.
func (e *oracleEnv) AttrValue(name string) (types.Value, bool) {
	ord, def, ok := e.scope.ResolveAttr(name)
	if !ok {
		return types.Null, false
	}
	if def == nil {
		return e.tuple[ord], true
	}
	v, err := expr.Eval(def, e)
	if err != nil {
		return types.Null, true
	}
	return v, true
}

// evalScratch is one goroutine's reusable row-evaluation state: the
// materialization buffer and the oracle's environment. Scans keep one per
// worker, so the handle adds no per-row allocation in either mode.
type evalScratch struct {
	ext []types.Value
	env oracleEnv
}

// compiledPred is a predicate prepared for evaluation over tuples laid
// out as scope describes: compiled closures (p), or the interpreter when
// compilation is off or fails. mat, when set, extends each tuple with
// the plan's materialized computed attributes before evaluation.
type compiledPred struct {
	p     *expr.CompiledPredicate
	node  expr.Node
	scope expr.CompileScope
	mat   *matPlan
}

// newPred prepares n over scope, compiling it when compile is set.
func newPred(n expr.Node, scope expr.CompileScope, compile bool) *compiledPred {
	cp := &compiledPred{node: n, scope: scope}
	if compile {
		if p, err := expr.CompilePredicate(n, scope); err == nil {
			obs.Inc(obs.RelCompile)
			cp.p = p
		}
	}
	return cp
}

// eval evaluates the predicate over tuple t using the caller's scratch.
func (cp *compiledPred) eval(t []types.Value, sc *evalScratch) (bool, error) {
	if cp.mat != nil {
		sc.ext = cp.mat.extend(t, sc.ext)
		t = sc.ext
	}
	if cp.p != nil {
		return cp.p.Eval(t)
	}
	sc.env = oracleEnv{scope: cp.scope, tuple: t}
	return expr.EvalPredicate(cp.node, &sc.env)
}

// compiledExpr is compiledPred for value-producing expressions.
type compiledExpr struct {
	e     *expr.Compiled
	node  expr.Node
	scope expr.CompileScope
	mat   *matPlan
}

// eval mirrors compiledPred.eval for value-producing expressions.
func (ce *compiledExpr) eval(t []types.Value, sc *evalScratch) (types.Value, error) {
	if ce.mat != nil {
		sc.ext = ce.mat.extend(t, sc.ext)
		t = sc.ext
	}
	if ce.e != nil {
		return ce.e.Eval(t)
	}
	sc.env = oracleEnv{scope: ce.scope, tuple: t}
	return expr.Eval(ce.node, &sc.env)
}

// compilePredicate prepares pred over the relation's tuple layout.
func (r *Relation) compilePredicate(pred expr.Node) *compiledPred {
	plan, mat, compile := r.prepare(pred)
	cp := newPred(pred, mappedScope{shape: r, mat: mat}, compile)
	cp.mat = plan
	return cp
}

// compileExpr prepares def over the relation's tuple layout.
func (r *Relation) compileExpr(def expr.Node) *compiledExpr {
	plan, mat, compile := r.prepare(def)
	ce := &compiledExpr{node: def, scope: mappedScope{shape: r, mat: mat}, mat: plan}
	if compile {
		if e, err := expr.Compile(def, ce.scope); err == nil {
			obs.Inc(obs.RelCompile)
			ce.e = e
		}
	}
	return ce
}
