package rel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// This file holds the one row-at-a-time evaluator and the chunked
// parallel-scan machinery the operators share. An expression evaluates
// one of two ways: chunk kernels (kernel.go), the fast path of every
// scan, or expr.Eval through a boundExpr, the semantics of record.
// SetCompileDisabled turns the kernels off so every row interprets: the
// differential oracle. Flipping it changes how rows are evaluated,
// never which scan runs, its row order or its chunking.

// DefaultScanThreshold is the row count below which scans stay
// single-threaded: chunk bookkeeping and goroutine handoff cost more than
// they save on small relations.
const DefaultScanThreshold = 4096

var (
	compileOff  atomic.Bool
	scanWorkers atomic.Int64 // 0 = GOMAXPROCS
)

// SetCompileDisabled turns kernel compilation off (true) or on (false)
// process-wide and returns the previous setting. With it off every scan
// evaluates every row with the interpreter — the ablation baseline and
// differential oracle.
func SetCompileDisabled(off bool) bool { return compileOff.Swap(off) }

// CompileDisabled reports whether kernel compilation is disabled.
func CompileDisabled() bool { return compileOff.Load() }

// SetScanWorkers sets the worker count for parallel scans and returns the
// previous setting. Zero or negative means GOMAXPROCS; one disables
// parallel scans.
func SetScanWorkers(n int) int { return int(scanWorkers.Swap(int64(n))) }

// ScanWorkers returns the configured scan worker count (0 = GOMAXPROCS).
func ScanWorkers() int { return int(scanWorkers.Load()) }

// scanChunks decides how many contiguous chunks an n-row scan splits
// into: 1 (serial) below the threshold or with one worker, else up to the
// scan-worker setting (GOMAXPROCS when unset).
func scanChunks(n int) int {
	w := int(scanWorkers.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
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

// boundExpr is an expression bound to the tuple layout it reads: the
// attribute names of shape over tuples whose stored columns sit at
// colMap's ordinals (nil = identity; a view's predicate reads its
// store's chunks). The kernel compiler resolves names through it, and its
// eval and test methods are the one row-at-a-time evaluator: expr.Eval
// over the tuple.
type boundExpr struct {
	node   expr.Node
	shape  *Relation
	colMap []int
}

// resolve maps an attribute name to its tuple ordinal and kind (a
// stored column, def nil) or to its kind and definition (a computed
// attribute, ord -1).
func (x *boundExpr) resolve(name string) (ord int, kind types.Kind, def expr.Node, ok bool) {
	if i := x.shape.schema.Index(name); i >= 0 {
		ord = i
		if x.colMap != nil {
			ord = x.colMap[i]
		}
		return ord, x.shape.schema.Col(i).Kind, nil, true
	}
	for _, c := range x.shape.computed {
		if c.Name == name {
			return -1, c.Kind, c.Expr, true
		}
	}
	return -1, types.Invalid, nil, false
}

// rowEnv is a boundExpr's view of one tuple. A computed attribute
// evaluates its definition, and a definition that fails reads as null,
// as through Row.AttrValue. Scans keep one per worker, so evaluation
// adds no per-row allocation.
type rowEnv struct {
	x     *boundExpr
	tuple []types.Value
}

// AttrValue implements expr.Env.
func (e *rowEnv) AttrValue(name string) (types.Value, bool) {
	ord, _, def, ok := e.x.resolve(name)
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

// eval evaluates the expression over tuple t, using env as scratch.
func (x *boundExpr) eval(t []types.Value, env *rowEnv) (types.Value, error) {
	*env = rowEnv{x: x, tuple: t}
	return expr.Eval(x.node, env)
}

// test evaluates the expression as a predicate over tuple t, with
// EvalPredicate's boundary: null is false, a non-bool is an error.
func (x *boundExpr) test(t []types.Value, env *rowEnv) (bool, error) {
	*env = rowEnv{x: x, tuple: t}
	return expr.EvalPredicate(x.node, env)
}
