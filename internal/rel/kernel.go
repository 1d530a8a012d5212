package rel

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// This file is the columnar expression kernel, the fast path of every
// scan: it lowers an expression to monomorphic loops over a chunk's
// contiguous typed lanes (internal/rel/chunk.go), producing selection
// bitmaps for predicates and value lanes for MapColumn. It runs wherever
// the scan driver filters chunks — Restrict, Partition and the candidate
// pairs of Join — and is strictly best-effort: any node it cannot reproduce
// EXACTLY rejects compilation, and the driver evaluates those rows with
// the interpreter (expr.Eval through a boundExpr), which is the
// semantics of record and the differential oracle.
//
// Exactness argument. Append and Update enforce schema kinds, so at run
// time every stored value has its declared kind or is null; the static
// kinds the kernel computes are therefore the only kinds its lanes ever
// hold. Within the node set the kernel accepts, the sole reachable
// runtime error is integer or float division/modulo by zero. Those rows
// are flagged in a per-chunk error bitmap and re-evaluated row-wise in
// ascending order through the interpreter, which both reproduces the
// exact error value and preserves the "lowest failing row reports
// first" determinism of a serial scan. Everything else is pure bitmap
// algebra chosen to mirror the interpreter bit for bit:
//
//   - null propagation: null_out = null_l | null_r for every non-and/or
//     operator, nulls collapsed to false at the predicate boundary;
//   - and/or: the interpreter's short-circuit Kleene forms, expressed
//     as  and: t' = tl&tr, n' = nl | (tl&nr);  or: t' = tl | (fl&tr),
//     n' = nl | (fl&nr)  with f = ^(t|n|e) — including the asymmetric
//     error rule that a short-circuited right side cannot raise;
//   - arithmetic: Int×Int stays int64 with Go's wrapping overflow and
//     truncating division, exactly evalArith's operations; any Int/Float
//     mix promotes through float64 just as AsFloat does;
//   - comparisons: types.Compare orders numeric kinds by three-way
//     float64 comparison (under which NaN is "equal" to everything), so
//     the kernel compares float64 lanes with the matching predicates:
//     <: a<b, <=: !(a>b), =: !(a<b)&&!(a>b), and so on — never native
//     int comparisons, which would diverge past 2^53.
//
// Rejected outright (the interpreter handles them): Date arithmetic,
// Bool comparisons, Text ordering and concatenation (Text = / != is
// kept), float modulo, builtin calls, and null literals. Computed
// attributes inline their definitions recursively with a per-chunk memo,
// and an error inside a definition forces that row's attribute to null
// — the same swallowing Row.AttrValue performs.

// ---------------------------------------------------------------------
// Bitmaps.

// kbits is a row bitmap with one bit per row of the producing context,
// so every bitmap of one context has the same word count. Bits at or
// above the row count are meaningless and every consuming loop is
// bounded, so trailing garbage is harmless. A nil kbits means "no bits
// set" and may be returned shared by the combinators; treat every kbits
// as immutable once produced.
type kbits []uint64

func (b kbits) set(i int)       { b[i>>6] |= 1 << (uint(i) & 63) }
func (b kbits) test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// kAny reports whether any bit is set (trailing garbage included — use
// only as a fast-path gate, never for correctness).
func kAny(b kbits) bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// bits returns an n-row bitmap with every bit clear.
func (kc *kctx) bits(n int) kbits {
	b := kbits(kc.words.take((n + 63) / 64))
	clear(b)
	return b
}

// ones returns an n-row bitmap with every bit set.
func (kc *kctx) ones(n int) kbits {
	b := kbits(kc.words.take((n + 63) / 64))
	for i := range b {
		b[i] = ^uint64(0)
	}
	return b
}

// or returns a|b; nil operands pass the other through unchanged.
func (kc *kctx) or(a, b kbits) kbits {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := kbits(kc.words.take(len(a)))
	for i := range out {
		out[i] = a[i] | b[i]
	}
	return out
}

// and returns a&b; nil if either operand is nil.
func (kc *kctx) and(a, b kbits) kbits {
	if a == nil || b == nil {
		return nil
	}
	out := kbits(kc.words.take(len(a)))
	for i := range out {
		out[i] = a[i] & b[i]
	}
	return out
}

// andNot returns a&^b.
func (kc *kctx) andNot(a, b kbits) kbits {
	if a == nil || b == nil {
		return a
	}
	out := kbits(kc.words.take(len(a)))
	for i := range out {
		out[i] = a[i] &^ b[i]
	}
	return out
}

// not3 returns ^(a|b|c) (a must be non-nil; b and c may be nil).
func (kc *kctx) not3(a, b, c kbits) kbits {
	out := kbits(kc.words.take(len(a)))
	for i := range out {
		w := a[i]
		if b != nil {
			w |= b[i]
		}
		if c != nil {
			w |= c[i]
		}
		out[i] = ^w
	}
	return out
}

// ---------------------------------------------------------------------
// Vectors.

// kvec is one expression node's value over a chunk: a typed lane plus
// null and error bitmaps. Int, Date share the int64 lane; Bool is held
// as bitmaps (t = true rows) rather than a lane. The three bitmaps are
// pairwise disjoint: an error row is neither null nor true, a null row
// is not true. Lane slots under a null or error bit are garbage.
type kvec struct {
	kind   types.Kind
	ints   []int64
	floats []float64
	strs   []string
	t      kbits // Bool only; always non-nil for Bool vectors
	null   kbits // nil = no nulls
	errs   kbits // nil = no errors (division/modulo by zero)
}

// kctx is one scan worker's evaluation context: the current chunk, a
// memo of computed-attribute vectors by definition node, and arenas the
// vectors' lanes and bitmaps are carved from. No vector outlives the
// chunk it was computed for, so reset takes every slice back for the
// next chunk, and a pooled context carries its arenas on to the next
// scan: a warm scan allocates no lanes.
type kctx struct {
	c      *Chunk
	n      int
	memo   map[expr.Node]*kvec
	ints   arena[int64]
	floats arena[float64]
	strs   arena[string]
	words  arena[uint64]
}

// kctxPool keeps scan workers' contexts between scans.
var kctxPool = sync.Pool{New: func() any { return new(kctx) }}

func (kc *kctx) reset(c *Chunk) {
	kc.c, kc.n = c, c.Rows()
	clear(kc.memo)
	kc.ints.next, kc.floats.next, kc.strs.next, kc.words.next = 0, 0, 0, 0
}

// arena hands out slices in order and takes them all back at once.
type arena[T any] struct {
	bufs [][]T
	next int
}

// take returns an n-element slice not handed out since the last reset.
// Its contents are garbage: the caller writes every element.
func (a *arena[T]) take(n int) []T {
	if a.next == len(a.bufs) {
		a.bufs = append(a.bufs, nil)
	}
	if cap(a.bufs[a.next]) < n {
		a.bufs[a.next] = make([]T, n)
	}
	a.next++
	return a.bufs[a.next-1][:n]
}

// kfn evaluates one compiled node over the context's chunk.
type kfn func(kc *kctx) *kvec

// kernelCompile compiles x to a chunk kernel producing its value vector
// and kind, or reports false when any node falls outside the
// exactly-reproducible set.
func kernelCompile(x *boundExpr) (kfn, types.Kind, bool) {
	c := &kernCompiler{scope: x}
	fn, kind, _, ok := c.compile(x.node)
	return fn, kind, ok
}

// ---------------------------------------------------------------------
// Compiler.

type kernCompiler struct {
	scope *boundExpr
	depth int
}

// compile lowers one node, folding constant subtrees to their value —
// computed once, at compile time, and broadcast over each chunk (errors
// included: a constant 1/0 becomes an all-error vector whose rows all
// fall back, reproducing the interpreter's first-row error).
func (c *kernCompiler) compile(n expr.Node) (kfn, types.Kind, bool, bool) {
	fn, kind, konst, ok := c.compileNode(n)
	if !ok {
		return nil, types.Invalid, false, false
	}
	if konst {
		return broadcast(fn(&kctx{n: 1}), kind), kind, true, true
	}
	return fn, kind, false, true
}

// broadcast returns a node giving every row of the chunk v's single row,
// filled into the context's arena: a constant costs a fill per chunk,
// not an allocation.
func broadcast(v *kvec, kind types.Kind) kfn {
	errs := v.errs != nil && v.errs.test(0)
	null := v.null != nil && v.null.test(0)
	return func(kc *kctx) *kvec {
		n := kc.n
		out := &kvec{kind: kind}
		switch kind {
		case types.Int, types.Date:
			out.ints = fill(kc.ints.take(n), v.ints[0])
		case types.Float:
			out.floats = fill(kc.floats.take(n), v.floats[0])
		case types.Text:
			out.strs = fill(kc.strs.take(n), v.strs[0])
		case types.Bool:
			if v.t.test(0) {
				out.t = kc.ones(n)
			} else {
				out.t = kc.bits(n)
			}
		}
		if errs {
			out.errs = kc.ones(n)
		} else if null {
			out.null = kc.ones(n)
		}
		return out
	}
}

// fill sets every element of s to x.
func fill[T any](s []T, x T) []T {
	for i := range s {
		s[i] = x
	}
	return s
}

func isIF(k types.Kind) bool { return k == types.Int || k == types.Float }

func isNumericK(k types.Kind) bool {
	return k == types.Int || k == types.Float || k == types.Date
}

func (c *kernCompiler) compileNode(n expr.Node) (kfn, types.Kind, bool, bool) {
	switch n := n.(type) {
	case *expr.Lit:
		v := n.Val
		if v.IsNull() {
			return nil, types.Invalid, false, false
		}
		kind := v.Kind()
		single := &kvec{kind: kind}
		switch kind {
		case types.Int:
			single.ints = []int64{v.Int()}
		case types.Date:
			single.ints = []int64{v.DateDays()}
		case types.Float:
			single.floats = []float64{v.Float()}
		case types.Text:
			single.strs = []string{v.Text()}
		case types.Bool:
			single.t = kbits{0}
			if v.Bool() {
				single.t.set(0)
			}
		default:
			return nil, types.Invalid, false, false
		}
		return func(*kctx) *kvec { return single }, kind, true, true

	case *expr.Ref:
		ord, kind, def, ok := c.scope.resolve(n.Name)
		if !ok {
			return nil, types.Invalid, false, false
		}
		if def != nil {
			return c.compileComputed(def)
		}
		switch kind {
		case types.Int, types.Float, types.Date, types.Text, types.Bool:
		default:
			return nil, types.Invalid, false, false
		}
		return func(kc *kctx) *kvec {
			cv := &kc.c.cols[ord]
			null := kbits(kc.words.take((kc.n + 63) / 64))
			for w := range null {
				null[w] = ^cv.valid[w]
			}
			out := &kvec{kind: kind, null: null}
			switch kind {
			case types.Int, types.Date:
				out.ints = cv.ints
			case types.Float:
				out.floats = cv.floats
			case types.Text:
				out.strs = cv.strs
			case types.Bool:
				t := kc.bits(kc.n)
				lane := cv.ints
				for i := 0; i < kc.n; i++ {
					if lane[i] != 0 {
						t.set(i)
					}
				}
				out.t = kc.andNot(t, null)
			}
			return out
		}, kind, false, true

	case *expr.Unary:
		xf, kind, konst, ok := c.compile(n.X)
		if !ok {
			return nil, types.Invalid, false, false
		}
		switch n.Op {
		case "-":
			switch kind {
			case types.Int:
				return func(kc *kctx) *kvec {
					x := xf(kc)
					res := kc.ints.take(kc.n)
					lane := x.ints[:kc.n]
					for i := range res {
						res[i] = -lane[i]
					}
					return &kvec{kind: types.Int, ints: res, null: x.null, errs: x.errs}
				}, types.Int, konst, true
			case types.Float:
				return func(kc *kctx) *kvec {
					x := xf(kc)
					res := kc.floats.take(kc.n)
					lane := x.floats[:kc.n]
					for i := range res {
						res[i] = -lane[i]
					}
					return &kvec{kind: types.Float, floats: res, null: x.null, errs: x.errs}
				}, types.Float, konst, true
			}
			return nil, types.Invalid, false, false
		case "not":
			if kind != types.Bool {
				return nil, types.Invalid, false, false
			}
			return func(kc *kctx) *kvec {
				x := xf(kc)
				return &kvec{kind: types.Bool, t: kc.not3(x.t, x.null, x.errs), null: x.null, errs: x.errs}
			}, types.Bool, konst, true
		}
		return nil, types.Invalid, false, false

	case *expr.Binary:
		lf, lk, lko, ok := c.compile(n.L)
		if !ok {
			return nil, types.Invalid, false, false
		}
		rf, rk, rko, ok := c.compile(n.R)
		if !ok {
			return nil, types.Invalid, false, false
		}
		konst := lko && rko
		switch n.Op {
		case "and", "or":
			if lk != types.Bool || rk != types.Bool {
				return nil, types.Invalid, false, false
			}
			isAnd := n.Op == "and"
			return func(kc *kctx) *kvec {
				l, r := lf(kc), rf(kc)
				out := &kvec{kind: types.Bool}
				if isAnd {
					// false-l short-circuits: r's errors and nulls only
					// matter where l is true or null.
					out.errs = kc.or(l.errs, kc.and(kc.or(l.t, l.null), r.errs))
					out.null = kc.andNot(kc.or(l.null, kc.and(l.t, r.null)), out.errs)
					out.t = kc.and(l.t, r.t)
				} else {
					// true-l short-circuits: r matters where l is false
					// or null (null-l still propagates r's errors).
					fl := kc.not3(l.t, l.null, l.errs)
					out.errs = kc.or(l.errs, kc.andNot(r.errs, l.t))
					out.null = kc.andNot(kc.or(l.null, kc.and(fl, r.null)), out.errs)
					out.t = kc.or(l.t, kc.and(fl, r.t))
				}
				return out
			}, types.Bool, konst, true

		case "+", "-", "*", "/", "%":
			if !isIF(lk) || !isIF(rk) {
				return nil, types.Invalid, false, false
			}
			if lk == types.Int && rk == types.Int {
				return c.intArith(n.Op, lf, rf), types.Int, konst, true
			}
			if n.Op == "%" {
				// Float modulo goes through math.Mod in the interpreter;
				// leave it there.
				return nil, types.Invalid, false, false
			}
			lf = c.coerceFloat(lf, lk, lko)
			rf = c.coerceFloat(rf, rk, rko)
			return c.floatArith(n.Op, lf, rf), types.Float, konst, true

		case "<", "<=", ">", ">=", "=", "!=":
			if lk == types.Text && rk == types.Text {
				if n.Op != "=" && n.Op != "!=" {
					return nil, types.Invalid, false, false
				}
				return c.textEq(n.Op == "!=", lf, rf), types.Bool, konst, true
			}
			if !isNumericK(lk) || !isNumericK(rk) {
				return nil, types.Invalid, false, false
			}
			if (n.Op == "=" || n.Op == "!=") && lk != rk && !(isIF(lk) && isIF(rk)) {
				// comparable() rejects e.g. Date = Int at run time.
				return nil, types.Invalid, false, false
			}
			lf = c.coerceFloat(lf, lk, lko)
			rf = c.coerceFloat(rf, rk, rko)
			return c.floatCompare(n.Op, lf, rf), types.Bool, konst, true
		}
		return nil, types.Invalid, false, false
	}
	// Calls (builtins) and anything unknown: the interpreter.
	return nil, types.Invalid, false, false
}

// compileComputed inlines a computed-attribute definition: evaluated
// once per chunk (memoized by definition node), with any per-row error
// inside the definition converted to null at this boundary — exactly
// Row.AttrValue's swallowing.
func (c *kernCompiler) compileComputed(def expr.Node) (kfn, types.Kind, bool, bool) {
	c.depth++
	if c.depth > 64 {
		c.depth--
		return nil, types.Invalid, false, false
	}
	sub, kind, konst, ok := c.compile(def)
	c.depth--
	if !ok {
		return nil, types.Invalid, false, false
	}
	fn := func(kc *kctx) *kvec {
		if v, ok := kc.memo[def]; ok {
			return v
		}
		v := sub(kc)
		if v.errs != nil {
			nv := *v
			nv.null = kc.or(v.null, v.errs)
			nv.errs = nil
			v = &nv
		}
		if kc.memo == nil {
			kc.memo = make(map[expr.Node]*kvec)
		}
		kc.memo[def] = v
		return v
	}
	return fn, kind, konst, true
}

// coerceFloat adapts an Int or Date lane producer to a float64 lane,
// matching AsFloat's conversion. Constant operands convert once.
func (c *kernCompiler) coerceFloat(fn kfn, kind types.Kind, konst bool) kfn {
	if kind == types.Float {
		return fn
	}
	conv := func(kc *kctx) *kvec {
		x := fn(kc)
		res := kc.floats.take(kc.n)
		lane := x.ints[:kc.n]
		for i := range res {
			res[i] = float64(lane[i])
		}
		return &kvec{kind: types.Float, floats: res, null: x.null, errs: x.errs}
	}
	if konst {
		return broadcast(conv(&kctx{n: 1}), types.Float)
	}
	return conv
}

// intArith lowers Int×Int arithmetic: Go's wrapping int64 ops, with
// division/modulo by zero flagged as per-row errors for fallback.
func (c *kernCompiler) intArith(op string, lf, rf kfn) kfn {
	return func(kc *kctx) *kvec {
		l, r := lf(kc), rf(kc)
		n := kc.n
		errs := kc.or(l.errs, r.errs)
		null := kc.andNot(kc.or(l.null, r.null), errs)
		res := kc.ints.take(n)
		a, b := l.ints[:n], r.ints[:n]
		var zero kbits
		switch op {
		case "+":
			for i := range res {
				res[i] = a[i] + b[i]
			}
		case "-":
			for i := range res {
				res[i] = a[i] - b[i]
			}
		case "*":
			for i := range res {
				res[i] = a[i] * b[i]
			}
		case "/":
			for i := 0; i < n; i++ {
				if b[i] == 0 {
					if zero == nil {
						zero = kc.bits(n)
					}
					zero.set(i)
					continue
				}
				res[i] = a[i] / b[i]
			}
		case "%":
			for i := 0; i < n; i++ {
				if b[i] == 0 {
					if zero == nil {
						zero = kc.bits(n)
					}
					zero.set(i)
					continue
				}
				res[i] = a[i] % b[i]
			}
		}
		if zero != nil {
			// A zero divisor only errors on rows that were live: a null
			// operand already made the row null (its lane slot is 0).
			ne := kc.andNot(kc.andNot(zero, null), errs)
			if kAny(ne) {
				errs = kc.or(errs, ne)
			}
		}
		return &kvec{kind: types.Int, ints: res, null: null, errs: errs}
	}
}

// floatArith lowers float64 arithmetic (operands already coerced).
// Division by zero — Compare's ±0 included — errors like evalArith.
func (c *kernCompiler) floatArith(op string, lf, rf kfn) kfn {
	return func(kc *kctx) *kvec {
		l, r := lf(kc), rf(kc)
		n := kc.n
		errs := kc.or(l.errs, r.errs)
		null := kc.andNot(kc.or(l.null, r.null), errs)
		res := kc.floats.take(n)
		a, b := l.floats[:n], r.floats[:n]
		var zero kbits
		switch op {
		case "+":
			for i := range res {
				res[i] = a[i] + b[i]
			}
		case "-":
			for i := range res {
				res[i] = a[i] - b[i]
			}
		case "*":
			for i := range res {
				res[i] = a[i] * b[i]
			}
		case "/":
			for i := 0; i < n; i++ {
				if b[i] == 0 {
					if zero == nil {
						zero = kc.bits(n)
					}
					zero.set(i)
					continue
				}
				res[i] = a[i] / b[i]
			}
		}
		if zero != nil {
			ne := kc.andNot(kc.andNot(zero, null), errs)
			if kAny(ne) {
				errs = kc.or(errs, ne)
			}
		}
		return &kvec{kind: types.Float, floats: res, null: null, errs: errs}
	}
}

// floatCompare lowers numeric comparisons as three-way float64
// comparison predicates, reproducing types.Compare exactly — including
// NaN ordering as "equal to everything" (both a<b and a>b false).
func (c *kernCompiler) floatCompare(op string, lf, rf kfn) kfn {
	return func(kc *kctx) *kvec {
		l, r := lf(kc), rf(kc)
		n := kc.n
		errs := kc.or(l.errs, r.errs)
		null := kc.andNot(kc.or(l.null, r.null), errs)
		t := kc.bits(n)
		a, b := l.floats[:n], r.floats[:n]
		switch op {
		case "<":
			for i := 0; i < n; i++ {
				if a[i] < b[i] {
					t.set(i)
				}
			}
		case "<=":
			for i := 0; i < n; i++ {
				if !(a[i] > b[i]) {
					t.set(i)
				}
			}
		case ">":
			for i := 0; i < n; i++ {
				if a[i] > b[i] {
					t.set(i)
				}
			}
		case ">=":
			for i := 0; i < n; i++ {
				if !(a[i] < b[i]) {
					t.set(i)
				}
			}
		case "=":
			for i := 0; i < n; i++ {
				if !(a[i] < b[i]) && !(a[i] > b[i]) {
					t.set(i)
				}
			}
		case "!=":
			for i := 0; i < n; i++ {
				if a[i] < b[i] || a[i] > b[i] {
					t.set(i)
				}
			}
		}
		t = kc.andNot(kc.andNot(t, null), errs)
		return &kvec{kind: types.Bool, t: t, null: null, errs: errs}
	}
}

// textEq lowers Text equality (the one Text comparison the kernel
// keeps; ordering goes through strings.Compare in the interpreter).
func (c *kernCompiler) textEq(neq bool, lf, rf kfn) kfn {
	return func(kc *kctx) *kvec {
		l, r := lf(kc), rf(kc)
		n := kc.n
		errs := kc.or(l.errs, r.errs)
		null := kc.andNot(kc.or(l.null, r.null), errs)
		t := kc.bits(n)
		a, b := l.strs[:n], r.strs[:n]
		if neq {
			for i := 0; i < n; i++ {
				if a[i] != b[i] {
					t.set(i)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				if a[i] == b[i] {
					t.set(i)
				}
			}
		}
		t = kc.andNot(kc.andNot(t, null), errs)
		return &kvec{kind: types.Bool, t: t, null: null, errs: errs}
	}
}

// ---------------------------------------------------------------------
// Drivers.

// kernels compiles every predicate to a chunk kernel and counts one
// kernel scan. It returns nil — the scan interprets every row — when
// SetCompileDisabled is on or any predicate falls outside the kernel's
// set: a scan runs all its predicates as kernels or none.
func kernels(preds []*boundExpr) []kfn {
	if compileOff.Load() {
		return nil
	}
	progs := make([]kfn, len(preds))
	for i, p := range preds {
		fn, kind, ok := kernelCompile(p)
		if !ok || kind != types.Bool {
			return nil
		}
		progs[i] = fn
	}
	obs.Inc(obs.RelKernelScans)
	return progs
}

// chunkFilter is one scan worker's selection state: the predicates,
// their kernels (nil = interpret every row), a pooled kernel context,
// and the interpreter's scratch.
type chunkFilter struct {
	preds []*boundExpr
	progs []kfn
	kc    *kctx
	match []kbits
	env   rowEnv
	tup   []types.Value
}

func newFilter(preds []*boundExpr, progs []kfn) *chunkFilter {
	f := &chunkFilter{preds: preds, progs: progs}
	if progs != nil {
		f.kc = kctxPool.Get().(*kctx)
	}
	return f
}

// release returns the kernel context to the pool.
func (f *chunkFilter) release() {
	if f.kc != nil {
		f.kc.c = nil // a pooled context must not pin the last chunk it read
		clear(f.kc.memo)
		kctxPool.Put(f.kc)
		f.kc = nil
	}
}

// keep appends base+i to outs[k] for every row i of ck whose first
// satisfied predicate is k, ascending. Kernels run predicate by
// predicate over the rows no earlier predicate took (first-match
// bitmaps): predicate k counts only those rows, so its errors on rows
// already routed are ignored, mirroring the interpreter's short circuit.
// Rows a kernel flags with an error, and every row when there are no
// kernels, run through the interpreter in ascending order, so the error
// returned is the one a serial row-at-a-time scan hits first.
func (f *chunkFilter) keep(ck *Chunk, base int, outs [][]int) error {
	n := ck.Rows()
	var fallback kbits
	if f.progs != nil {
		kc := f.kc
		kc.reset(ck)
		rest := kc.ones(n)
		f.match = f.match[:0]
		for _, prog := range f.progs {
			v := prog(kc)
			if v.errs != nil {
				if nf := kc.and(v.errs, rest); kAny(nf) {
					fallback = kc.or(fallback, nf)
					rest = kc.andNot(rest, nf)
				}
			}
			m := kc.and(rest, v.t)
			f.match = append(f.match, m)
			rest = kc.andNot(rest, m)
		}
		if fallback == nil {
			for k, m := range f.match {
				outs[k] = appendSet(outs[k], m, n, base)
			}
			return nil
		}
	}
	for i := 0; i < n; i++ {
		if f.progs != nil && !fallback.test(i) {
			for k, m := range f.match {
				if m.test(i) {
					outs[k] = append(outs[k], base+i)
					break
				}
			}
			continue
		}
		if f.progs != nil {
			// Counted at detection so aborting on the error still
			// reports the diverted row.
			obs.Inc(obs.RelKernelFallback)
		}
		f.tup = ck.DecodeRow(i, f.tup[:0])
		for k, p := range f.preds {
			ok, err := p.test(f.tup, &f.env)
			if err != nil {
				return err
			}
			if ok {
				outs[k] = append(outs[k], base+i)
				break
			}
		}
	}
	return nil
}

// appendSet appends base+i for every set bit i < n of b, ascending.
func appendSet(dst []int, b kbits, n, base int) []int {
	set := 0
	for _, word := range b {
		set += bits.OnesCount64(word)
	}
	dst = slices.Grow(dst, set)
	for w, word := range b {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			if i >= n {
				return dst
			}
			dst = append(dst, base+i)
			word &= word - 1
		}
	}
	return dst
}

// newLane returns an n-row column of kind k holding only nulls.
func newLane(k types.Kind, n int) colVec {
	v := colVec{kind: k, valid: make([]uint64, (n+63)/64)}
	switch k {
	case types.Float:
		v.floats = make([]float64, n)
	case types.Text:
		v.strs = make([]string, n)
	default:
		v.ints = make([]int64, n)
	}
	return v
}

// lane writes v, a kernel vector over n rows, into a fresh column of
// kind k with the chunk invariants: a null or error row has a clear
// validity bit and a zero lane slot, and no bit is set past n.
func lane(v *kvec, k types.Kind, n int) colVec {
	out := newLane(k, n)
	for w := range out.valid {
		x := ^uint64(0)
		if v.null != nil {
			x &^= v.null[w]
		}
		if v.errs != nil {
			x &^= v.errs[w]
		}
		if rem := n - w<<6; rem < 64 {
			x &= 1<<uint(rem) - 1
		}
		out.valid[w] = x
	}
	for i := 0; i < n; i++ {
		if !out.isValid(i) {
			continue
		}
		switch k {
		case types.Float:
			out.floats[i] = v.floats[i]
		case types.Text:
			out.strs[i] = v.strs[i]
		case types.Bool:
			if v.t.test(i) {
				out.ints[i] = 1
			}
		default:
			out.ints[i] = v.ints[i]
		}
	}
	return out
}
