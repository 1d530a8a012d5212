package rel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// Project is standard database projection (Figure 3): the result keeps the
// named stored columns in the given order. Computed attributes whose
// references survive are carried along; others are dropped, matching the
// paper's note that projecting out fields a display function needs changes
// the visualization (the default display adapts). The result views the
// input's store under a new column map and reads no tuple.
func Project(r *Relation, names []string) (*Relation, error) {
	schema, err := r.schema.project(names)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(names))
	for j, name := range names {
		cols[j] = r.storeCol(r.schema.Index(name))
	}
	return view(r.derive(schema, true), r, r.sel, cols), nil
}

// Restrict filters a relation to tuples satisfying a predicate (Figure 3)
// with one scan, and returns the survivors as a selection of the input's
// store.
func Restrict(r *Relation, pred expr.Node) (*Relation, error) {
	if err := expr.CheckPredicate(pred, r); err != nil {
		return nil, err
	}
	obs.Add(obs.RelRestrictRowsIn, int64(r.Len()))
	obs.Inc(obs.RelRestrictScans)
	rows, err := scanRows(r, []expr.Node{pred})
	if err != nil {
		return nil, fmt.Errorf("rel: restrict: %w", err)
	}
	out := keepRows(r, rows[0])
	obs.Add(obs.RelRestrictRowsOut, int64(out.Len()))
	return out, nil
}

// Sample produces a random subset of the input: each tuple is retained
// with probability p (Figure 3). The paper motivates Sample as a way to
// improve interactive response by reducing data volume. The RNG is seeded
// so visualizations are reproducible; callers wanting variation pass
// different seeds.
func Sample(r *Relation, p float64, seed int64) (*Relation, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("rel: sample probability %g out of [0,1]", p)
	}
	obs.Inc(obs.RelSamples)
	rng := rand.New(rand.NewSource(seed))
	var rows []int
	for i, n := 0, r.Len(); i < n; i++ {
		if rng.Float64() < p {
			rows = append(rows, i)
		}
	}
	return keepRows(r, rows), nil
}

// JoinStrategy selects the join algorithm behind the Join box.
type JoinStrategy int

// Join strategies. JoinAuto uses a hash join when the predicate is a
// conjunction containing an equality between one attribute of each input,
// and otherwise falls back to a nested loop. Both hash strategies fall
// back to the nested loop when a key value is NaN.
const (
	JoinAuto JoinStrategy = iota
	JoinHash
	JoinNestedLoop
)

// joinShape builds the output shape of a join of l and r: l's stored
// columns followed by r's (collisions disambiguated with a "_r" suffix),
// with computed attributes of both inputs carried where their references
// survive. The returned map takes r's original column names to their
// disambiguated names in the join scope.
func joinShape(l, r *Relation) (*Relation, map[string]string, error) {
	rRename := make(map[string]string)
	cols := l.schema.Columns()
	for _, c := range r.schema.Columns() {
		name := c.Name
		if l.schema.Has(name) {
			name = name + "_r"
			for l.schema.Has(name) || r.schema.Has(name) {
				name += "_"
			}
			rRename[c.Name] = name
		}
		cols = append(cols, Column{Name: name, Kind: c.Kind})
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, nil, fmt.Errorf("rel: join: %w", err)
	}

	out := New("", schema)
	// Carry computed attributes that still resolve.
	for _, src := range [][]Computed{l.computed, r.computed} {
		for _, c := range src {
			ok := !out.HasAttr(c.Name)
			for _, ref := range expr.Refs(c.Expr) {
				if !out.HasAttr(ref) && !schema.Has(ref) {
					ok = false
					break
				}
			}
			if ok {
				out.computed = append(out.computed, c)
			}
		}
	}
	return out, rRename, nil
}

// Join computes the theta-join of l and r under pred (Figure 3). The
// output schema is l's stored columns followed by r's; name collisions are
// disambiguated by suffixing r's columns with "_r" (and the predicate sees
// the disambiguated names). Computed attributes of both inputs are carried
// over where their references survive. The hash buckets, or the nested
// loop, hand candidate pairs to a pairFilter, which evaluates the
// predicate over them a block at a time; the survivors are then gathered
// into the output column by column.
func Join(l, r *Relation, pred expr.Node, strategy JoinStrategy) (*Relation, error) {
	out, rRename, err := joinShape(l, r)
	if err != nil {
		return nil, err
	}
	if err := expr.CheckPredicate(pred, out); err != nil {
		return nil, fmt.Errorf("rel: join predicate: %w", err)
	}
	if l, err = l.resident(); err == nil {
		r, err = r.resident()
	}
	if err != nil {
		return nil, fmt.Errorf("rel: join: %w", err)
	}
	pf, err := newPairFilter(out, pred, l, r)
	if err != nil {
		return nil, fmt.Errorf("rel: join: %w", err)
	}
	defer pf.f.release()
	if err := pf.join(l, r, pred, rRename, strategy); err != nil {
		return nil, fmt.Errorf("rel: join: %w", err)
	}
	out.cols, err = gatherStore(out.schema, part{l.cols, l.pick(pf.lrows), l.storeCols()}, part{r.cols, r.pick(pf.rrows), r.storeCols()})
	if err != nil {
		return nil, fmt.Errorf("rel: join: %w", err)
	}
	obs.Add(obs.RelJoinRowsOut, int64(out.Len()))
	return out, nil
}

// join runs the strategy, leaving the kept pairs in lrows and rrows.
func (pf *pairFilter) join(l, r *Relation, pred expr.Node, rRename map[string]string, strategy JoinStrategy) error {
	if strategy == JoinAuto || strategy == JoinHash {
		if la, ra, ok := equiKey(pred, l, r, rRename); ok {
			_, err := hashJoin(l, r, l.schema.Index(la), r.schema.Index(ra), pf)
			if err == nil {
				obs.Inc(obs.RelJoinHash)
			}
			if !errors.Is(err, errNaNKey) {
				return err
			}
			// A NaN key: the nested loop filters every pair afresh.
			pf.lrows, pf.rrows = pf.lrows[:0], pf.rrows[:0]
		} else if strategy == JoinHash {
			return fmt.Errorf("hash strategy requires an equality predicate between the inputs")
		}
	}
	obs.Inc(obs.RelJoinNestedLoop)
	for i, ln := 0, l.Len(); i < ln; i++ {
		for j, rn := 0, r.Len(); j < rn; j++ {
			if err := pf.add(i, j); err != nil {
				return err
			}
		}
	}
	return pf.flush()
}

// pairFilter evaluates a join predicate over candidate (left, right) row
// pairs in blocks of up to DefaultChunkRows, in the order they are
// added. A block gathers only the columns the predicate reads, directly
// or through computed attributes, into one chunk, and the scan driver's
// chunkFilter selects the pairs that pass: kernels first, the
// interpreter for rows kernels decline. lrows and rrows collect the
// survivors in the order their pairs were added.
type pairFilter struct {
	f            *chunkFilter
	l, r         *Relation
	lp, rp       part // the block's store rows and columns of l and of r
	block        *chunkBuilder
	lc, rc       []int // the pending block's candidate pairs
	keep         [][]int
	lrows, rrows []int
}

// newPairFilter prepares pred, checked against the join shape out of l
// and r, for filtering pairs. The kernels compile once here, counting one
// rel.kernel_scans for the join.
func newPairFilter(out *Relation, pred expr.Node, l, r *Relation) (*pairFilter, error) {
	names := readCols(out, pred)
	pf := &pairFilter{l: l, r: r, lp: part{src: l.cols}, rp: part{src: r.cols}, keep: make([][]int, 1)}
	for _, name := range names {
		if i, lw := out.schema.Index(name), l.schema.Len(); i < lw {
			pf.lp.colMap = append(pf.lp.colMap, l.storeCol(i))
		} else {
			pf.rp.colMap = append(pf.rp.colMap, r.storeCol(i-lw))
		}
	}
	// The block's columns: l's the predicate reads, then r's.
	schema, err := out.schema.project(names)
	if err != nil {
		return nil, err
	}
	bound := []*boundExpr{{node: pred, shape: out.derive(schema, true)}}
	pf.f = newFilter(bound, kernels(bound))
	pf.block = newChunkBuilder(schema, 0)
	return pf, nil
}

// add queues the candidate pair (lrow, rrow), filtering the block once
// it is full.
func (pf *pairFilter) add(lrow, rrow int) error {
	pf.lc, pf.rc = append(pf.lc, lrow), append(pf.rc, rrow)
	pf.lp.rows = append(pf.lp.rows, pf.l.storeRow(lrow))
	pf.rp.rows = append(pf.rp.rows, pf.r.storeRow(rrow))
	if len(pf.lc) == DefaultChunkRows {
		return pf.flush()
	}
	return nil
}

// flush filters the pending block, appending its survivors to lrows and
// rrows. The block's chunk is rebuilt in place each time.
func (pf *pairFilter) flush() error {
	if len(pf.lc) == 0 {
		return nil
	}
	if err := pf.block.refill(pf.lp, pf.rp); err != nil {
		return err
	}
	pf.keep[0] = pf.keep[0][:0]
	if err := pf.f.keep(pf.block.c, 0, pf.keep); err != nil {
		return err
	}
	for _, i := range pf.keep[0] {
		pf.lrows, pf.rrows = append(pf.lrows, pf.lc[i]), append(pf.rrows, pf.rc[i])
	}
	pf.lc, pf.rc = pf.lc[:0], pf.rc[:0]
	pf.lp.rows, pf.rp.rows = pf.lp.rows[:0], pf.rp.rows[:0]
	return nil
}

// joinTuple materializes one output row from a kept pair.
func joinTuple(lt, rt []types.Value) []types.Value {
	nt := make([]types.Value, 0, len(lt)+len(rt))
	return append(append(nt, lt...), rt...)
}

// equiKey finds an equality conjunct "lcol = rcol" usable as a hash key.
// rRename maps r's original column names to their disambiguated names in
// the join scope; the returned ra is r's ORIGINAL column name.
func equiKey(pred expr.Node, l, r *Relation, rRename map[string]string) (la, ra string, ok bool) {
	b, isBin := pred.(*expr.Binary)
	if !isBin {
		return "", "", false
	}
	if b.Op == "and" {
		if la, ra, ok = equiKey(b.L, l, r, rRename); ok {
			return la, ra, true
		}
		return equiKey(b.R, l, r, rRename)
	}
	if b.Op != "=" {
		return "", "", false
	}
	lr, lok := b.L.(*expr.Ref)
	rr, rok := b.R.(*expr.Ref)
	if !lok || !rok {
		return "", "", false
	}
	// Resolve each ref to a side. A ref names r's column either by its
	// original name (if unambiguous) or the renamed form.
	resolve := func(name string) (side int, col string) {
		if l.schema.Has(name) && r.schema.Has(name) {
			// Ambiguous original name: in the join scope it denotes l's
			// column; r's is reachable only via the rename.
			return 0, name
		}
		if l.schema.Has(name) {
			return 0, name
		}
		if r.schema.Has(name) {
			return 1, name
		}
		for orig, renamed := range rRename {
			if renamed == name {
				return 1, orig
			}
		}
		return -1, ""
	}
	s1, c1 := resolve(lr.Name)
	s2, c2 := resolve(rr.Name)
	switch {
	case s1 == 0 && s2 == 1:
		return c1, c2, true
	case s1 == 1 && s2 == 0:
		return c2, c1, true
	}
	return "", "", false
}

// hashBuild is a hash equi-join's build side: which input it is and the
// bucket table over its keys.
type hashBuild struct {
	bi, pi       int  // key ordinals in build and probe
	bf, pf       bool // build, probe key column is Float, so may hold NaN
	buildIsRight bool
	table        map[valueKey][]int // key -> build rows, in build-row order
}

// errNaNKey reports a NaN join key. NaN compares equal to every number
// (types.Value.Compare), which no hash bucket can express, so Join runs
// the nested loop instead and JoinState declines.
var errNaNKey = errors.New("rel: NaN join key")

// isNaN reports whether key value v is NaN; callers gate it on the key
// column being Float, so Int-keyed joins never test.
func isNaN(v types.Value) bool {
	f, _ := v.AsFloat()
	return math.IsNaN(f)
}

// inputs orders (l, r) into (build, probe).
func (h *hashBuild) inputs(l, r *Relation) (build, probe *Relation) {
	if h.buildIsRight {
		return r, l
	}
	return l, r
}

// sides orders a (probe, build) tuple pair into (left, right).
func (h *hashBuild) sides(ptup, btup []types.Value) (lt, rt []types.Value) {
	if h.buildIsRight {
		return ptup, btup
	}
	return btup, ptup
}

// hashJoin runs a hash equi-join on key ordinals li of l and ri of r. It
// builds on the right unless the left is strictly smaller, buckets the
// build side's non-null keys in row order, then probes in probe-row
// order, adding every bucket pair to pf — probe-major, bucket order
// within a probe row — and filters the last block. It returns the build
// side for incremental maintenance (JoinState), or errNaNKey on a NaN
// key once the pairs added before it are filtered, so their errors come
// first.
func hashJoin(l, r *Relation, li, ri int, pf *pairFilter) (*hashBuild, error) {
	h := &hashBuild{bi: ri, pi: li, buildIsRight: true}
	if l.Len() < r.Len() {
		h.bi, h.pi, h.buildIsRight = li, ri, false
	}
	build, probe := h.inputs(l, r)
	h.bf = build.schema.Col(h.bi).Kind == types.Float
	h.pf = probe.schema.Col(h.pi).Kind == types.Float
	h.table = make(map[valueKey][]int, build.Len())
	brd := build.reader()
	for row, n := 0, build.Len(); row < n; row++ {
		v := brd.value(row, h.bi)
		if v.IsNull() {
			continue
		}
		if h.bf && isNaN(v) {
			return nil, errNaNKey
		}
		k := keyOf(v)
		h.table[k] = append(h.table[k], row)
	}
	prd := probe.reader()
	for prow, n := 0, probe.Len(); prow < n; prow++ {
		v := prd.value(prow, h.pi)
		if v.IsNull() {
			continue
		}
		if h.pf && isNaN(v) {
			if err := pf.flush(); err != nil {
				return nil, err
			}
			return nil, errNaNKey
		}
		for _, brow := range h.table[keyOf(v)] {
			lrow, rrow := prow, brow
			if !h.buildIsRight {
				lrow, rrow = brow, prow
			}
			if err := pf.add(lrow, rrow); err != nil {
				return nil, err
			}
		}
	}
	if err := pf.flush(); err != nil {
		return nil, err
	}
	for _, rd := range []*rowReader{&brd, &prd} {
		if err := rd.Err(); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// valueKey is an allocation-free comparable canonical form of a value for
// hash bucketing. Int and Float share a key when numerically equal
// (mirroring Value.Compare); Date keeps its own kind so 1996-05-12 never
// buckets with the int of its day count; text rides in str. NaN and
// negative zero are canonicalized so map equality (==) matches numeric
// equality.
type valueKey struct {
	kind types.Kind
	num  float64
	str  string
}

// keyOf canonicalizes a value into its bucketing key.
func keyOf(v types.Value) valueKey {
	switch v.Kind() {
	case types.Int, types.Float:
		f, _ := v.AsFloat()
		if f == 0 {
			f = 0 // fold -0 into +0; they compare equal
		}
		if math.IsNaN(f) {
			return valueKey{kind: types.Float, str: "NaN"} // NaN != NaN under ==
		}
		return valueKey{kind: types.Float, num: f}
	case types.Date:
		return valueKey{kind: types.Date, num: float64(v.DateDays())}
	case types.Bool:
		if v.Bool() {
			return valueKey{kind: types.Bool, num: 1}
		}
		return valueKey{kind: types.Bool}
	case types.Text:
		return valueKey{kind: types.Text, str: v.Text()}
	}
	return valueKey{} // null
}

// appendKeyBytes appends a canonical byte encoding of v's valueKey, for
// composite (whole-tuple) keys: a kind tag, then either a length-prefixed
// string (Text) or 8 canonical float bits. The encoding is a prefix code,
// so concatenated keys cannot realign across value boundaries.
func appendKeyBytes(b []byte, v types.Value) []byte {
	k := keyOf(v)
	b = append(b, byte(k.kind))
	if k.kind == types.Text {
		b = binary.AppendUvarint(b, uint64(len(k.str)))
		return append(b, k.str...)
	}
	f := k.num
	if k.str != "" {
		f = math.NaN() // canonical NaN bits for the NaN key
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	return append(b, buf[:]...)
}

// Sort returns the relation ordered by the named attribute (stored or
// computed), ascending or descending, as a selection of the input's
// store. Used by default displays and by the elevation map's
// drawing-order view.
func Sort(r *Relation, attr string, descending bool) (*Relation, error) {
	if !r.HasAttr(attr) {
		return nil, fmt.Errorf("rel: sort: no attribute %q", attr)
	}
	obs.Inc(obs.RelSorts)
	keys := make([]types.Value, r.Len())
	cu := r.NewCursor()
	for i := range keys {
		cu.Seek(i)
		keys[i] = cu.Attr(attr)
	}
	if err := cu.Err(); err != nil {
		return nil, fmt.Errorf("rel: sort on %q: %w", attr, err)
	}
	rows := identityMap(len(keys))
	var sortErr error
	sort.SliceStable(rows, func(a, b int) bool {
		c, err := keys[rows[a]].Compare(keys[rows[b]])
		if err != nil && sortErr == nil {
			sortErr = err
		}
		if descending {
			return c > 0
		}
		return c < 0
	})
	if sortErr != nil {
		return nil, fmt.Errorf("rel: sort on %q: %w", attr, sortErr)
	}
	return view(r.derive(r.schema, true), r, r.pick(rows), r.colMap), nil
}

// Union concatenates relations with equal schemas.
func Union(rels ...*Relation) (*Relation, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("rel: union of nothing")
	}
	for _, r := range rels[1:] {
		if !r.schema.Equal(rels[0].schema) {
			return nil, fmt.Errorf("rel: union: schema mismatch: %s vs %s", rels[0].schema, r.schema)
		}
	}
	out := rels[0].derive(rels[0].schema, true)
	sb := &storeBuilder{schema: out.schema}
	for _, r := range rels {
		rd := r.reader()
		for i, n := 0, r.Len(); i < n; i++ {
			if err := sb.appendRow(rd.at(i)); err != nil {
				return nil, fmt.Errorf("rel: union: %w", err)
			}
		}
		if err := rd.Err(); err != nil {
			return nil, fmt.Errorf("rel: union: %w", err)
		}
	}
	out.cols = sb.finish()
	return out, nil
}

// Partition splits a relation by a list of predicates; tuple membership is
// decided by the first predicate that matches (tuples matching none are
// dropped). This is the relational engine beneath Replicate (Section 7.4)
// and the multi-output Partition box. One scan routes every tuple, and
// each part is a selection of the input's store.
func Partition(r *Relation, preds []expr.Node) ([]*Relation, error) {
	for i, p := range preds {
		if err := expr.CheckPredicate(p, r); err != nil {
			return nil, fmt.Errorf("rel: partition predicate %d: %w", i, err)
		}
	}
	rows, err := scanRows(r, preds)
	if err != nil {
		return nil, fmt.Errorf("rel: partition: %w", err)
	}
	outs := make([]*Relation, len(preds))
	for i := range outs {
		outs[i] = keepRows(r, rows[i])
	}
	return outs, nil
}

// MapColumn materializes a stored column from an expression evaluated per
// tuple, the engine beneath Set/Scale/Translate Attribute applied to a
// stored attribute. The column's kind follows the expression's type. A
// kernel computes each chunk's values as one vector; the interpreter
// evaluates the rows the kernel flags with an error, ascending, so the
// first error reported is the lowest row's. Output chunks share every
// other column's lanes with the input's chunks.
func MapColumn(r *Relation, col string, def expr.Node) (*Relation, error) {
	ci := r.schema.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("rel: map column: no stored column %q", col)
	}
	k, err := expr.Check(def, r)
	if err != nil {
		return nil, fmt.Errorf("rel: map column %q: %w", col, err)
	}
	cols := r.schema.Columns()
	cols[ci].Kind = k
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	out := r.derive(schema, true)
	// A relation viewing its store whole maps store chunk by store chunk;
	// one with a selection maps blocks of its rows gathered into chunks.
	n, cs := r.Len(), r.cols
	x := &boundExpr{node: def, shape: r, colMap: r.colMap}
	chunkRows, blocks, all := cs.chunkRows, len(cs.slots), r.storeCols()
	if r.sel != nil {
		x.colMap, chunkRows, blocks = nil, DefaultChunkRows, (n+DefaultChunkRows-1)/DefaultChunkRows
	}
	var prog kfn
	if !compileOff.Load() {
		if fn, kind, ok := kernelCompile(x); ok && kind == k {
			prog = fn
			obs.Inc(obs.RelKernelScans)
		}
	}
	slots := make([]*chunkSlot, blocks)
	err = runChunks(blocks, min(scanChunks(n), blocks), func(_, lo, hi int) error {
		var kc *kctx
		if prog != nil {
			kc = kctxPool.Get().(*kctx)
			defer func() { kc.c = nil; clear(kc.memo); kctxPool.Put(kc) }()
		}
		var env rowEnv
		var t []types.Value
		for b := lo; b < hi; b++ {
			ck, base, err := mapBlock(r, b, chunkRows, all)
			if err != nil {
				return err
			}
			m := ck.rows
			var vals colVec
			var check kbits // the rows to interpret; nil with a kernel: none
			if prog != nil {
				kc.reset(ck)
				v := prog(kc)
				vals, check = lane(v, k, m), v.errs
			} else {
				vals = newLane(k, m)
			}
			for i := 0; i < m; i++ {
				if prog != nil && (check == nil || !check.test(i)) {
					continue
				}
				if prog != nil {
					obs.Inc(obs.RelKernelFallback)
				}
				t = ck.DecodeRow(i, t[:0])
				v, err := x.eval(t, &env)
				if err == nil && !v.IsNull() && v.Kind() != k {
					err = fmt.Errorf("column %q wants %s, got %s", col, k, v.Kind())
				}
				if err != nil {
					return fmt.Errorf("rel: map column %q row %d: %w", col, base+i, err)
				}
				if !v.IsNull() {
					vals.store(i, v)
				}
			}
			oc := &Chunk{rows: m, cols: make([]colVec, len(all))}
			for j := range oc.cols {
				if j == ci {
					oc.cols[j] = vals
				} else if r.sel == nil {
					oc.cols[j] = ck.cols[all[j]]
				} else {
					oc.cols[j] = ck.cols[j]
				}
			}
			slots[b] = pinnedSlot(oc)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.cols = &colStore{schema: schema, slots: slots, rows: n, chunkRows: chunkRows}
	out.provBase, out.provRows = r.baseRows()
	return out, nil
}

// mapBlock returns block b of r for MapColumn, and its first tuple: the
// store chunk itself when r views its store whole, else the block's
// tuples gathered into a chunk in r's column order.
func mapBlock(r *Relation, b, chunkRows int, all []int) (*Chunk, int, error) {
	base := b * chunkRows
	if r.sel == nil {
		ck, err := r.cols.chunk(b)
		return ck, base, err
	}
	rows := r.sel[base:min(base+chunkRows, len(r.sel))]
	cb := newChunkBuilder(r.schema, len(rows))
	if err := cb.refill(part{r.cols, rows, all}); err != nil {
		return nil, 0, err
	}
	return cb.finish(), base, nil
}

// SwapColumns interchanges two stored attributes of the same type
// (Figure 5's Swap Attributes on stored columns) by swapping their names
// in the schema, which exchanges the attributes' values without touching
// tuple storage.
func SwapColumns(r *Relation, a, b string) (*Relation, error) {
	ai, bi := r.schema.Index(a), r.schema.Index(b)
	if ai < 0 || bi < 0 {
		return nil, fmt.Errorf("rel: swap: missing column %q or %q", a, b)
	}
	if r.schema.Col(ai).Kind != r.schema.Col(bi).Kind {
		return nil, fmt.Errorf("rel: swap: %q is %s but %q is %s",
			a, r.schema.Col(ai).Kind, b, r.schema.Col(bi).Kind)
	}
	cols := r.schema.Columns()
	cols[ai].Name, cols[bi].Name = cols[bi].Name, cols[ai].Name
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	// The swap only touches names, and chunks store no names, so the view
	// keeps its store and column map under the renamed schema.
	return view(r.derive(schema, true), r, r.sel, r.colMap), nil
}

// DropColumn removes one stored column (Remove Attribute on a stored
// attribute is Project over the survivors).
func DropColumn(r *Relation, col string) (*Relation, error) {
	if r.schema.Index(col) < 0 {
		return nil, fmt.Errorf("rel: drop: no stored column %q", col)
	}
	var keep []string
	for _, c := range r.schema.Columns() {
		if c.Name != col {
			keep = append(keep, c.Name)
		}
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("rel: drop: cannot remove the only column %q", col)
	}
	return Project(r, keep)
}

// DistinctValues returns the distinct values of an attribute in first-
// appearance order, used to expand an enumerated-type Replicate
// specification into predicates.
func DistinctValues(r *Relation, attr string) ([]types.Value, error) {
	if !r.HasAttr(attr) {
		return nil, fmt.Errorf("rel: no attribute %q", attr)
	}
	seen := make(map[valueKey]bool)
	var out []types.Value
	cu := r.NewCursor()
	for i := 0; i < r.Len(); i++ {
		cu.Seek(i)
		v := cu.Attr(attr)
		k := keyOf(v)
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	if err := cu.Err(); err != nil {
		return nil, fmt.Errorf("rel: distinct values of %q: %w", attr, err)
	}
	return out, nil
}

// Distinct removes duplicate tuples (full-tuple equality), keeping first
// occurrences in order, as a selection of the input's store. Computed
// attributes are carried; provenance maps each survivor to its first
// occurrence.
func Distinct(r *Relation) (*Relation, error) {
	seen := make(map[string]bool, r.Len())
	var rows []int
	var buf []byte
	rd := r.reader()
	for i := 0; i < r.Len(); i++ {
		buf = buf[:0]
		for _, v := range rd.at(i) {
			buf = appendKeyBytes(buf, v)
		}
		key := string(buf)
		if seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, i)
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("rel: distinct: %w", err)
	}
	return keepRows(r, rows), nil
}

// Limit keeps the first n tuples — the quick-look complement to Sample
// for interactive response — as a selection of the input's store.
func Limit(r *Relation, n int) (*Relation, error) {
	if n < 0 {
		return nil, fmt.Errorf("rel: limit must be non-negative, got %d", n)
	}
	return keepRows(r, identityMap(min(n, r.Len()))), nil
}
