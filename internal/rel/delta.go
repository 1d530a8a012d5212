package rel

import (
	"slices"
	"sort"

	"repro/internal/expr"
	"repro/internal/types"
)

// Tuple-level deltas: the currency of incremental view maintenance. A
// table write is described as a small list of DeltaOps; each maintained
// operator (restrict, project, the hash equi-join)
// transforms an input delta into an output delta plus an updated output
// relation, touching O(delta) rows instead of rescanning. Every function
// here is conservative: whenever the incremental result could differ from
// a full recompute — schema drift, row-order perturbation, anything the
// operator cannot maintain in place — it reports !ok and the caller falls
// back to full refiring. The differential tests assert byte-identical
// outputs against the full operators on randomized write sequences.

// DeltaKind classifies one tuple-level change.
type DeltaKind int

// Delta kinds. Appends land at the end of the relation; updates replace
// one row in place. Deletes are not represented — the db layer has no
// tuple delete, and any unrepresentable change simply skips the delta
// path.
const (
	DeltaAppend DeltaKind = iota
	DeltaUpdate
)

// String names the kind for diagnostics.
func (k DeltaKind) String() string {
	switch k {
	case DeltaAppend:
		return "append"
	case DeltaUpdate:
		return "update"
	}
	return "unknown"
}

// DeltaOp is one tuple-level change against a relation version. Row is
// the row ordinal in the relation the op produces (for an append, the new
// last row). Tuple is the row's content after the op; Old is the content
// before it (updates only). Both record the tuples as of the write, so a
// batch of ops replays sequentially without consulting intermediate
// relation versions.
type DeltaOp struct {
	Kind  DeltaKind
	Row   int
	Tuple []types.Value
	Old   []types.Value
}

// TupleDelta is an ordered batch of changes taking one relation version
// to another.
type TupleDelta struct {
	Ops []DeltaOp
}

func deltaOps(d *TupleDelta) []DeltaOp {
	if d == nil {
		return nil
	}
	return d.Ops
}

func countAppends(d *TupleDelta) int {
	n := 0
	for _, op := range deltaOps(d) {
		if op.Kind == DeltaAppend {
			n++
		}
	}
	return n
}

// FusedOp is one restrict (Pred set) or project (Project set) step, the
// unit FusedDelta maintains. Exactly one field is set.
type FusedOp struct {
	Pred    expr.Node
	Project []string
}

// FusedDelta incrementally maintains the output of one restrict or
// project step. newIn is the input relation AFTER the delta d has been
// applied to it (d's rows index newIn); oldOut is the memoized output
// over the previous version. A projection is a column map of newIn, so
// its output is rebuilt outright and d passes through projected. A
// restriction extends or keeps oldOut's selection: an appended row that
// passes joins the end of the selection, and an update that keeps a row
// in (or out) changes nothing but the values the new store holds. On
// success it returns the new output, the step's own output delta, and
// ok=true; any situation the incremental path cannot handle — predicate
// errors, membership changes that would insert or delete interior rows,
// a memo that is not a selection of newIn's store — returns ok=false and
// the caller refires the full step.
//
// oldOut is never mutated: the new output views newIn's store, and its
// selection only grows past oldOut's length (invisible to holders of the
// old slice header), so each memo has one successor.
func FusedDelta(newIn, oldOut *Relation, op FusedOp, d *TupleDelta) (*Relation, *TupleDelta, bool, error) {
	if newIn == nil || oldOut == nil {
		return nil, nil, false, nil
	}
	inLen := newIn.Len() - countAppends(d)
	if op.Project != nil {
		out, err := Project(newIn, op.Project)
		if err != nil || !out.schema.Equal(oldOut.schema) || oldOut.Len() != inLen {
			return nil, nil, false, nil
		}
		outOps := make([]DeltaOp, 0, len(deltaOps(d)))
		for _, o := range deltaOps(d) {
			if len(o.Tuple) != newIn.schema.Len() || (o.Kind == DeltaUpdate && len(o.Old) != len(o.Tuple)) {
				return nil, nil, false, nil
			}
			o.Tuple = projectRow(o.Tuple, newIn, out)
			if o.Old != nil {
				o.Old = projectRow(o.Old, newIn, out)
			}
			outOps = append(outOps, o)
		}
		return out, &TupleDelta{Ops: outOps}, true, nil
	}
	// The memo must select store rows of newIn's store lineage, under the
	// same columns and provenance indirection, with the same shape.
	if op.Pred == nil || oldOut.provBase == nil || oldOut.provRows != nil || newIn.provRows != nil ||
		!slices.Equal(oldOut.colMap, newIn.colMap) || !newIn.schema.Equal(oldOut.schema) || inLen < 0 {
		return nil, nil, false, nil
	}
	if err := expr.CheckPredicate(op.Pred, newIn); err != nil {
		// The full step would fail the same way; let the refire surface it.
		return nil, nil, false, nil
	}
	keep := oldOut.sel
	if keep == nil {
		keep = identityMap(oldOut.Len())
	}
	if len(keep) > 0 && keep[len(keep)-1] >= newIn.cols.rows {
		// The memo selects past the store's end, so it cannot be a view
		// over the previous version of newIn's store.
		return nil, nil, false, nil
	}
	x := &boundExpr{node: op.Pred, shape: newIn}
	var outOps []DeltaOp
	var env rowEnv
	sorted := false
	for _, o := range deltaOps(d) {
		if len(o.Tuple) != newIn.schema.Len() {
			return nil, nil, false, nil
		}
		pass, err := x.test(o.Tuple, &env)
		if err != nil {
			return nil, nil, false, nil
		}
		switch o.Kind {
		case DeltaAppend:
			if o.Row != inLen {
				return nil, nil, false, nil
			}
			inLen++
			if pass {
				keep = append(keep, newIn.storeRow(o.Row))
				outOps = append(outOps, DeltaOp{Kind: DeltaAppend, Row: len(keep) - 1, Tuple: slices.Clone(o.Tuple)})
			}
		case DeltaUpdate:
			if o.Row < 0 || o.Row >= inLen || len(o.Old) != len(o.Tuple) {
				return nil, nil, false, nil
			}
			if !sorted {
				// Membership lookups binary-search the selection; a restrict
				// over an ascending input keeps store rows ascending, but
				// verify once rather than assume.
				if !sort.IntsAreSorted(keep) {
					return nil, nil, false, nil
				}
				sorted = true
			}
			j, member := slices.BinarySearch(keep, newIn.storeRow(o.Row))
			switch {
			case member && pass:
				outOps = append(outOps, DeltaOp{Kind: DeltaUpdate, Row: j, Tuple: slices.Clone(o.Tuple), Old: slices.Clone(o.Old)})
			case !member && !pass:
				// Was filtered out, still is: nothing to do.
			default:
				// The update flips predicate membership — an interior
				// insert or delete the selection cannot absorb in place.
				return nil, nil, false, nil
			}
		default:
			return nil, nil, false, nil
		}
	}
	if newIn.sel == nil && len(keep) == newIn.Len() {
		keep = nil
	}
	out := view(newIn.derive(newIn.schema, true), newIn, keep, newIn.colMap)
	return out, &TupleDelta{Ops: outOps}, true, nil
}

// projectRow maps a tuple of in onto the stored columns of out, a
// projection of in.
func projectRow(t []types.Value, in, out *Relation) []types.Value {
	nt := make([]types.Value, out.schema.Len())
	for j := range nt {
		nt[j] = t[in.schema.Index(out.schema.Col(j).Name)]
	}
	return nt
}

// JoinState is the maintained state of a hash equi-join: the build side
// exactly as hashJoin constructed it, a probe-side index for the reverse
// lookup build appends need, the (probeRow, buildRow) pair behind every
// output tuple in emission order, and the output's tuple store. Built once by replaying the
// join, it then absorbs tuple deltas in O(affected pairs) per frame,
// interpreting the predicate over each affected pair.
//
// A JoinState that returns ok=false from Apply is poisoned — its indexes
// may be partially advanced — and must be discarded along with the memo
// it maintained.
type JoinState struct {
	*hashBuild
	shell *Relation  // output shape: schema + surviving computed attrs
	pred  *boundExpr // the predicate over shell's tuples
	tuple []types.Value
	env   rowEnv

	probeIdx   map[valueKey][]int // key -> probe rows, in probe-row order
	pairs      [][2]int           // (probeRow, buildRow) per output tuple, probe-major
	out        *colStore
	lLen, rLen int
}

// BuildJoinState reconstructs maintainable join state from the inputs and
// memoized output of a previous full hash join. It reruns the hash join
// to recover which (probe, build) pair produced each output row and
// requires exact agreement with the memo; any join a hash strategy would
// not have handled — no equi-conjunct, predicate errors — reports !ok.
func BuildJoinState(oldL, oldR, oldOut *Relation, pred expr.Node) (*JoinState, bool) {
	if oldL == nil || oldR == nil || oldOut == nil || pred == nil {
		return nil, false
	}
	shell, rRename, err := joinShape(oldL, oldR)
	if err != nil {
		return nil, false
	}
	if err := expr.CheckPredicate(pred, shell); err != nil {
		return nil, false
	}
	if !shell.schema.Equal(oldOut.schema) || oldOut.sel != nil || oldOut.colMap != nil {
		return nil, false
	}
	la, ra, ok := equiKey(pred, oldL, oldR, rRename)
	if !ok {
		return nil, false
	}
	pf, err := newPairFilter(shell, pred, oldL, oldR)
	if err != nil {
		return nil, false
	}
	defer pf.f.release()
	s := &JoinState{
		shell: shell,
		pred:  &boundExpr{node: pred, shape: shell},
		lLen:  oldL.Len(),
		rLen:  oldR.Len(),
	}
	s.hashBuild, err = hashJoin(oldL, oldR, oldL.schema.Index(la), oldR.schema.Index(ra), pf)
	if err != nil || len(pf.lrows) != oldOut.Len() {
		return nil, false
	}
	s.pairs = make([][2]int, len(pf.lrows))
	for i, lrow := range pf.lrows {
		if s.buildIsRight {
			s.pairs[i] = [2]int{lrow, pf.rrows[i]}
		} else {
			s.pairs[i] = [2]int{pf.rrows[i], lrow}
		}
	}
	_, probe := s.inputs(oldL, oldR)
	s.probeIdx = make(map[valueKey][]int)
	prd := probe.reader()
	for row, n := 0, probe.Len(); row < n; row++ {
		v := prd.value(row, s.pi)
		if v.IsNull() {
			continue
		}
		k := keyOf(v)
		s.probeIdx[k] = append(s.probeIdx[k], row)
	}
	if prd.Err() != nil {
		return nil, false
	}
	s.out = oldOut.cols
	return s, true
}

// Apply advances the join state by one batch of input deltas (either may
// be nil), returning the new output relation and its delta. The patched
// output must be byte-identical to a full re-join of the new inputs;
// whenever that cannot be guaranteed by appends and in-place row
// replacements alone — build-side updates, key changes, pairs that would
// interleave with existing output rows, a build-side flip — Apply
// reports ok=false, after which the state is poisoned and must be
// discarded.
func (s *JoinState) Apply(newL, newR *Relation, dl, dr *TupleDelta) (*Relation, *TupleDelta, bool) {
	if newL == nil || newR == nil {
		return nil, nil, false
	}
	if newL.Len() != s.lLen+countAppends(dl) || newR.Len() != s.rLen+countAppends(dr) {
		return nil, nil, false
	}
	// A full recompute at the new sizes must choose the same build side,
	// or output row order changes wholesale.
	if (newL.Len() < newR.Len()) == s.buildIsRight {
		return nil, nil, false
	}
	dbuild, dprobe := dr, dl
	buildLen, probeLen := s.rLen, s.lLen
	if !s.buildIsRight {
		dbuild, dprobe = dl, dr
		buildLen, probeLen = s.lLen, s.rLen
	}
	buildRel, probeRel := s.inputs(newL, newR)
	out := s.out
	pairs := s.pairs
	var outOps []DeltaOp
	prd := probeRel.reader()
	brd := buildRel.reader()

	// Phase 1 — build-side changes. New build rows may only extend their
	// bucket tails; if any existing probe row would pair with a new build
	// row (checked against the probe side's final content), the new
	// output rows would interleave with existing ones, so fall back.
	// Build-side updates would rewrite bucket content under existing
	// pairs; punt those entirely.
	for _, op := range deltaOps(dbuild) {
		if op.Kind != DeltaAppend {
			return nil, nil, false
		}
		if op.Row != buildLen || len(op.Tuple) != buildRel.schema.Len() {
			return nil, nil, false
		}
		brow := buildLen
		buildLen++
		v := op.Tuple[s.bi]
		if v.IsNull() {
			continue
		}
		if s.bf && isNaN(v) {
			return nil, nil, false
		}
		k := keyOf(v)
		for _, prow := range s.probeIdx[k] {
			lt, rt := s.sides(prd.at(prow), op.Tuple)
			if prd.Err() != nil {
				return nil, nil, false
			}
			keep, err := s.keep(lt, rt)
			if err != nil || keep {
				return nil, nil, false
			}
		}
		s.table[k] = append(s.table[k], brow)
	}

	// Phase 2 — probe-side changes, in commit order. Appends probe the
	// (already final) build table and emit at the end, preserving
	// probe-major order; updates may only rewrite their own pairs in
	// place, which requires the updated row's kept-pair set to be exactly
	// what it was.
	for _, op := range deltaOps(dprobe) {
		switch op.Kind {
		case DeltaAppend:
			if op.Row != probeLen || len(op.Tuple) != probeRel.schema.Len() {
				return nil, nil, false
			}
			prow := probeLen
			probeLen++
			v := op.Tuple[s.pi]
			if v.IsNull() {
				continue
			}
			if s.pf && isNaN(v) {
				return nil, nil, false
			}
			k := keyOf(v)
			for _, brow := range s.table[k] {
				lt, rt := s.sides(op.Tuple, brd.at(brow))
				if brd.Err() != nil {
					return nil, nil, false
				}
				keep, err := s.keep(lt, rt)
				if err != nil {
					return nil, nil, false
				}
				if keep {
					nt := joinTuple(lt, rt)
					if out, err = out.withAppend(nt); err != nil {
						return nil, nil, false
					}
					pairs = append(pairs, [2]int{prow, brow})
					outOps = append(outOps, DeltaOp{Kind: DeltaAppend, Row: out.rows - 1, Tuple: nt})
				}
			}
			s.probeIdx[k] = append(s.probeIdx[k], prow)
		case DeltaUpdate:
			if op.Row < 0 || op.Row >= probeLen ||
				len(op.Tuple) != probeRel.schema.Len() || len(op.Old) != probeRel.schema.Len() {
				return nil, nil, false
			}
			// A key change moves the row between buckets: its pairs would
			// be deleted and new interior pairs inserted.
			if keyOf(op.Old[s.pi]) != keyOf(op.Tuple[s.pi]) {
				return nil, nil, false
			}
			k := keyOf(op.Tuple[s.pi])
			if op.Tuple[s.pi].IsNull() {
				// Null keys never join; null → null is a no-op.
				continue
			}
			lo := sort.Search(len(pairs), func(i int) bool { return pairs[i][0] >= op.Row })
			hi := sort.Search(len(pairs), func(i int) bool { return pairs[i][0] > op.Row })
			// Recompute the row's kept set over its bucket, in bucket
			// order — the order its pairs were emitted in. Any deviation
			// from the existing pair list is an interior insert/delete.
			j := lo
			var newTuples [][]types.Value
			for _, brow := range s.table[k] {
				lt, rt := s.sides(op.Tuple, brd.at(brow))
				if brd.Err() != nil {
					return nil, nil, false
				}
				keep, err := s.keep(lt, rt)
				if err != nil {
					return nil, nil, false
				}
				if keep {
					if j >= hi || pairs[j][1] != brow {
						return nil, nil, false
					}
					newTuples = append(newTuples, joinTuple(lt, rt))
					j++
				}
			}
			if j != hi {
				return nil, nil, false
			}
			for idx, nt := range newTuples {
				pos := lo + idx
				old, err := out.tuple(pos)
				if err == nil {
					out, err = out.withRow(pos, nt)
				}
				if err != nil {
					return nil, nil, false
				}
				outOps = append(outOps, DeltaOp{Kind: DeltaUpdate, Row: pos, Tuple: nt, Old: old})
			}
		default:
			return nil, nil, false
		}
	}

	newOut := &Relation{schema: s.shell.schema, computed: s.shell.computed, cols: out}
	s.out = out
	s.pairs = pairs
	s.lLen, s.rLen = newL.Len(), newR.Len()
	return newOut, &TupleDelta{Ops: outOps}, true
}

// keep reports whether the pair (lt, rt) satisfies the join predicate.
func (s *JoinState) keep(lt, rt []types.Value) (bool, error) {
	s.tuple = append(append(s.tuple[:0], lt...), rt...)
	return s.pred.test(s.tuple, &s.env)
}
