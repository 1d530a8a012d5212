package rel

import (
	"repro/internal/expr"
)

// This file is the one scan driver. Restrict, Partition and the
// candidate pairs of Join all filter rows through a chunkFilter
// (kernel.go), which routes each row of a chunk to the first predicate
// it satisfies. A relation without a selection is filtered chunk by
// chunk straight from its store. One with a selection is filtered a
// block of selected rows at a time: the block gathers only the columns
// the predicates read, directly or through computed attributes, into
// one reused chunk, as Join's pairFilter does for candidate pairs.

// readCols returns the stored columns of shape that preds read, directly
// or through computed attributes, in schema order.
func readCols(shape *Relation, preds ...expr.Node) []string {
	need := make(map[string]bool)
	var visit func(n expr.Node)
	visit = func(n expr.Node) {
		for _, name := range expr.Refs(n) {
			if need[name] {
				continue
			}
			need[name] = true
			for _, c := range shape.computed {
				if c.Name == name {
					visit(c.Expr)
				}
			}
		}
	}
	for _, p := range preds {
		visit(p)
	}
	var names []string
	for _, c := range shape.schema.Columns() {
		if need[c.Name] {
			names = append(names, c.Name)
		}
	}
	return names
}

// scanRows routes every tuple of r to the first of preds it satisfies,
// returning per predicate the tuples routed to it, ascending. Work is
// split over the scan workers; runChunks reports the error a serial scan
// would hit first. Errors come back bare, for the caller to prefix with
// its operator.
func scanRows(r *Relation, preds []expr.Node) ([][]int, error) {
	n, cs := r.Len(), r.cols
	bound := make([]*boundExpr, len(preds))
	blocks := len(cs.slots)
	var gather part
	if r.sel == nil {
		for k, p := range preds {
			bound[k] = &boundExpr{node: p, shape: r, colMap: r.colMap}
		}
	} else {
		names := readCols(r, preds...)
		schema, err := r.schema.project(names)
		if err != nil {
			return nil, err
		}
		shape := r.derive(schema, true)
		for k, p := range preds {
			bound[k] = &boundExpr{node: p, shape: shape}
		}
		gather = part{src: cs, colMap: make([]int, len(names))}
		for j, name := range names {
			gather.colMap[j] = r.storeCol(r.schema.Index(name))
		}
		blocks = (n + DefaultChunkRows - 1) / DefaultChunkRows
	}
	progs := kernels(bound)
	per := make([][][]int, blocks)
	err := runChunks(blocks, min(scanChunks(n), blocks), func(_, lo, hi int) error {
		f := newFilter(bound, progs)
		defer f.release()
		var block *chunkBuilder
		for k := lo; k < hi; k++ {
			var ck *Chunk
			var base int
			if gather.src == nil {
				var err error
				if ck, err = cs.chunk(k); err != nil {
					return err
				}
				base, _ = cs.chunkSpan(k)
			} else {
				base = k * DefaultChunkRows
				if block == nil {
					block = newChunkBuilder(bound[0].shape.schema, 0)
				}
				p := gather
				p.rows = r.sel[base:min(base+DefaultChunkRows, n)]
				if err := block.refill(p); err != nil {
					return err
				}
				ck = block.c
			}
			per[k] = make([][]int, len(preds))
			if err := f.keep(ck, base, per[k]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(preds))
	for k := range out {
		lists := make([][]int, blocks)
		for b := range per {
			lists[b] = per[b][k]
		}
		out[k] = concatRows(lists)
	}
	return out, nil
}
