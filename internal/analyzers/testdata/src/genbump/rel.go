// Fixture for the genbump analyzer: a miniature rel.Relation with
// correct mutators, deliberately broken ones, and the shapes that must
// NOT be flagged (local-variable writes, read-only methods).
package rel

type Relation struct {
	computed map[string]int
	cols     *colStore
	sel      []int
	colMap   []int
	name     string
	gen      int64
}

func (r *Relation) bumpGen() { r.gen++ }

// Correct mutators: write + bump in the same body.

func (r *Relation) Append(v int) {
	r.cols = r.cols.withAppend()
	r.bumpGen()
}

func (r *Relation) SetComputed(name string, v int) {
	if r.computed == nil {
		r.computed = map[string]int{}
	}
	r.computed[name] = v
	r.bumpGen()
}

// Broken mutators: the deliberate bugs the analyzer must catch.

func (r *Relation) BrokenAppend(v int) { // want `BrokenAppend writes r\.cols but never calls r\.bumpGen`
	r.cols = r.cols.withAppend()
}

func (r *Relation) BrokenUpdate(i, v int) { // want `BrokenUpdate writes r\.cols but never calls r\.bumpGen`
	r.cols = r.cols.withRow(i)
}

func (r *Relation) BrokenDropComputed(name string) { // want `BrokenDropComputed writes r\.computed but never calls r\.bumpGen`
	delete(r.computed, name)
	r.computed = r.computed
}

func (rel Relation) BrokenValueWrite(v int) { // want `BrokenValueWrite writes rel\.cols but never calls rel\.bumpGen`
	rel.cols = nil
}

// The columnar store pointer is stamped data too: swapping in a new
// chunked version without a bump leaves every generation-keyed cache
// serving the old rows.

func (r *Relation) SwapCols(cs *colStore) {
	r.cols = cs
	r.bumpGen()
}

func (r *Relation) BrokenSwapCols(cs *colStore) { // want `BrokenSwapCols writes r\.cols but never calls r\.bumpGen`
	r.cols = cs
}

// A view's selection and column map choose its tuples out of the store:
// rewriting either is a data mutation like swapping the store.

func (r *Relation) Own(cs *colStore) {
	r.cols, r.sel, r.colMap = cs, nil, nil
	r.bumpGen()
}

func (r *Relation) BrokenReselect(rows []int) { // want `BrokenReselect writes r\.sel but never calls r\.bumpGen`
	r.sel = rows
}

func (r *Relation) BrokenRemap(j, c int) { // want `BrokenRemap writes r\.colMap but never calls r\.bumpGen`
	r.colMap[j] = c
}

// Shapes that must stay clean.

// Len only reads.
func (r *Relation) Len() int { return r.cols.rows }

// Clone writes a fresh relation through a local, not the receiver.
func (r *Relation) Clone() *Relation {
	out := &Relation{}
	out.cols, out.sel = r.cols, r.sel
	return out
}

// Touch writes a non-stamped field; only computed/cols need bumps.
func (r *Relation) Touch() { r.gen = r.gen }

// The name is not tuple data: renaming needs no bump.
func (r *Relation) Rename(name string) { r.name = name }

// merge is a plain function, not a method; receiver rules don't apply.
func merge(dst *Relation, src *Relation) {
	dst.cols = src.cols
}
