package rel

import (
	"cmp"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/types"
)

// genCounter issues generation stamps process-wide. Every stamp is taken
// from this one counter, so a generation identifies a unique immutable
// snapshot of some relation's visible contents: two relations never share
// a stamp, and a relation never reuses one after a mutation. Downstream
// caches (the viewer's spatial cull index, display-list memo, and
// wormhole interior cache) key on generations instead of guessing at
// staleness. Stamps start at 1; 0 means "not yet assigned".
var genCounter atomic.Int64

// nextGen returns a fresh, never-before-issued generation stamp.
func nextGen() int64 { return genCounter.Add(1) }

// Computed is an attribute defined by an expression over other attributes
// of the same relation — the paper's "methods defining additional
// attributes" on an object-relational table (Section 2). Location
// attributes are typically computed (for example x = longitude).
type Computed struct {
	Name string
	Kind types.Kind
	Expr expr.Node
}

// Relation is a table: a stored schema, tuple storage, and computed
// attributes. It keeps no secondary indexes: every predicate is answered
// by a scan. Only the db package mutates base tables, through Relation's
// update hooks.
type Relation struct {
	name     string
	schema   *Schema
	computed []Computed
	// cols is the chunk store the tuples live in. Resident tables and the
	// chunks Join, Union and MapColumn build are pinned; relations opened
	// from a persistent backend (FromChunkSource) fault theirs in lazily
	// through the bounded chunk cache. colStore values are immutable, so
	// CoW is plain pointer replacement: mutators install a new store
	// sharing every untouched chunk slot.
	cols *colStore
	// sel and colMap make the relation a view of cols: tuple i is store
	// row sel[i] (nil: store row i, every row in order) and stored column
	// j is store column colMap[j] (nil: column j). Restrict, Project,
	// Sample, Sort, Limit, Distinct and Partition return their input's
	// store under a new selection or column map and copy no values.
	sel, colMap []int
	// provenance: store row s derives from row provRows[s] of provBase
	// (provRows nil: from row s itself), so a screen object traces
	// through the selection to a base-table row (Section 8). Every
	// operator that keeps tuples intact sets it; a base table, and the
	// output of Join or Union, is its own origin (provBase nil) and views
	// its store whole.
	provBase *Relation
	provRows []int
	// pinned caches, for a view over a store whose chunks fault in from a
	// source, the view's tuples gathered into pinned chunks (resident).
	pinned atomic.Pointer[Relation]
	// gen is the relation's generation stamp: 0 until first observed,
	// then a unique value from genCounter, replaced with a fresh one on
	// every content mutation. Accessed atomically so renders may read it
	// while other relations are being built.
	gen int64
}

// Generation returns the relation's generation stamp, assigning one on
// first observation (which also covers derivation: every relation built
// by an operator starts unstamped and receives a fresh stamp the first
// time a cache looks at it). Equal stamps imply identical visible
// contents; after any mutation the stamp differs from every stamp ever
// issued for any relation.
func (r *Relation) Generation() int64 {
	if g := atomic.LoadInt64(&r.gen); g != 0 {
		return g
	}
	g := nextGen()
	if atomic.CompareAndSwapInt64(&r.gen, 0, g) {
		return g
	}
	return atomic.LoadInt64(&r.gen)
}

// bumpGen invalidates the current stamp after a content mutation.
func (r *Relation) bumpGen() { atomic.StoreInt64(&r.gen, nextGen()) }

// view completes shape, a freshly derived relation, as a view of r's
// store holding store rows sel under store columns colMap (see
// Relation.sel), with r's provenance. It copies no values.
func view(shape, r *Relation, sel, colMap []int) *Relation {
	shape.cols, shape.sel, shape.colMap = r.cols, sel, colMap
	shape.provBase, shape.provRows = r.provBase, r.provRows
	if r.provBase == nil {
		shape.provBase = r
	}
	return shape
}

// storeRow maps tuple i to its store row.
func (r *Relation) storeRow(i int) int {
	if r.sel != nil {
		return r.sel[i]
	}
	return i
}

// storeCol maps stored column j to its store column.
func (r *Relation) storeCol(j int) int {
	if r.colMap != nil {
		return r.colMap[j]
	}
	return j
}

// storeCols returns the store column of every stored column, in order.
func (r *Relation) storeCols() []int {
	if r.colMap != nil {
		return r.colMap
	}
	return identityMap(r.schema.Len())
}

// pick maps tuple indexes, a list the caller owns, to store rows in
// place.
func (r *Relation) pick(rows []int) []int {
	if r.sel != nil {
		for i, row := range rows {
			rows[i] = r.sel[row]
		}
	}
	return rows
}

// keepRows returns the view of r holding its tuples at rows, which
// ascend and which it takes over: a selection of r's store, or r's whole
// view when rows keeps every tuple of a relation without one.
func keepRows(r *Relation, rows []int) *Relation {
	sel := r.pick(rows)
	switch {
	case r.sel == nil && len(sel) == r.Len():
		sel = nil
	case sel == nil:
		sel = []int{} // keeps nothing; a nil selection would keep everything
	}
	return view(r.derive(r.schema, true), r, sel, r.colMap)
}

// BaseRow traces tuple i to its originating base relation and row. For a
// relation with no provenance (a base table itself, or the output of Join
// or Union) it returns the relation and i unchanged.
func (r *Relation) BaseRow(i int) (*Relation, int) {
	if r.provBase == nil || i < 0 || i >= r.Len() {
		return r, i
	}
	s := r.storeRow(i)
	if r.provRows == nil {
		if s >= r.provBase.Len() {
			return r, i // appended to a view after it was derived
		}
		return r.provBase, s
	}
	if s >= len(r.provRows) {
		return r, i
	}
	return r.provBase, r.provRows[s]
}

// baseRows returns the origin every tuple of r traces to and, per tuple,
// its row there (nil when tuple i is row i of the origin).
func (r *Relation) baseRows() (*Relation, []int) {
	if r.provBase == nil {
		return r, nil
	}
	if r.sel == nil && r.provRows == nil {
		return r.provBase, nil
	}
	rows := make([]int, r.Len())
	for i := range rows {
		_, rows[i] = r.BaseRow(i)
	}
	return r.provBase, rows
}

// store returns r's tuples as a store of their own: cols itself when r
// views all of it in order, else its selected rows and columns gathered
// into pinned chunks.
func (r *Relation) store() (*colStore, error) {
	if r.sel == nil && r.colMap == nil {
		return r.cols, nil
	}
	rows := r.sel
	if rows == nil {
		rows = identityMap(r.cols.rows)
	}
	return gatherStore(r.schema, part{r.cols, rows, r.storeCols()})
}

// own gives a view a store of its own before its first write, so the
// write cannot reach the store it shares.
func (r *Relation) own() error {
	if r.sel == nil && r.colMap == nil {
		return nil
	}
	cs, err := r.store()
	if err != nil {
		return err
	}
	r.provBase, r.provRows = r.baseRows()
	if r.provBase == r {
		r.provBase = nil
	}
	r.cols, r.sel, r.colMap = cs, nil, nil
	r.pinned.Store(nil)
	r.bumpGen()
	return nil
}

// resident returns r, or, when r is a view over a store whose chunks
// fault in from a source, its tuples gathered once in store order into
// pinned chunks that later calls share. A join reads its inputs in hash
// order, which would fault a spilled source's chunks over and over.
func (r *Relation) resident() (*Relation, error) {
	if r.sel == nil && r.colMap == nil || !r.cols.faults() {
		return r, nil
	}
	if m := r.pinned.Load(); m != nil {
		return m, nil
	}
	cs, err := r.store()
	if err != nil {
		return nil, err
	}
	r.pinned.CompareAndSwap(nil, &Relation{name: r.name, schema: r.schema, computed: r.computed, cols: cs})
	return r.pinned.Load(), nil
}

// New creates an empty relation with the given schema.
func New(name string, schema *Schema) *Relation {
	return &Relation{name: name, schema: schema, cols: &colStore{schema: schema, chunkRows: DefaultChunkRows}}
}

// Builder encodes a new relation's tuples chunk by chunk in one pass,
// for producers that create a whole table at once, such as the workload
// generators. Append on an existing relation is the incremental path.
type Builder struct {
	name string
	sb   *storeBuilder
}

// NewBuilder starts an empty relation with the given schema.
func NewBuilder(name string, schema *Schema) *Builder {
	return &Builder{name: name, sb: &storeBuilder{schema: schema}}
}

// Append adds a tuple, checked like Relation.Append.
func (b *Builder) Append(tuple []types.Value) error {
	if err := b.sb.appendRow(tuple); err != nil {
		return fmt.Errorf("rel: %s: %w", b.name, err)
	}
	return nil
}

// MustAppend is Append that panics on error, for fixtures and generators.
func (b *Builder) MustAppend(tuple []types.Value) {
	if err := b.Append(tuple); err != nil {
		panic(err)
	}
}

// Relation returns the built relation. The builder must not be used
// afterwards.
func (b *Builder) Relation() *Relation {
	return &Relation{name: b.name, schema: b.sb.schema, cols: b.sb.finish()}
}

// FromChunkSource creates a chunk-backed relation over src: tuple
// storage lives in columnar chunks that fault in lazily through the
// bounded chunk cache, so the relation can be far larger than the
// memory quota. The relation participates in the normal CoW/versioning
// discipline — Append and Update replace only the affected chunk.
func FromChunkSource(name string, schema *Schema, src ChunkSource) (*Relation, error) {
	if src.ChunkRows() <= 0 || src.Rows() < 0 {
		return nil, fmt.Errorf("rel: %s: chunk source reports %d rows at %d per chunk", name, src.Rows(), src.ChunkRows())
	}
	want := (src.Rows() + src.ChunkRows() - 1) / src.ChunkRows()
	if src.NumChunks() != want {
		return nil, fmt.Errorf("rel: %s: chunk source shape mismatch (%d chunks for %d rows at %d/chunk)",
			name, src.NumChunks(), src.Rows(), src.ChunkRows())
	}
	return &Relation{name: name, schema: schema, cols: newColStore(schema, src)}, nil
}

// rowReader is sequential row access for scan loops. It decodes a chunk
// at a time, holding the current chunk so eviction cannot pull the
// arrays out from under the scan. Readers are cheap; parallel scans make
// one per worker.
type rowReader struct {
	r          *Relation
	ck         *Chunk
	ckLo, ckHi int // the held chunk's store rows
	buf        []types.Value
	err        error
}

// reader returns a fresh rowReader over r.
func (r *Relation) reader() rowReader { return rowReader{r: r} }

// hold positions the reader's chunk window over tuple i, returning its
// offset in the held chunk, or false — recording the error for Err —
// when the chunk cannot be read.
func (rd *rowReader) hold(i int) (int, bool) {
	s := rd.r.storeRow(i)
	if s >= rd.ckLo && s < rd.ckHi {
		return s - rd.ckLo, true
	}
	cs := rd.r.cols
	ci, off := cs.rowChunk(s)
	c, err := cs.chunk(ci)
	if err != nil {
		rd.err = cmp.Or(rd.err, err)
		return 0, false
	}
	rd.ck = c
	rd.ckLo, rd.ckHi = cs.chunkSpan(ci)
	return off, true
}

// at returns tuple i in a scratch buffer valid only until the next at
// call. On a chunk read error it returns a null-filled row.
func (rd *rowReader) at(i int) []types.Value {
	rd.buf = rd.buf[:0]
	off, ok := rd.hold(i)
	switch {
	case !ok:
		rd.buf = append(rd.buf, make([]types.Value, rd.r.schema.Len())...)
	case rd.r.colMap == nil:
		rd.buf = rd.ck.DecodeRow(off, rd.buf)
	default:
		for _, c := range rd.r.colMap {
			rd.buf = append(rd.buf, rd.ck.Value(c, off))
		}
	}
	return rd.buf
}

// value reads one stored column of tuple i without decoding the row; a
// chunk read error reads as null.
func (rd *rowReader) value(i, col int) types.Value {
	off, ok := rd.hold(i)
	if !ok {
		return types.Null
	}
	return rd.ck.Value(rd.r.storeCol(col), off)
}

// Err reports the first chunk read error the reader hit, if any.
func (rd *rowReader) Err() error { return rd.err }

// Name returns the relation's name ("" for anonymous derived relations).
func (r *Relation) Name() string { return r.name }

// Schema returns the stored-column schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.sel != nil {
		return len(r.sel)
	}
	return r.cols.rows
}

// Computed returns the computed attribute definitions in order.
func (r *Relation) Computed() []Computed { return append([]Computed(nil), r.computed...) }

// AttrKind implements expr.Scope over stored and computed attributes — the
// uniform t.l notation of the paper.
func (r *Relation) AttrKind(name string) (types.Kind, bool) {
	if k, ok := r.schema.KindOf(name); ok {
		return k, true
	}
	for _, c := range r.computed {
		if c.Name == name {
			return c.Kind, true
		}
	}
	return types.Invalid, false
}

// HasAttr reports whether name is a stored or computed attribute.
func (r *Relation) HasAttr(name string) bool {
	_, ok := r.AttrKind(name)
	return ok
}

// AttrNames returns all attribute names, stored first, then computed in
// definition order.
func (r *Relation) AttrNames() []string {
	out := make([]string, 0, r.schema.Len()+len(r.computed))
	for _, c := range r.schema.Columns() {
		out = append(out, c.Name)
	}
	for _, c := range r.computed {
		out = append(out, c.Name)
	}
	return out
}

// Append adds a tuple. The tuple must match the schema arity and types
// (null is accepted in any column).
func (r *Relation) Append(tuple []types.Value) error {
	if err := r.own(); err != nil {
		return fmt.Errorf("rel: %s: %w", r.name, err)
	}
	cs, err := r.cols.withAppend(tuple)
	if err != nil {
		return fmt.Errorf("rel: %s: %w", r.name, err)
	}
	r.cols = cs
	r.bumpGen()
	return nil
}

// MustAppend is Append that panics on error, for fixtures and generators.
func (r *Relation) MustAppend(tuple []types.Value) {
	if err := r.Append(tuple); err != nil {
		panic(err)
	}
}

// Tuple returns the i'th stored tuple, decoded into a fresh slice that
// is the caller's to keep; Update is the way to change the table. A
// chunk read error (file-backed sources only) panics, like an
// out-of-range row — bulk paths that want an error use a reader or
// Cursor instead.
func (r *Relation) Tuple(i int) []types.Value {
	rd := r.reader()
	t := rd.at(i)
	if err := rd.Err(); err != nil {
		panic(fmt.Sprintf("rel: %s: reading tuple %d: %v", r.name, i, err))
	}
	return t
}

// Row binds tuple i to the relation for attribute access; it implements
// expr.Env including computed attributes.
func (r *Relation) Row(i int) Row { return Row{rel: r, idx: i} }

// Update replaces column col of tuple row with v. This is the primitive beneath the Section 8 update machinery.
func (r *Relation) Update(row int, col string, v types.Value) error {
	ci := r.schema.Index(col)
	if ci < 0 {
		return fmt.Errorf("rel: %s: no stored column %q (computed attributes cannot be updated)", r.name, col)
	}
	if row < 0 || row >= r.Len() {
		return fmt.Errorf("rel: %s: row %d out of range", r.name, row)
	}
	if !v.IsNull() && v.Kind() != r.schema.Col(ci).Kind {
		return fmt.Errorf("rel: %s: column %q wants %s, got %s", r.name, col, r.schema.Col(ci).Kind, v.Kind())
	}
	if err := r.own(); err != nil {
		return fmt.Errorf("rel: %s: %w", r.name, err)
	}
	nt, err := r.cols.tuple(row)
	if err != nil {
		return fmt.Errorf("rel: %s: %w", r.name, err)
	}
	nt[ci] = v
	// Copy-on-write the affected chunk; every other chunk slot, and every
	// unchanged lane of this one, is shared with the previous version.
	cs, err := r.cols.withRow(row, nt)
	if err != nil {
		return fmt.Errorf("rel: %s: %w", r.name, err)
	}
	r.cols = cs
	r.bumpGen()
	return nil
}

// AddComputed defines a new computed attribute. The definition may depend
// only on other attributes of the relation (Section 5.3); this is enforced
// by type checking against the relation's current scope, which also
// prevents definition cycles because an attribute can only reference
// attributes that already exist.
func (r *Relation) AddComputed(name string, def expr.Node) error {
	if r.HasAttr(name) {
		return fmt.Errorf("rel: %s: attribute %q already exists", r.name, name)
	}
	k, err := expr.Check(def, r)
	if err != nil {
		return fmt.Errorf("rel: %s: bad definition for %q: %w", r.name, name, err)
	}
	r.computed = append(r.computed, Computed{Name: name, Kind: k, Expr: def})
	r.bumpGen()
	return nil
}

// SetComputed replaces the definition of an existing computed attribute
// (the Set Attribute operation of Figure 5 applied to a method attribute).
// The new definition is checked against a scope that excludes the
// attribute itself and everything defined after it, preserving the no-
// forward-reference invariant.
func (r *Relation) SetComputed(name string, def expr.Node) error {
	for i, c := range r.computed {
		if c.Name != name {
			continue
		}
		k, err := expr.Check(def, prefixScope{r: r, upto: i})
		if err != nil {
			return fmt.Errorf("rel: %s: bad definition for %q: %w", r.name, name, err)
		}
		if k != c.Kind {
			// Changing the kind is allowed only if no later computed
			// attribute references this one with the old kind.
			for _, later := range r.computed[i+1:] {
				for _, ref := range expr.Refs(later.Expr) {
					if ref == name {
						return fmt.Errorf("rel: %s: cannot change %q from %s to %s: %q depends on it",
							r.name, name, c.Kind, k, later.Name)
					}
				}
			}
		}
		r.computed[i] = Computed{Name: name, Kind: k, Expr: def}
		r.bumpGen()
		return nil
	}
	return fmt.Errorf("rel: %s: no computed attribute %q", r.name, name)
}

// RemoveComputed deletes a computed attribute, refusing if a later
// computed attribute depends on it.
func (r *Relation) RemoveComputed(name string) error {
	for i, c := range r.computed {
		if c.Name != name {
			continue
		}
		for _, later := range r.computed[i+1:] {
			for _, ref := range expr.Refs(later.Expr) {
				if ref == name {
					return fmt.Errorf("rel: %s: cannot remove %q: %q depends on it", r.name, name, later.Name)
				}
			}
		}
		r.computed = append(r.computed[:i], r.computed[i+1:]...)
		r.bumpGen()
		return nil
	}
	return fmt.Errorf("rel: %s: no computed attribute %q", r.name, name)
}

// prefixScope exposes stored columns plus the first upto computed
// attributes, for checking redefinitions.
type prefixScope struct {
	r    *Relation
	upto int
}

// AttrKind implements expr.Scope.
func (p prefixScope) AttrKind(name string) (types.Kind, bool) {
	if k, ok := p.r.schema.KindOf(name); ok {
		return k, true
	}
	for _, c := range p.r.computed[:p.upto] {
		if c.Name == name {
			return c.Kind, true
		}
	}
	return types.Invalid, false
}

// CowClone returns a copy-on-write clone sharing the tuple store,
// selection and provenance but with a private computed-attribute list. The db write
// path uses it to build a table's next version, and attribute boxes use
// it to extend a derived relation without mutating their input. Stores
// are immutable — Append and Update install a new store version sharing
// every untouched chunk slot and lane — so any mutation applied to the
// clone is invisible to holders of the original: the clone is the next
// version of the table, the original remains an immutable snapshot.
// Tuple storage costs nothing until a write copies one chunk directory.
// The clone starts unstamped, so the first cache to observe it receives
// a fresh generation.
func (r *Relation) CowClone() *Relation {
	return &Relation{
		name:     r.name,
		schema:   r.schema,
		cols:     r.cols,
		sel:      r.sel,
		colMap:   r.colMap,
		computed: append([]Computed(nil), r.computed...),
		provBase: r.provBase,
		provRows: r.provRows,
	}
}

// derive builds an anonymous relation shape sharing this relation's
// computed attributes but with no tuple storage yet; operators complete
// it as a view (view) or install the store they build.
func (r *Relation) derive(schema *Schema, keepComputed bool) *Relation {
	out := &Relation{schema: schema}
	if keepComputed {
		// Keep only computed attributes whose references survive in the
		// new schema or in earlier surviving computed attributes.
		for _, c := range r.computed {
			ok := true
			for _, ref := range expr.Refs(c.Expr) {
				if !out.HasAttr(ref) && !schema.Has(ref) {
					ok = false
					break
				}
			}
			if ok && !schema.Has(c.Name) {
				out.computed = append(out.computed, c)
			}
		}
	}
	return out
}

// String renders a compact description for program-window labels.
func (r *Relation) String() string {
	name := r.name
	if name == "" {
		name = "<derived>"
	}
	extra := ""
	if len(r.computed) > 0 {
		names := make([]string, len(r.computed))
		for i, c := range r.computed {
			names[i] = c.Name
		}
		extra = " +" + strings.Join(names, ",")
	}
	return fmt.Sprintf("%s%s%s [%d tuples]", name, r.schema, extra, r.Len())
}

// Row is one tuple bound to its relation; it implements expr.Env over
// stored and computed attributes. Computed attributes are evaluated on
// demand — "actually computing the values of these attributes should be
// avoided except where necessary" (Section 5.1) — so a Row held by a
// culled tuple costs nothing.
type Row struct {
	rel *Relation
	idx int
}

// Index returns the row's position in the relation.
func (w Row) Index() int { return w.idx }

// Relation returns the owning relation.
func (w Row) Relation() *Relation { return w.rel }

// AttrValue implements expr.Env.
func (w Row) AttrValue(name string) (types.Value, bool) {
	if i := w.rel.schema.Index(name); i >= 0 {
		// A chunk read error (file-backed sources only) reads as null.
		rd := w.rel.reader()
		return rd.value(w.idx, i), true
	}
	for _, c := range w.rel.computed {
		if c.Name == name {
			v, err := expr.Eval(c.Expr, w)
			if err != nil {
				return types.Null, true // null on evaluation failure, attribute exists
			}
			return v, true
		}
	}
	return types.Null, false
}

// Attr returns the named attribute value, or null if absent.
func (w Row) Attr(name string) types.Value {
	v, _ := w.AttrValue(name)
	return v
}

// Cursor is the public sequential-access companion of Row: it walks a
// relation row by row, decoding one chunk at a time on chunk-backed
// relations and pinning the current chunk against eviction while it is
// in use. It implements expr.Env with Row's exact semantics, including
// the evaluate-to-null swallowing of computed-attribute errors, so
// display functions evaluate against it unchanged. Viewers use a Cursor
// for their per-frame sweeps (cull, spatial-index build, display eval)
// instead of per-row Row bindings.
type Cursor struct {
	rel *Relation
	idx int
	rd  rowReader
}

// NewCursor returns a cursor positioned before the first row; call Seek
// before reading.
func (r *Relation) NewCursor() *Cursor {
	return &Cursor{rel: r, idx: -1, rd: r.reader()}
}

// Seek positions the cursor on row i.
func (cu *Cursor) Seek(i int) { cu.idx = i }

// Index returns the current row position.
func (cu *Cursor) Index() int { return cu.idx }

// AttrValue implements expr.Env at the current row.
func (cu *Cursor) AttrValue(name string) (types.Value, bool) {
	if i := cu.rel.schema.Index(name); i >= 0 {
		return cu.rd.value(cu.idx, i), true
	}
	for _, c := range cu.rel.computed {
		if c.Name == name {
			v, err := expr.Eval(c.Expr, cu)
			if err != nil {
				return types.Null, true
			}
			return v, true
		}
	}
	return types.Null, false
}

// Attr returns the named attribute at the current row, or null.
func (cu *Cursor) Attr(name string) types.Value {
	v, _ := cu.AttrValue(name)
	return v
}

// Err reports the first chunk read error the cursor hit, if any.
func (cu *Cursor) Err() error { return cu.rd.Err() }
