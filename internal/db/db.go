// Package db is the database of the Tioga-2 environment: the catalog of
// base tables (the "menu of all tables available"), saved programs and
// encapsulated box definitions (Save Program / Encapsulate store their
// results in the database, Section 4.1), and the update path of Section 8
// — tuple-level updates applied through per-type update functions, with an
// undo log. It stands in for POSTGRES: Tioga-2 uses the DBMS as a store of
// relations and functions, and every semantic above that level lives in
// the other packages.
package db

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/types"
)

// Database holds tables, saved programs, and encapsulation definitions.
// It is safe for concurrent readers; writes take the lock.
//
// The write path is copy-on-write: every committed mutation clones the
// affected relation (rel.CowClone shares the immutable chunk store; the
// write copies one chunk directory), mutates the clone, and swaps the
// catalog pointer under the lock. A relation
// pointer obtained from Table or a Snap is therefore an immutable
// snapshot of that table as of the fetch: it never changes underneath
// a reader, and long reads (renders) never block writers. Readers that
// want to observe subsequent writes re-fetch by name; readers that
// want a consistent multi-table view take a Snapshot.
type Database struct {
	mu       sync.RWMutex
	tables   map[string]*rel.Relation
	seq      uint64            // commit sequence, bumped once per committed write
	programs map[string][]byte // serialized dataflow programs
	defs     map[string][]byte // serialized encapsulated box definitions
	updates  *types.UpdateRegistry
	undo     []undoRecord
	watchers []func(table string)
	subs     map[*subscriber]struct{}
}

// undoRecord remembers one applied tuple update so it can be reversed.
type undoRecord struct {
	table string
	row   int
	col   string
	old   types.Value
}

// New returns an empty database.
func New() *Database {
	return &Database{
		tables:   make(map[string]*rel.Relation),
		programs: make(map[string][]byte),
		defs:     make(map[string][]byte),
		updates:  types.NewUpdateRegistry(),
	}
}

// Updates returns the per-type update function registry (Section 8).
func (d *Database) Updates() *types.UpdateRegistry { return d.updates }

// CreateTable registers a base relation under its name.
func (d *Database) CreateTable(r *rel.Relation) error {
	if r.Name() == "" {
		return opErr("create", "", fmt.Errorf("cannot register an anonymous relation"))
	}
	d.mu.Lock()
	if _, dup := d.tables[r.Name()]; dup {
		d.mu.Unlock()
		return opErr("create", r.Name(), ErrTableExists)
	}
	d.tables[r.Name()] = r
	d.seq++
	watchers, subs := d.notifyLocked()
	ev := Event{Table: r.Name(), Gen: r.Generation(), Kind: EventCreate, Seq: d.seq}
	d.mu.Unlock()
	deliver(watchers, subs, ev)
	return nil
}

// DropTable removes a base relation.
func (d *Database) DropTable(name string) error {
	d.mu.Lock()
	if _, ok := d.tables[name]; !ok {
		d.mu.Unlock()
		return opErr("drop", name, ErrNoSuchTable)
	}
	delete(d.tables, name)
	d.seq++
	watchers, subs := d.notifyLocked()
	ev := Event{Table: name, Kind: EventDrop, Seq: d.seq}
	d.mu.Unlock()
	deliver(watchers, subs, ev)
	return nil
}

// Table implements dataflow.TableSource. The returned relation is the
// current immutable version of the table; it will not reflect later
// writes (re-fetch to observe them).
func (d *Database) Table(name string) (*rel.Relation, error) {
	obs.Inc(obs.DBTableGets)
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[name]
	if !ok {
		return nil, opErr("table", name, ErrNoSuchTable)
	}
	return t, nil
}

// TableNames implements dataflow.TableSource: the menu of all tables.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.tables))
	for n := range d.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Watch registers a callback fired synchronously, on the writer's
// goroutine, after any committed change to a table. It is the
// synchronous path single-user environments need: an update returns
// only after its canvases have been touched. Subscribe is the
// asynchronous path servers use; it carries typed events and never
// lets a slow consumer block a writer.
func (d *Database) Watch(fn func(table string)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.watchers = append(d.watchers, fn)
}

// UpdateTuple installs a new value for one column of one tuple of a base
// table — the SQL update the generic update procedure performs after its
// dialog (Section 8). The previous value is pushed on the undo log. The
// write is copy-on-write: snapshot readers of the table keep their
// frozen version; the catalog serves the new one.
func (d *Database) UpdateTuple(table string, row int, col string, v types.Value) error {
	d.mu.Lock()
	t, ok := d.tables[table]
	if !ok {
		d.mu.Unlock()
		return opErr("update", table, ErrNoSuchTable)
	}
	watchers, subs, evs, err := d.updateLocked(t, table, row, col, v)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	deliver(watchers, subs, evs...)
	return nil
}

// updateLocked validates and applies one field update copy-on-write:
// clone the relation, mutate the clone, swap the catalog pointer, push
// the undo record. The caller holds d.mu and delivers the returned
// events after unlocking.
func (d *Database) updateLocked(t *rel.Relation, table string, row int, col string, v types.Value) ([]func(string), []*subscriber, []Event, error) {
	if row < 0 || row >= t.Len() {
		return nil, nil, nil, opErr("update", table, fmt.Errorf("row %d out of range", row))
	}
	ci := t.Schema().Index(col)
	if ci < 0 {
		return nil, nil, nil, opErr("update", table, fmt.Errorf("no stored column %q", col))
	}
	oldRow := t.Tuple(row)
	old := oldRow[ci]
	prevGen := t.Generation()
	nt := t.CowClone()
	if err := nt.Update(row, col, v); err != nil {
		return nil, nil, nil, err
	}
	d.tables[table] = nt
	d.undo = append(d.undo, undoRecord{table: table, row: row, col: col, old: old})
	d.seq++
	obs.Inc(obs.DBUpdates)
	watchers, subs := d.notifyLocked()
	// Tuple decodes a fresh slice from each version, so both sides of
	// the delta are frozen.
	delta := &rel.TupleDelta{Ops: []rel.DeltaOp{{
		Kind: rel.DeltaUpdate, Row: row, Tuple: nt.Tuple(row), Old: oldRow,
	}}}
	evs := []Event{{Table: table, Gen: nt.Generation(), Kind: EventUpdate, Seq: d.seq, PrevGen: prevGen, Delta: delta}}
	return watchers, subs, evs, nil
}

// AppendTuple appends one tuple to a base table through the copy-on-
// write path. Appends are not undoable — the Section 8 undo log covers
// field updates only.
func (d *Database) AppendTuple(table string, tuple []types.Value) error {
	d.mu.Lock()
	t, ok := d.tables[table]
	if !ok {
		d.mu.Unlock()
		return opErr("append", table, ErrNoSuchTable)
	}
	prevGen := t.Generation()
	nt := t.CowClone()
	if err := nt.Append(tuple); err != nil {
		d.mu.Unlock()
		return err
	}
	d.tables[table] = nt
	d.seq++
	obs.Inc(obs.DBAppends)
	watchers, subs := d.notifyLocked()
	delta := &rel.TupleDelta{Ops: []rel.DeltaOp{{
		Kind: rel.DeltaAppend, Row: nt.Len() - 1, Tuple: nt.Tuple(nt.Len() - 1),
	}}}
	ev := Event{Table: table, Gen: nt.Generation(), Kind: EventAppend, Seq: d.seq, PrevGen: prevGen, Delta: delta}
	d.mu.Unlock()
	deliver(watchers, subs, ev)
	return nil
}

// AlterTable applies an arbitrary mutation to a base table through the
// copy-on-write path: alter receives a private clone, and only on
// success does the catalog swap to it. This is the sanctioned route
// for schema-level changes — computed columns, indexes — that have no
// dedicated op; callers must never mutate a Table() result in place
// (the freezecheck pass enforces exactly that). The event carries no
// delta: consumers treat an alteration as a wholesale replacement.
func (d *Database) AlterTable(table string, alter func(*rel.Relation) error) error {
	d.mu.Lock()
	t, ok := d.tables[table]
	if !ok {
		d.mu.Unlock()
		return opErr("alter", table, ErrNoSuchTable)
	}
	nt := t.CowClone()
	if err := alter(nt); err != nil {
		d.mu.Unlock()
		return opErr("alter", table, err)
	}
	d.tables[table] = nt
	d.seq++
	watchers, subs := d.notifyLocked()
	ev := Event{Table: table, Gen: nt.Generation(), Kind: EventLoad, Seq: d.seq, PrevGen: t.Generation()}
	d.mu.Unlock()
	deliver(watchers, subs, ev)
	return nil
}

// UpdateField runs the per-type update function for the addressed field
// against the user's textual input, then installs the result: the whole
// Section 8 update path for one field.
func (d *Database) UpdateField(table string, row int, col string, input string) error {
	t, err := d.Table(table)
	if err != nil {
		return err
	}
	if row < 0 || row >= t.Len() {
		return opErr("update", table, fmt.Errorf("row %d out of range", row))
	}
	ci := t.Schema().Index(col)
	if ci < 0 {
		return opErr("update", table, fmt.Errorf("no stored column %q", col))
	}
	kind := t.Schema().Col(ci).Kind
	current := t.Tuple(row)[ci]
	if current.IsNull() {
		current = types.Zero(kind)
	}
	nv, err := d.updates.ForKind(kind)(current, input)
	if err != nil {
		return opErr("update", table, fmt.Errorf("column %s: %w", col, err))
	}
	return d.UpdateTuple(table, row, col, nv)
}

// UndoLast reverses the most recent tuple update, reporting whether there
// was anything to undo. The reversal is itself a copy-on-write commit.
func (d *Database) UndoLast() (bool, error) {
	d.mu.Lock()
	if len(d.undo) == 0 {
		d.mu.Unlock()
		return false, nil
	}
	rec := d.undo[len(d.undo)-1]
	d.undo = d.undo[:len(d.undo)-1]
	t, ok := d.tables[rec.table]
	if !ok {
		d.mu.Unlock()
		return false, opErr("undo", rec.table, ErrNoSuchTable)
	}
	if rec.row < 0 || rec.row >= t.Len() {
		d.mu.Unlock()
		return false, opErr("undo", rec.table, fmt.Errorf("row %d out of range", rec.row))
	}
	oldRow := t.Tuple(rec.row)
	prevGen := t.Generation()
	nt := t.CowClone()
	if err := nt.Update(rec.row, rec.col, rec.old); err != nil {
		d.mu.Unlock()
		return false, err
	}
	d.tables[rec.table] = nt
	d.seq++
	obs.Inc(obs.DBUndos)
	watchers, subs := d.notifyLocked()
	delta := &rel.TupleDelta{Ops: []rel.DeltaOp{{
		Kind: rel.DeltaUpdate, Row: rec.row, Tuple: nt.Tuple(rec.row), Old: oldRow,
	}}}
	ev := Event{Table: rec.table, Gen: nt.Generation(), Kind: EventUndo, Seq: d.seq, PrevGen: prevGen, Delta: delta}
	d.mu.Unlock()
	deliver(watchers, subs, ev)
	return true, nil
}

// UndoDepth returns the number of undoable updates.
func (d *Database) UndoDepth() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.undo)
}

// SaveProgram stores a serialized program under a name (Save Program).
func (d *Database) SaveProgram(name string, data []byte) error {
	if name == "" {
		return opErr("program", "", fmt.Errorf("program needs a name"))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.programs[name] = append([]byte(nil), data...)
	return nil
}

// LoadProgram fetches a saved program.
func (d *Database) LoadProgram(name string) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.programs[name]
	if !ok {
		return nil, opErr("program", name, fmt.Errorf("no saved program"))
	}
	return append([]byte(nil), p...), nil
}

// ProgramNames lists saved programs.
func (d *Database) ProgramNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.programs))
	for n := range d.programs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SaveDef stores a serialized encapsulated box definition.
func (d *Database) SaveDef(name string, data []byte) error {
	if name == "" {
		return opErr("def", "", fmt.Errorf("definition needs a name"))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.defs[name] = append([]byte(nil), data...)
	return nil
}

// LoadDef fetches a saved encapsulated box definition.
func (d *Database) LoadDef(name string) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.defs[name]
	if !ok {
		return nil, opErr("def", name, fmt.Errorf("no saved encapsulated box"))
	}
	return append([]byte(nil), p...), nil
}

// DefNames lists saved encapsulated box definitions.
func (d *Database) DefNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.defs))
	for n := range d.defs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
