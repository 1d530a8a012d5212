package db

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/types"
)

// This file is the database's one on-disk form: each table is written
// as a chunk-encoded segment through a rel.Backend, plus one small
// manifest blob describing schemas, computed attributes, programs, and
// definitions. Tables reopened from a backend are
// chunk-backed — their chunks fault in on demand and stay subject to
// the global memory quota — so a database larger than memory loads in
// O(manifest) time and scans within the bound.

// manifest is the gob wire format of the backend metadata blob.
type manifest struct {
	Version  int
	Tables   []manifestTable
	Programs map[string][]byte
	Defs     map[string][]byte
}

// manifestTable describes one table and names the segment holding its
// tuples.
type manifestTable struct {
	Name     string
	Segment  string
	Columns  []manifestColumn
	Computed []manifestComputed
}

type manifestColumn struct {
	Name string
	Kind int
}

type manifestComputed struct {
	Name string
	Expr string
}

// manifestBlob is the backend blob name the manifest lives under.
const manifestBlob = "manifest"

// snapMagic opens every manifest; the byte after it carries the format
// version, so a future layout change fails loudly (typed
// ErrBadSnapshotFormat) instead of as a gob decode of foreign bytes.
var snapMagic = [7]byte{'T', 'G', 'S', 'N', 'A', 'P', ':'}

// snapVersion is the manifest format this build writes and the highest
// it can read.
const snapVersion = 1

// readSnapHeader validates the magic and version of a manifest.
func readSnapHeader(r io.Reader) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: truncated header", ErrBadSnapshotFormat)
	}
	if string(hdr[:7]) != string(snapMagic[:]) {
		return fmt.Errorf("%w: missing magic", ErrBadSnapshotFormat)
	}
	if v := int(hdr[7]); v < 1 || v > snapVersion {
		return fmt.Errorf("%w: unsupported version %d (this build reads up to %d)",
			ErrBadSnapshotFormat, v, snapVersion)
	}
	return nil
}

// SaveBackend persists the whole database through b: one segment per
// table (streamed chunk by chunk, so peak memory stays near one chunk
// per table) and one manifest blob. Segment names are positional
// ("t000", "t001", ...) in sorted table-name order, keeping table names
// out of the backend's namespace rules.
func (d *Database) SaveBackend(b rel.Backend) error {
	obs.Inc(obs.DBSaves)
	_, sp := obs.StartSpanCtx(context.Background(), obs.SpanDBSave)
	defer sp.End()

	d.mu.RLock()
	tables := make(map[string]*rel.Relation, len(d.tables))
	for n, t := range d.tables {
		tables[n] = t
	}
	m := manifest{
		Version:  snapVersion,
		Programs: make(map[string][]byte, len(d.programs)),
		Defs:     make(map[string][]byte, len(d.defs)),
	}
	for n, p := range d.programs {
		m.Programs[n] = append([]byte(nil), p...)
	}
	for n, p := range d.defs {
		m.Defs[n] = append([]byte(nil), p...)
	}
	d.mu.RUnlock()

	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, name := range names {
		t := tables[name]
		mt := manifestTable{Name: name, Segment: fmt.Sprintf("t%03d", i)}
		for _, c := range t.Schema().Columns() {
			mt.Columns = append(mt.Columns, manifestColumn{Name: c.Name, Kind: int(c.Kind)})
		}
		for _, c := range t.Computed() {
			mt.Computed = append(mt.Computed, manifestComputed{Name: c.Name, Expr: c.Expr.String()})
		}
		if err := b.WriteSegment(mt.Segment, t); err != nil {
			return opErr("save", name, err)
		}
		m.Tables = append(m.Tables, mt)
	}

	var buf bytes.Buffer
	buf.Write(append(snapMagic[:], snapVersion))
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return opErr("save", "", err)
	}
	if err := b.PutBlob(manifestBlob, buf.Bytes()); err != nil {
		return opErr("save", "", err)
	}
	return nil
}

// LoadBackend replaces the database's contents with the catalog stored
// in b. Tables come back chunk-backed: no tuple is read at load time, so
// each table's chunks fault in lazily on first read. A manifest whose
// content is not a valid catalog — an unknown column kind, a repeated
// table or column name, a computed attribute that does not parse or
// check — fails with ErrBadSnapshotFormat; segment failures keep rel's
// ErrNoSegment and ErrBadSegment.
func (d *Database) LoadBackend(b rel.Backend) error {
	obs.Inc(obs.DBLoads)
	_, sp := obs.StartSpanCtx(context.Background(), obs.SpanDBLoad)
	defer sp.End()

	raw, err := b.GetBlob(manifestBlob)
	if err != nil {
		return opErr("load", "", err)
	}
	rd := bytes.NewReader(raw)
	if err := readSnapHeader(rd); err != nil {
		return opErr("load", "", err)
	}
	// Non-nil maps make gob decode entries into them instead of sizing a
	// fresh map by the count the input claims, so a forged count cannot
	// allocate more than the manifest's own length.
	m := manifest{Programs: map[string][]byte{}, Defs: map[string][]byte{}}
	if err := gob.NewDecoder(rd).Decode(&m); err != nil {
		return opErr("load", "", fmt.Errorf("%w: manifest: %v", ErrBadSnapshotFormat, err))
	}
	if m.Version < 1 || m.Version > snapVersion {
		return opErr("load", "", fmt.Errorf("%w: unsupported manifest version %d", ErrBadSnapshotFormat, m.Version))
	}

	tables := make(map[string]*rel.Relation, len(m.Tables))
	for _, mt := range m.Tables {
		if _, dup := tables[mt.Name]; dup {
			return opErr("load", mt.Name, fmt.Errorf("%w: table listed twice", ErrBadSnapshotFormat))
		}
		cols := make([]rel.Column, len(mt.Columns))
		for i, c := range mt.Columns {
			cols[i] = rel.Column{Name: c.Name, Kind: types.Kind(c.Kind)}
		}
		schema, err := rel.NewSchema(cols...)
		if err != nil {
			return opErr("load", mt.Name, fmt.Errorf("%w: %w", ErrBadSnapshotFormat, err))
		}
		src, err := b.OpenSegment(mt.Segment, schema)
		if err != nil {
			return opErr("load", mt.Name, err)
		}
		t, err := rel.FromChunkSource(mt.Name, schema, src)
		if err != nil {
			return opErr("load", mt.Name, err)
		}
		if err := restoreComputed(t, mt.Computed); err != nil {
			return opErr("load", mt.Name, fmt.Errorf("%w: %w", ErrBadSnapshotFormat, err))
		}
		tables[mt.Name] = t
	}
	d.installLoaded(tables, m.Programs, m.Defs)
	return nil
}

// LoadDir returns the database SaveBackend wrote into the rel.FileBackend
// directory dir. A missing directory is an error: loading never creates
// one.
func LoadDir(dir string) (*Database, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, opErr("load", "", err)
	}
	b, err := rel.NewFileBackend(dir)
	if err != nil {
		return nil, opErr("load", "", err)
	}
	d := New()
	if err := d.LoadBackend(b); err != nil {
		return nil, err
	}
	return d, nil
}

// installLoaded swaps in a freshly loaded catalog (tables, programs,
// definitions), resets the undo log, and delivers one EventLoad per
// table in name order.
func (d *Database) installLoaded(tables map[string]*rel.Relation, programs, defs map[string][]byte) {
	d.mu.Lock()
	d.tables = tables
	d.programs = programs
	if d.programs == nil {
		d.programs = make(map[string][]byte)
	}
	d.defs = defs
	if d.defs == nil {
		d.defs = make(map[string][]byte)
	}
	d.undo = nil
	d.seq++
	watchers, subs := d.notifyLocked()
	evs := make([]Event, 0, len(tables))
	for name, t := range tables {
		evs = append(evs, Event{Table: name, Gen: t.Generation(), Kind: EventLoad, Seq: d.seq})
	}
	d.mu.Unlock()
	sort.Slice(evs, func(i, j int) bool { return evs[i].Table < evs[j].Table })
	deliver(watchers, subs, evs...)
}

// restoreComputed re-parses and re-attaches computed attribute
// definitions in their original order.
func restoreComputed(t *rel.Relation, cs []manifestComputed) error {
	for _, c := range cs {
		n, err := expr.Parse(c.Expr)
		if err != nil {
			return fmt.Errorf("computed attribute %q: %w", c.Name, err)
		}
		if err := t.AddComputed(c.Name, n); err != nil {
			return err
		}
	}
	return nil
}
