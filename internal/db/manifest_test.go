package db

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/rel"
)

// manifestBase saves a small database — two tables, one computed
// attribute, one program and one definition — to a MemBackend, whose
// manifest blob the tests below replace.
func manifestBase(t testing.TB) *rel.MemBackend {
	t.Helper()
	d := seeded(t)
	err := d.AlterTable("Stations", func(st *rel.Relation) error {
		return st.AddComputed("alt2", expr.MustParse("altitude * 2"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveProgram("prog", []byte(`{"boxes":null,"edges":null}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveDef("defn", []byte("x")); err != nil {
		t.Fatal(err)
	}
	b := rel.NewMemBackend()
	if err := d.SaveBackend(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// readManifest decodes the manifest blob stored in b.
func readManifest(t testing.TB, b rel.Backend) manifest {
	t.Helper()
	raw, err := b.GetBlob(manifestBlob)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(raw)
	if err := readSnapHeader(rd); err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := gob.NewDecoder(rd).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// encodeManifest frames m as a manifest blob: magic, version, gob.
func encodeManifest(t testing.TB, m manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(append(snapMagic[:], snapVersion))
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// badManifests are the manifests whose content is not a valid catalog,
// each built from the base's own manifest by one edit. Table 0 is
// LouisianaMap and table 1 is Stations.
func badManifests(t testing.TB, b rel.Backend) map[string][]byte {
	t.Helper()
	edit := func(f func(m *manifest)) []byte {
		m := readManifest(t, b)
		f(&m)
		return encodeManifest(t, m)
	}
	return map[string][]byte{
		"kind99": edit(func(m *manifest) { m.Tables[1].Columns[0].Kind = 99 }),
		"table_twice": edit(func(m *manifest) {
			m.Tables = append(m.Tables, m.Tables[0])
		}),
		"duplicate_column": edit(func(m *manifest) {
			m.Tables[1].Columns[1].Name = m.Tables[1].Columns[0].Name
		}),
		"unparsable_computed": edit(func(m *manifest) {
			m.Tables[1].Computed = append(m.Tables[1].Computed, manifestComputed{Name: "bad", Expr: "altitude *"})
		}),
		"ill_typed_computed": edit(func(m *manifest) {
			m.Tables[1].Computed = append(m.Tables[1].Computed, manifestComputed{Name: "bad", Expr: "name * 2"})
		}),
	}
}

// TestLoadBackendRejectsBadManifests: a manifest whose content is not a
// valid catalog fails the load with ErrBadSnapshotFormat — a column kind
// outside int..date, a table listed twice, a repeated column name, and
// computed attributes that do not parse or type-check.
func TestLoadBackendRejectsBadManifests(t *testing.T) {
	b := manifestBase(t)
	for name, raw := range badManifests(t, b) {
		t.Run(name, func(t *testing.T) {
			if err := b.PutBlob(manifestBlob, raw); err != nil {
				t.Fatal(err)
			}
			err := New().LoadBackend(b)
			if !errors.Is(err, ErrBadSnapshotFormat) {
				t.Fatalf("LoadBackend = %v, want ErrBadSnapshotFormat", err)
			}
			var de *Error
			if !errors.As(err, &de) || de.Op != "load" {
				t.Fatalf("LoadBackend = %v, want a *db.Error for op load", err)
			}
		})
	}
}

// forgedMapCount returns a manifest whose Programs map claims 2^20
// entries but holds one: the program is keyed "" and its bytes start
// with two zeros, so turning the one-byte count 0x01 into the four-byte
// length prefix 0xFC reads the count from the bytes that follow.
func forgedMapCount(t testing.TB) []byte {
	t.Helper()
	raw := encodeManifest(t, manifest{
		Version:  snapVersion,
		Programs: map[string][]byte{"": make([]byte, 16)},
	})
	entry := append([]byte{1, 0, 16}, make([]byte, 16)...)
	i := bytes.Index(raw, entry)
	if i < 0 {
		t.Fatal("map entry not found in the encoded manifest")
	}
	raw[i] = 0xFC
	return raw
}

// TestLoadBackendBoundsManifestMaps: a manifest whose map count claims
// far more entries than its bytes hold fails with ErrBadSnapshotFormat
// without sizing a map for the claimed count.
func TestLoadBackendBoundsManifestMaps(t *testing.T) {
	b := rel.NewMemBackend()
	if err := b.PutBlob(manifestBlob, forgedMapCount(t)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := New().LoadBackend(b)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadSnapshotFormat) {
		t.Fatalf("LoadBackend = %v, want ErrBadSnapshotFormat", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
		t.Fatalf("loading a %d-byte manifest allocated %d bytes", len(forgedMapCount(t)), n)
	}
}

// corpusEntry reads the manifest held by a committed FuzzLoadBackend
// seed file.
func corpusEntry(t testing.TB, name string) []byte {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadBackend", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	quoted, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
	if !ok || len(lines) != 2 {
		t.Fatalf("seed file %s is not one []byte value", name)
	}
	raw, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(raw)
}

// TestLoadBackendReadsIndexedManifest: the seed file parent_indexes is
// the manifest of this database as written while tables could carry
// secondary indexes, with an index on Stations.state: its tables list
// their indexed columns. It still loads with the same tuples and
// computed attributes, and saving it again writes no index list.
func TestLoadBackendReadsIndexedManifest(t *testing.T) {
	b := manifestBase(t)
	want := New()
	if err := want.LoadBackend(b); err != nil {
		t.Fatal(err)
	}
	if err := b.PutBlob(manifestBlob, corpusEntry(t, "parent_indexes")); err != nil {
		t.Fatal(err)
	}

	got := New()
	if err := got.LoadBackend(b); err != nil {
		t.Fatal(err)
	}
	if g, w := catalogPrint(t, got), catalogPrint(t, want); g != w {
		t.Fatalf("indexed manifest loads as\n%s\nwant\n%s", g, w)
	}
	st, err := got.Table("Stations")
	if err != nil {
		t.Fatal(err)
	}
	if v := st.Row(3).Attr("alt2"); v.IsNull() {
		t.Fatal("computed attribute alt2 lost")
	}

	// Re-saved, it writes the very manifest the database without the
	// index writes.
	saved := func(d *Database) []byte {
		sb := rel.NewMemBackend()
		if err := d.SaveBackend(sb); err != nil {
			t.Fatal(err)
		}
		raw, err := sb.GetBlob(manifestBlob)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if !bytes.Equal(saved(got), saved(want)) {
		t.Fatal("re-saving the indexed database writes another manifest than the one without the index")
	}
}

// catalogPrint renders every table — schema, computed attributes and
// tuples — and the program and definition names of d.
func catalogPrint(t testing.TB, d *Database) string {
	t.Helper()
	var out strings.Builder
	for _, name := range d.TableNames() {
		r, err := d.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%q %s\n", name, r.Schema())
		for _, c := range r.Computed() {
			fmt.Fprintf(&out, "  %s %s = %s\n", c.Name, c.Kind, c.Expr)
		}
		for i := 0; i < r.Len(); i++ {
			fmt.Fprintf(&out, "  %v\n", r.Tuple(i))
		}
	}
	fmt.Fprintf(&out, "programs %q defs %q\n", d.ProgramNames(), d.DefNames())
	return out.String()
}

// FuzzLoadBackend replaces the manifest of a saved database with the
// fuzz input. No input may panic; every failure carries a typed cause;
// and a database that loads saves and reloads to the same catalog. A
// manifest may pair a segment with columns it does not hold, which
// surfaces only when the chunks are read — at the save — as
// rel.ErrBadSegment.
func FuzzLoadBackend(f *testing.F) {
	b := manifestBase(f)
	raw, err := b.GetBlob(manifestBlob)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	typed := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBadSnapshotFormat) && !errors.Is(err, rel.ErrBadSegment) && !errors.Is(err, rel.ErrNoSegment) {
			t.Fatalf("%s: untyped error %v", what, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := b.PutBlob(manifestBlob, data); err != nil {
			t.Fatal(err)
		}
		d := New()
		if err := d.LoadBackend(b); err != nil {
			typed(t, "load", err)
			return
		}
		saved := rel.NewMemBackend()
		if err := d.SaveBackend(saved); err != nil {
			typed(t, "save", err)
			return
		}
		d2 := New()
		if err := d2.LoadBackend(saved); err != nil {
			t.Fatalf("reload of a re-saved database: %v", err)
		}
		if g, w := catalogPrint(t, d2), catalogPrint(t, d); g != w {
			t.Fatalf("reload differs:\n%s\nwant\n%s", g, w)
		}
	})
}
