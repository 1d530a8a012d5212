package db

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/types"
)

func testBackends(t *testing.T) map[string]rel.Backend {
	fb, err := rel.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]rel.Backend{"mem": rel.NewMemBackend(), "file": fb}
}

// TestBackendSaveLoadRoundTrip: tables come back chunk-backed with
// tuples, computed attributes, programs, and definitions intact.
func TestBackendSaveLoadRoundTrip(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			d := seeded(t)
			err := d.AlterTable("Stations", func(st *rel.Relation) error {
				return st.AddComputed("alt2", expr.MustParse("altitude * 2"))
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.SaveProgram("prog", []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			if err := d.SaveDef("defn", []byte("x")); err != nil {
				t.Fatal(err)
			}
			st, err := d.Table("Stations")
			if err != nil {
				t.Fatal(err)
			}

			if err := d.SaveBackend(b); err != nil {
				t.Fatal(err)
			}
			d2 := New()
			if err := d2.LoadBackend(b); err != nil {
				t.Fatal(err)
			}

			st2, err := d2.Table("Stations")
			if err != nil {
				t.Fatal(err)
			}
			rel.DropResidentChunks()
			loads := rel.ChunkCacheStats().Loads
			st2.Tuple(0)
			if rel.ChunkCacheStats().Loads == loads {
				t.Fatal("backend-loaded table does not fault its chunks from the backend")
			}
			if st2.Len() != st.Len() {
				t.Fatalf("tuples %d vs %d", st2.Len(), st.Len())
			}
			for i := 0; i < st.Len(); i++ {
				for j := range st.Tuple(i) {
					if !st2.Tuple(i)[j].Equal(st.Tuple(i)[j]) {
						t.Fatalf("tuple %d col %d differs", i, j)
					}
				}
			}
			if !st2.HasAttr("alt2") {
				t.Fatal("computed attribute lost")
			}
			want, _ := st.Row(0).Attr("alt2").AsFloat()
			got, _ := st2.Row(0).Attr("alt2").AsFloat()
			if got != want {
				t.Fatalf("computed attribute = %v after load, want %v", got, want)
			}
			if _, err := d2.LoadProgram("prog"); err != nil {
				t.Fatal(err)
			}
			if _, err := d2.LoadDef("defn"); err != nil {
				t.Fatal(err)
			}

			// Chunk-backed tables stay writable through the CoW path:
			// re-append row 0 and the catalog serves the longer version.
			if err := d2.AppendTuple("Stations", st2.Tuple(0)); err != nil {
				t.Fatal(err)
			}
			st3, err := d2.Table("Stations")
			if err != nil {
				t.Fatal(err)
			}
			if st3.Len() != st.Len()+1 {
				t.Fatalf("append on chunk-backed table: %d rows, want %d", st3.Len(), st.Len()+1)
			}
		})
	}
}

// TestBackendKeepsComputedExprs: computed attributes are saved as
// printed expression text, so a float literal over an int column and a
// backslash in text must come back with the same kind and every value.
func TestBackendKeepsComputedExprs(t *testing.T) {
	defs := []struct {
		name, src string
		kind      types.Kind
		suffix    string
	}{
		{"half", "id / 2.0", types.Float, ""},
		{"tagged", `name || '\\x'`, types.Text, `\x`},
	}
	for bname, b := range testBackends(t) {
		t.Run(bname, func(t *testing.T) {
			d := seeded(t)
			err := d.AlterTable("Stations", func(st *rel.Relation) error {
				for _, c := range defs {
					if err := st.AddComputed(c.name, expr.MustParse(c.src)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			st, err := d.Table("Stations")
			if err != nil {
				t.Fatal(err)
			}
			if err := d.SaveBackend(b); err != nil {
				t.Fatal(err)
			}
			d2 := New()
			if err := d2.LoadBackend(b); err != nil {
				t.Fatal(err)
			}
			st2, err := d2.Table("Stations")
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range defs {
				if k, _ := st2.AttrKind(c.name); k != c.kind {
					t.Fatalf("%s (%s) reloaded as kind %s", c.name, c.src, k)
				}
				for i := 0; i < st.Len(); i++ {
					want, got := st.Row(i).Attr(c.name), st2.Row(i).Attr(c.name)
					if got.Kind() != want.Kind() || !got.Equal(want) {
						t.Fatalf("%s row %d = %s (%s) after reload, want %s (%s)", c.name, i, got, got.Kind(), want, want.Kind())
					}
				}
				if v := st2.Row(0).Attr(c.name).String(); c.suffix != "" && !strings.HasSuffix(v, c.suffix) {
					t.Fatalf("%s row 0 = %q, want suffix %q", c.name, v, c.suffix)
				}
			}
		})
	}
}

// TestLoadBackendMissingManifest surfaces ErrNoSegment through the
// typed db error.
func TestLoadBackendMissingManifest(t *testing.T) {
	d := New()
	err := d.LoadBackend(rel.NewMemBackend())
	if !errors.Is(err, rel.ErrNoSegment) {
		t.Fatalf("LoadBackend on empty backend: %v", err)
	}
}

// TestSnapshotFormatErrors: truncated, foreign, empty, and
// future-versioned manifests all fail with the ErrBadSnapshotFormat
// sentinel, reachable through errors.Is across the *Error wrapper, and a
// good manifest still loads after them.
func TestSnapshotFormatErrors(t *testing.T) {
	good := rel.NewMemBackend()
	if err := seeded(t).SaveBackend(good); err != nil {
		t.Fatal(err)
	}
	manifest, err := good.GetBlob("manifest")
	if err != nil {
		t.Fatal(err)
	}
	future := append([]byte(nil), manifest...)
	future[7] = snapVersion + 1

	d := New()
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"truncated", []byte("junk")},
		{"foreign", []byte("garbage....")},
		{"empty", nil},
		{"future version", future},
	} {
		b := rel.NewMemBackend()
		if err := b.PutBlob("manifest", tc.blob); err != nil {
			t.Fatal(err)
		}
		err := d.LoadBackend(b)
		if !errors.Is(err, ErrBadSnapshotFormat) {
			t.Fatalf("%s manifest: %v", tc.name, err)
		}
		var de *Error
		if !errors.As(err, &de) || de.Op != "load" {
			t.Fatalf("%s manifest lost the typed wrapper: %v", tc.name, err)
		}
	}
	if err := d.LoadBackend(good); err != nil {
		t.Fatalf("good manifest after failures: %v", err)
	}
	if len(d.TableNames()) != 2 {
		t.Fatalf("tables after good load: %v", d.TableNames())
	}
}

// TestBackendLoadUnderQuota loads a catalog whose data exceeds the
// chunk quota and reads it back correctly — the load itself stays
// O(manifest) and the reads churn the cache.
func TestBackendLoadUnderQuota(t *testing.T) {
	big := rel.New("Big", rel.MustSchema(
		rel.Column{Name: "id", Kind: types.Int},
		rel.Column{Name: "payload", Kind: types.Text},
	))
	for i := 0; i < 60000; i++ {
		big.MustAppend([]types.Value{
			types.NewInt(int64(i)),
			types.NewText("payload-payload-payload-payload"),
		})
	}
	d := New()
	if err := d.CreateTable(big); err != nil {
		t.Fatal(err)
	}
	b := rel.NewMemBackend()
	if err := d.SaveBackend(b); err != nil {
		t.Fatal(err)
	}

	prev := rel.MemoryQuota()
	rel.DropResidentChunks()
	// The quota must clear one chunk (the cache keeps the chunk being
	// read resident) while staying well under the ~2.4MB dataset.
	rel.SetMemoryQuota(512 << 10)
	rel.ResetChunkCacheStats()
	defer func() {
		rel.SetMemoryQuota(prev)
		rel.DropResidentChunks()
		rel.ResetChunkCacheStats()
	}()

	d2 := New()
	if err := d2.LoadBackend(b); err != nil {
		t.Fatal(err)
	}
	tb, err := d2.Table("Big")
	if err != nil {
		t.Fatal(err)
	}
	out, err := rel.Restrict(tb, expr.MustParse("id % 1000 = 7"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 60 {
		t.Fatalf("restrict under quota: %d rows, want 60", out.Len())
	}
	st := rel.ChunkCacheStats()
	if st.Quota > 0 && st.Peak > st.Quota {
		t.Fatalf("peak %d exceeded quota %d during backend load+scan", st.Peak, st.Quota)
	}
}
