package db

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/types"
	"repro/internal/workload"
)

func seeded(t testing.TB) *Database {
	t.Helper()
	d := New()
	st := workload.Stations(30, 5)
	if err := d.CreateTable(st); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable(workload.LouisianaMap()); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCatalog(t *testing.T) {
	d := seeded(t)
	names := d.TableNames()
	if len(names) != 2 || names[0] != "LouisianaMap" || names[1] != "Stations" {
		t.Fatalf("TableNames = %v", names)
	}
	if _, err := d.Table("Stations"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Table("Nope"); err == nil {
		t.Error("missing table accepted")
	}
	// Duplicates and anonymous tables rejected.
	if err := d.CreateTable(workload.Stations(5, 1)); err == nil {
		t.Error("duplicate table accepted")
	}
	anon := rel.New("", rel.MustSchema(rel.Column{Name: "a", Kind: types.Int}))
	if err := d.CreateTable(anon); err == nil {
		t.Error("anonymous table accepted")
	}
	if err := d.DropTable("LouisianaMap"); err != nil {
		t.Fatal(err)
	}
	if err := d.DropTable("LouisianaMap"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestUpdateTupleAndUndo(t *testing.T) {
	d := seeded(t)
	st, _ := d.Table("Stations")
	old := st.Tuple(3)[st.Schema().Index("altitude")]

	notified := 0
	d.Watch(func(table string) {
		if table == "Stations" {
			notified++
		}
	})

	if err := d.UpdateTuple("Stations", 3, "altitude", types.NewFloat(777)); err != nil {
		t.Fatal(err)
	}
	if notified != 1 {
		t.Errorf("watchers notified %d times", notified)
	}
	// Writes are copy-on-write: the pre-update handle keeps its frozen
	// view, the catalog serves the new version.
	if got := st.Tuple(3)[st.Schema().Index("altitude")]; !got.Equal(old) {
		t.Fatalf("update mutated the snapshot handle: %s", got)
	}
	st2, _ := d.Table("Stations")
	if got := st2.Tuple(3)[st2.Schema().Index("altitude")]; got.Float() != 777 {
		t.Fatalf("update did not land: %s", got)
	}
	if d.UndoDepth() != 1 {
		t.Fatalf("undo depth %d", d.UndoDepth())
	}
	ok, err := d.UndoLast()
	if err != nil || !ok {
		t.Fatalf("undo: %v %v", ok, err)
	}
	st3, _ := d.Table("Stations")
	if got := st3.Tuple(3)[st3.Schema().Index("altitude")]; !got.Equal(old) {
		t.Fatalf("undo did not restore: %s want %s", got, old)
	}
	if notified != 2 {
		t.Errorf("undo did not notify (%d)", notified)
	}
	ok, err = d.UndoLast()
	if err != nil || ok {
		t.Fatal("undo on empty log should be a no-op")
	}

	// Validation.
	if err := d.UpdateTuple("Nope", 0, "x", types.NewInt(1)); err == nil {
		t.Error("missing table accepted")
	}
	if err := d.UpdateTuple("Stations", 999, "altitude", types.NewFloat(1)); err == nil {
		t.Error("bad row accepted")
	}
	if err := d.UpdateTuple("Stations", 0, "nosuch", types.NewFloat(1)); err == nil {
		t.Error("bad column accepted")
	}
}

func TestUpdateField(t *testing.T) {
	d := seeded(t)
	if err := d.UpdateField("Stations", 0, "altitude", "55.5"); err != nil {
		t.Fatal(err)
	}
	st, _ := d.Table("Stations")
	if got := st.Tuple(0)[st.Schema().Index("altitude")]; got.Float() != 55.5 {
		t.Fatalf("field update = %s", got)
	}
	idx := st.Schema().Index("altitude")
	if err := d.UpdateField("Stations", 0, "altitude", "not a number"); err == nil {
		t.Error("unparsable input accepted")
	}
	// Out-of-range rows fail with the typed error UpdateTuple gives.
	for _, row := range []int{-1, st.Len()} {
		err := d.UpdateField("Stations", row, "altitude", "1")
		want := d.UpdateTuple("Stations", row, "altitude", types.NewFloat(1))
		var de *Error
		if !errors.As(err, &de) || de.Op != "update" || err.Error() != want.Error() {
			t.Errorf("row %d: UpdateField error %v, want %v", row, err, want)
		}
	}
	// Custom update function with a different look and feel (Section 8).
	if err := d.Updates().SetForKind(types.Float, func(cur types.Value, in string) (types.Value, error) {
		v, err := types.Parse(types.Float, in)
		if err != nil {
			return types.Null, err
		}
		if v.Float() < 0 {
			return types.NewFloat(0), nil
		}
		return v, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateField("Stations", 0, "altitude", "-5"); err != nil {
		t.Fatal(err)
	}
	st, _ = d.Table("Stations")
	if got := st.Tuple(0)[idx]; got.Float() != 0 {
		t.Fatalf("custom update function ignored: %s", got)
	}
}

func TestProgramStore(t *testing.T) {
	d := New()
	if err := d.SaveProgram("p1", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveProgram("", []byte("{}")); err == nil {
		t.Error("unnamed program accepted")
	}
	data, err := d.LoadProgram("p1")
	if err != nil || string(data) != "{}" {
		t.Fatalf("load: %q %v", data, err)
	}
	if _, err := d.LoadProgram("p2"); err == nil {
		t.Error("missing program accepted")
	}
	if got := d.ProgramNames(); len(got) != 1 || got[0] != "p1" {
		t.Errorf("ProgramNames = %v", got)
	}
	// Stored bytes are copies.
	data[0] = 'X'
	again, _ := d.LoadProgram("p1")
	if string(again) != "{}" {
		t.Error("program store aliases caller bytes")
	}
}

func TestDefStore(t *testing.T) {
	d := New()
	if err := d.SaveDef("box1", []byte("def")); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveDef("", nil); err == nil {
		t.Error("unnamed def accepted")
	}
	if got, err := d.LoadDef("box1"); err != nil || string(got) != "def" {
		t.Fatal("def round trip")
	}
	if _, err := d.LoadDef("missing"); err == nil {
		t.Error("missing def accepted")
	}
	if got := d.DefNames(); len(got) != 1 {
		t.Errorf("DefNames = %v", got)
	}
}

// TestSaveLoadRoundTrip saves into a FileBackend directory and reloads
// it with LoadDir, the on-disk path of `tioga -db DIR`: tuples, computed
// attributes, programs, and definitions all come back.
func TestSaveLoadRoundTrip(t *testing.T) {
	d := seeded(t)
	err := d.AlterTable("Stations", func(st *rel.Relation) error {
		return st.AddComputed("alt2", expr.MustParse("altitude * 2"))
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Table("Stations")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveProgram("prog", []byte(`{"boxes":null,"edges":null}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveDef("defn", []byte("x")); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "db")
	b, err := rel.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveBackend(b); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := d2.Table("Stations")
	if err != nil {
		t.Fatal(err)
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
	// Computed attributes restored.
	if !st2.HasAttr("alt2") {
		t.Fatal("computed attribute lost")
	}
	a, _ := st.Row(0).Attr("alt2").AsFloat()
	c, _ := st2.Row(0).Attr("alt2").AsFloat()
	if a != c {
		t.Fatal("computed attribute value differs after load")
	}
	// Programs and defs restored.
	if _, err := d2.LoadProgram("prog"); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.LoadDef("defn"); err != nil {
		t.Fatal(err)
	}
}

// TestSaveLoadFile round-trips a database through a FileBackend
// directory and LoadDir, which rejects a missing directory without
// creating it.
func TestSaveLoadFile(t *testing.T) {
	d := seeded(t)
	dir := filepath.Join(t.TempDir(), "db")
	b, err := rel.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveBackend(b); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.TableNames()) != 2 {
		t.Fatalf("tables after directory load: %v", d2.TableNames())
	}
	missing := filepath.Join(t.TempDir(), "missing")
	if _, err := LoadDir(missing); err == nil {
		t.Error("missing directory accepted")
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("LoadDir created the missing directory: %v", err)
	}
}

// TestLoadBadData: a manifest with a good header but a body that is not
// a manifest, and a manifest naming a segment the backend lacks, both
// fail to load.
func TestLoadBadData(t *testing.T) {
	b := rel.NewMemBackend()
	if err := b.PutBlob("manifest", append(snapMagic[:], snapVersion, 'j', 'u', 'n', 'k')); err != nil {
		t.Fatal(err)
	}
	if err := New().LoadBackend(b); !errors.Is(err, ErrBadSnapshotFormat) {
		t.Fatalf("junk manifest body: %v", err)
	}
	if err := seeded(t).SaveBackend(b); err != nil {
		t.Fatal(err)
	}
	if err := b.RemoveSegment("t000"); err != nil {
		t.Fatal(err)
	}
	if err := New().LoadBackend(b); !errors.Is(err, rel.ErrNoSegment) {
		t.Fatalf("manifest naming a missing segment: %v", err)
	}
}

func TestConcurrentReadsDuringUpdates(t *testing.T) {
	d := seeded(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = d.UpdateTuple("Stations", i%10, "altitude", types.NewFloat(float64(i)))
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := d.Table("Stations"); err != nil {
			t.Error(err)
		}
		_ = d.TableNames()
	}
	<-done
}
