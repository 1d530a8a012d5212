package dataflow

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
)

// stitchBomb is a 72-byte stored program asking a stitch box for a
// million input ports.
const stitchBomb = `{"boxes":[{"id":1,"kind":"stitch","params":{"n":"1000000"}}],"edges":[]}`

// A stored program cannot size a box's ports without bound: every loader
// refuses the stitch bomb with ErrBadParam, and loading it allocates a
// small fixed budget rather than memory in proportion to n.
func TestStoredStitchCannotAskForUnboundedPorts(t *testing.T) {
	reg := NewRegistry()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(reg, []byte(stitchBomb))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadParam) {
		t.Fatalf("Unmarshal: %v, want ErrBadParam", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("Unmarshal allocated %d bytes for a %d-byte program", got, len(stitchBomb))
	}
	if _, err := Merge(NewGraph(reg), []byte(stitchBomb)); !errors.Is(err, ErrBadParam) {
		t.Errorf("Merge: %v, want ErrBadParam", err)
	}
	g, _, err := UnmarshalPermissive(reg, []byte(stitchBomb))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateGraph(g).AsError(); !errors.Is(err, ErrBadParam) {
		t.Errorf("permissive load then validation: %v, want ErrBadParam", err)
	}
	if _, err := NewGraph(reg).AddBox("stitch", Params{"n": "1000000"}); !errors.Is(err, ErrBadParam) {
		t.Errorf("AddBox: %v, want ErrBadParam", err)
	}
}

// typedLoadError reports whether a loader's error is one a caller can
// route on: a JSON decode error, an attributed *Error, or one of the
// package's sentinels.
func typedLoadError(err error) bool {
	var se *json.SyntaxError
	var te *json.UnmarshalTypeError
	var be *Error
	if errors.As(err, &se) || errors.As(err, &te) || errors.As(err, &be) {
		return true
	}
	for _, s := range []error{ErrCycle, ErrUnconnected, ErrNoSuchPort, ErrPortType, ErrDanglingEdge,
		ErrDuplicateInput, ErrUnknownKind, ErrBadParam, ErrNoSuchBox, ErrBadRegion} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// FuzzUnmarshal feeds arbitrary bytes to every loader of stored programs
// and box definitions: Unmarshal, UnmarshalPermissive, Merge and
// UnmarshalDef. None may panic, each failure must be a typed error, and
// whatever loads must re-marshal and reload to the same bytes.
func FuzzUnmarshal(f *testing.F) {
	reg := NewRegistry()
	f.Fuzz(func(t *testing.T, data []byte) {
		reload := func(name string, marshal func() ([]byte, error), load func([]byte) ([]byte, error), err error) {
			t.Helper()
			if err != nil {
				if !typedLoadError(err) {
					t.Fatalf("%s: untyped error %v", name, err)
				}
				return
			}
			b1, err := marshal()
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			b2, err := load(b1)
			if err != nil {
				t.Fatalf("%s: reloading its own output: %v\n%s", name, err, b1)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("%s: reload changed the program:\n%s\n%s", name, b1, b2)
			}
		}
		g, err := Unmarshal(reg, data)
		reload("Unmarshal", func() ([]byte, error) { return Marshal(g) }, func(b []byte) ([]byte, error) {
			g2, err := Unmarshal(reg, b)
			if err != nil {
				return nil, err
			}
			return Marshal(g2)
		}, err)

		pg, _, err := UnmarshalPermissive(reg, data)
		reload("UnmarshalPermissive", func() ([]byte, error) { return Marshal(pg) }, func(b []byte) ([]byte, error) {
			g2, _, err := UnmarshalPermissive(reg, b)
			if err != nil {
				return nil, err
			}
			return Marshal(g2)
		}, err)

		merge := func(b []byte) (*Graph, error) {
			mg := NewGraph(reg)
			_, err := Merge(mg, b)
			return mg, err
		}
		mg, err := merge(data)
		if err != nil && len(mg.Boxes()) != 0 {
			t.Fatalf("a failed Merge left %d boxes behind", len(mg.Boxes()))
		}
		reload("Merge", func() ([]byte, error) { return Marshal(mg) }, func(b []byte) ([]byte, error) {
			g2, err := merge(b)
			if err != nil {
				return nil, err
			}
			return Marshal(g2)
		}, err)

		def, err := UnmarshalDef(data)
		reload("UnmarshalDef", func() ([]byte, error) { return MarshalDef(def) }, func(b []byte) ([]byte, error) {
			d2, err := UnmarshalDef(b)
			if err != nil {
				return nil, err
			}
			return MarshalDef(d2)
		}, err)
	})
}
