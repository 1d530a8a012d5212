package rel

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

func genRel(t testing.TB) *Relation {
	t.Helper()
	r := New("G", MustSchema(
		Column{Name: "id", Kind: types.Int},
		Column{Name: "x", Kind: types.Float},
	))
	for i := 0; i < 3; i++ {
		r.MustAppend([]types.Value{types.NewInt(int64(i)), types.NewFloat(float64(i))})
	}
	return r
}

func TestGenerationStableWithoutMutation(t *testing.T) {
	r := genRel(t)
	g := r.Generation()
	if g == 0 {
		t.Fatal("generation 0: the unassigned sentinel leaked out")
	}
	for i := 0; i < 5; i++ {
		if got := r.Generation(); got != g {
			t.Fatalf("generation moved from %d to %d without mutation", g, got)
		}
	}
}

func TestGenerationUniqueAcrossRelations(t *testing.T) {
	a, b := genRel(t), genRel(t)
	if a.Generation() == b.Generation() {
		t.Fatal("two relations share a generation stamp")
	}
}

func TestGenerationBumpsOnMutation(t *testing.T) {
	r := genRel(t)
	last := r.Generation()
	step := func(name string, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := r.Generation()
		if g <= last {
			t.Fatalf("%s: generation %d did not advance past %d", name, g, last)
		}
		last = g
	}
	step("Append", func() error {
		return r.Append([]types.Value{types.NewInt(9), types.NewFloat(9)})
	})
	step("Update", func() error {
		return r.Update(0, "x", types.NewFloat(42))
	})
	step("AddComputed", func() error {
		n, err := expr.Parse("x + 1")
		if err != nil {
			return err
		}
		return r.AddComputed("y", n)
	})
	step("SetComputed", func() error {
		n, err := expr.Parse("x + 2")
		if err != nil {
			return err
		}
		return r.SetComputed("y", n)
	})
	step("RemoveComputed", func() error {
		return r.RemoveComputed("y")
	})
}

func TestCloneGetsFreshGeneration(t *testing.T) {
	r := genRel(t)
	g := r.Generation()
	if c := r.CowClone(); c.Generation() == g {
		t.Fatal("CowClone shares the source's generation")
	}
	// Cloning must not disturb the source's stamp.
	if got := r.Generation(); got != g {
		t.Fatalf("source generation moved from %d to %d on clone", g, got)
	}
}

func TestDerivedRelationsGetFreshGenerations(t *testing.T) {
	r := genRel(t)
	g := r.Generation()
	pred, err := expr.Parse("true")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Restrict(r, pred)
	if err != nil {
		t.Fatal(err)
	}
	if d.Generation() == g {
		t.Fatal("derived relation shares the source's generation")
	}
}
