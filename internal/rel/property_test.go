package rel

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/expr"
	"repro/internal/types"
)

// randomRelation builds a relation with mixed column types and n rows
// from a seed.
func randomRelation(n int, seed int64) *Relation {
	rng := rand.New(rand.NewSource(seed))
	r := New("Rand", MustSchema(
		Column{Name: "k", Kind: types.Int},
		Column{Name: "v", Kind: types.Float},
		Column{Name: "tag", Kind: types.Text},
	))
	tags := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		r.MustAppend([]types.Value{
			types.NewInt(int64(rng.Intn(50))),
			types.NewFloat(rng.Float64()*100 - 50),
			types.NewText(tags[rng.Intn(len(tags))]),
		})
	}
	return r
}

// Property: Restrict keeps exactly the tuples satisfying the predicate,
// in input order.
func TestRestrictSoundComplete(t *testing.T) {
	pred := expr.MustParse("v > 0.0 and k < 25")
	f := func(seed int64, size uint8) bool {
		r := randomRelation(int(size), seed)
		out, err := Restrict(r, pred)
		if err != nil {
			return false
		}
		// Model: scan.
		want := 0
		j := 0
		for i := 0; i < r.Len(); i++ {
			keep, err := expr.EvalPredicate(pred, r.Row(i))
			if err != nil {
				return false
			}
			if keep {
				want++
				// Order preserved.
				if j >= out.Len() || !out.Tuple(j)[0].Equal(r.Tuple(i)[0]) {
					return false
				}
				j++
			}
		}
		return out.Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Partition is disjoint and, with a catch-all, complete.
func TestPartitionDisjointComplete(t *testing.T) {
	preds := []expr.Node{
		expr.MustParse("tag = 'a'"),
		expr.MustParse("tag = 'b'"),
		expr.MustParse("true"),
	}
	f := func(seed int64, size uint8) bool {
		r := randomRelation(int(size), seed)
		parts, err := Partition(r, preds)
		if err != nil {
			return false
		}
		total := 0
		for _, p := range parts {
			total += p.Len()
		}
		if total != r.Len() {
			return false
		}
		// Disjoint: 'a' tuples only in part 0, and part 2 has no a or b.
		for i := 0; i < parts[2].Len(); i++ {
			tag := parts[2].Row(i).Attr("tag").Text()
			if tag == "a" || tag == "b" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Sort is a permutation ordered by the key.
func TestSortPermutationProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := randomRelation(int(size)+1, seed)
		out, err := Sort(r, "v", false)
		if err != nil {
			return false
		}
		if out.Len() != r.Len() {
			return false
		}
		prev := out.Row(0).Attr("v").Float()
		sum := 0.0
		for i := 0; i < out.Len(); i++ {
			v := out.Row(i).Attr("v").Float()
			if v < prev {
				return false
			}
			prev = v
			sum += v
		}
		orig := 0.0
		for i := 0; i < r.Len(); i++ {
			orig += r.Row(i).Attr("v").Float()
		}
		// Same multiset (sum as a cheap witness plus length).
		return abs(sum-orig) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Property: hash join and nested-loop join agree on equi-joins.
func TestJoinStrategiesAgree(t *testing.T) {
	pred := expr.MustParse("k = k2")
	f := func(seedA, seedB int64, sizeA, sizeB uint8) bool {
		a := randomRelation(int(sizeA)%40, seedA)
		// Second relation with a renamed key column so the predicate is
		// unambiguous.
		rng := rand.New(rand.NewSource(seedB))
		b := New("B", MustSchema(
			Column{Name: "k2", Kind: types.Int},
			Column{Name: "w", Kind: types.Float},
		))
		for i := 0; i < int(sizeB)%40; i++ {
			b.MustAppend([]types.Value{
				types.NewInt(int64(rng.Intn(50))),
				types.NewFloat(rng.Float64()),
			})
		}
		h, err1 := Join(a, b, pred, JoinHash)
		n, err2 := Join(a, b, pred, JoinNestedLoop)
		if err1 != nil || err2 != nil {
			return false
		}
		return h.Len() == n.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// tupleBag counts a relation's tuples by their printed form, so outputs
// of different join strategies compare as multisets.
func tupleBag(r *Relation) map[string]int {
	bag := make(map[string]int, r.Len())
	for i := 0; i < r.Len(); i++ {
		bag[fmt.Sprint(r.Tuple(i))]++
	}
	return bag
}

// floatColumn builds a one-column Float relation whose column is named
// like the relation.
func floatColumn(name string, vs ...types.Value) *Relation {
	r := New(name, MustSchema(Column{Name: name, Kind: types.Float}))
	for _, v := range vs {
		r.MustAppend([]types.Value{v})
	}
	return r
}

// NaN compares equal to every number (types.Value.Compare), so every
// strategy must keep a NaN key's pairs, on either side of the join and
// against Int or Float keys, exactly as the nested loop does.
func TestJoinStrategiesAgreeOnNaNKeys(t *testing.T) {
	nan := types.NewFloat(math.NaN())
	ints := New("i", MustSchema(Column{Name: "i", Kind: types.Int}))
	for _, v := range []int64{1, 2, 3} {
		ints.MustAppend([]types.Value{types.NewInt(v)})
	}
	a := floatColumn("a", nan, types.NewFloat(1))
	b := floatColumn("b", types.NewFloat(1), types.NewFloat(2))
	c := floatColumn("c", types.NewFloat(2), nan, types.Null, types.NewFloat(5))
	cases := []struct {
		name string
		l, r *Relation
		pred string
	}{
		{"left", a, b, "a = b"},
		{"right", b, a, "b = a"},
		{"both", a, c, "a = c"},
		{"int", ints, c, "i = c"},
		{"residual", c, ints, "c = i and i > 1"},
	}
	for _, tc := range cases {
		want, err := Join(tc.l, tc.r, expr.MustParse(tc.pred), JoinNestedLoop)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []JoinStrategy{JoinAuto, JoinHash} {
			got, err := Join(tc.l, tc.r, expr.MustParse(tc.pred), s)
			if err != nil {
				t.Fatalf("%s/%d: %v", tc.name, s, err)
			}
			if !reflect.DeepEqual(tupleBag(got), tupleBag(want)) {
				t.Errorf("%s/%d: rows %v, nested loop %v", tc.name, s, tupleBag(got), tupleBag(want))
			}
		}
	}
}

// Property: provenance always points at the true originating tuple.
func TestProvenanceProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := randomRelation(int(size)%50+5, seed)
		restricted, err := Restrict(r, expr.MustParse("v > -10.0"))
		if err != nil {
			return false
		}
		sorted, err := Sort(restricted, "k", true)
		if err != nil {
			return false
		}
		sampled, err := Sample(sorted, 0.7, seed)
		if err != nil {
			return false
		}
		for i := 0; i < sampled.Len(); i++ {
			base, row := sampled.BaseRow(i)
			if base != r {
				return false
			}
			// The traced tuple must be identical.
			for j := range sampled.Tuple(i) {
				if !sampled.Tuple(i)[j].Equal(r.Tuple(row)[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
