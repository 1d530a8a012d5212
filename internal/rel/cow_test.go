package rel

import (
	"math"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

func cowRel(t testing.TB) *Relation {
	t.Helper()
	r := New("C", MustSchema(
		Column{Name: "id", Kind: types.Int},
		Column{Name: "x", Kind: types.Float},
	))
	for i := 0; i < 8; i++ {
		r.MustAppend([]types.Value{types.NewInt(int64(i)), types.NewFloat(float64(i) / 2)})
	}
	def, err := expr.Parse("x * 2.0")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddComputed("x2", def); err != nil {
		t.Fatal(err)
	}
	return r
}

// freeze captures every visible value of a relation so tests can assert
// that a snapshot never moves.
func freeze(r *Relation) [][]types.Value {
	out := make([][]types.Value, r.Len())
	for i := range out {
		out[i] = append([]types.Value(nil), r.Tuple(i)...)
	}
	return out
}

func assertFrozen(t *testing.T, r *Relation, want [][]types.Value) {
	t.Helper()
	if r.Len() != len(want) {
		t.Fatalf("snapshot length moved: %d, want %d", r.Len(), len(want))
	}
	for i, row := range want {
		got := r.Tuple(i)
		for j, v := range row {
			eq, err := got[j].Compare(v)
			if err != nil || eq != 0 {
				t.Fatalf("snapshot row %d col %d moved: %v, want %v", i, j, got[j], v)
			}
		}
	}
}

func TestCowCloneUpdateInvisibleToOriginal(t *testing.T) {
	orig := cowRel(t)
	before := freeze(orig)
	origGen := orig.Generation()

	next := orig.CowClone()
	if err := next.Update(3, "x", types.NewFloat(99)); err != nil {
		t.Fatal(err)
	}
	assertFrozen(t, orig, before)
	if orig.Generation() != origGen {
		t.Fatalf("original generation moved from %d to %d", origGen, orig.Generation())
	}
	if got := next.Tuple(3)[1].Float(); got != 99 {
		t.Fatalf("clone did not take the update: %v", got)
	}
	if next.Generation() == origGen {
		t.Fatal("clone shares the original's generation after mutation")
	}
}

func TestCowCloneAppendInvisibleToOriginal(t *testing.T) {
	orig := cowRel(t)
	before := freeze(orig)

	next := orig.CowClone()
	next.MustAppend([]types.Value{types.NewInt(100), types.NewFloat(1)})
	assertFrozen(t, orig, before)
	if next.Len() != orig.Len()+1 {
		t.Fatalf("clone length %d, want %d", next.Len(), orig.Len()+1)
	}
}

func TestCowCloneComputedIndependent(t *testing.T) {
	orig := cowRel(t)
	next := orig.CowClone()
	def, err := expr.Parse("x + 1.0")
	if err != nil {
		t.Fatal(err)
	}
	if err := next.SetComputed("x2", def); err != nil {
		t.Fatal(err)
	}
	// The original still evaluates the old definition.
	if got := orig.Row(2).Attr("x2").Float(); got != 2.0 {
		t.Fatalf("original computed x2 = %v, want 2.0 (x*2 at x=1)", got)
	}
	if got := next.Row(2).Attr("x2").Float(); got != 2.0 {
		t.Fatalf("clone computed x2 = %v, want 2.0 (x+1 at x=1)", got)
	}
}

func TestCowClonePreservesProvenance(t *testing.T) {
	orig := cowRel(t)
	sub, err := Restrict(orig, expr.MustParse("id >= 4"))
	if err != nil {
		t.Fatal(err)
	}
	clone := sub.CowClone()
	base, row := clone.BaseRow(0)
	if base != orig || row != 4 {
		t.Fatalf("BaseRow(0) = (%v, %d), want (orig, 4)", base.Name(), row)
	}
}

// tailRel returns a relation whose tail chunk has spare lane capacity,
// so the first append to any version of it can go in place.
func tailRel(t testing.TB, n int) *Relation {
	t.Helper()
	r := New("T", MustSchema(
		Column{Name: "id", Kind: types.Int},
		Column{Name: "tag", Kind: types.Text},
	))
	for i := 0; i < n; i++ {
		r.MustAppend([]types.Value{types.NewInt(int64(i)), types.NewText("p")})
	}
	return r
}

// tailLane returns the backing array of the int lane of r's tail chunk.
func tailLane(t testing.TB, r *Relation) *int64 {
	t.Helper()
	c, err := r.cols.chunk(len(r.cols.slots) - 1)
	if err != nil {
		t.Fatal(err)
	}
	return &c.cols[0].ints[:1][0]
}

// TestForkedAppendsIsolated: two versions forked from one parent each
// append a row. The first writes in place into the shared tail lanes,
// the second must get lanes of its own; each sees only its own row and
// the parent sees neither.
func TestForkedAppendsIsolated(t *testing.T) {
	parent := tailRel(t, 70)
	before := freeze(parent)
	a, b := parent.CowClone(), parent.CowClone()
	a.MustAppend([]types.Value{types.NewInt(1000), types.NewText("a")})
	b.MustAppend([]types.Value{types.NewInt(2000), types.NewText("b")})
	if tailLane(t, a) != tailLane(t, parent) {
		t.Fatal("first fork did not append in place")
	}
	if tailLane(t, b) == tailLane(t, parent) {
		t.Fatal("second fork wrote into lanes the first fork had claimed")
	}
	assertFrozen(t, parent, before)
	for _, c := range []struct {
		r   *Relation
		id  int64
		tag string
	}{{a, 1000, "a"}, {b, 2000, "b"}} {
		if c.r.Len() != 71 {
			t.Fatalf("fork has %d rows, want 71", c.r.Len())
		}
		got := c.r.Tuple(70)
		if got[0].Int() != c.id || got[1].Text() != c.tag {
			t.Fatalf("fork row 70 = %v, want [%d %s]", got, c.id, c.tag)
		}
		head, err := Limit(c.r, 70)
		if err != nil {
			t.Fatal(err)
		}
		assertFrozen(t, head, before)
	}
}

// TestConcurrentForkedAppends: versions forked from one parent append
// at once; the claim admits one writer to the shared lanes, and each
// version still sees exactly its own row.
func TestConcurrentForkedAppends(t *testing.T) {
	parent := tailRel(t, 70)
	forks := make([]*Relation, 8)
	var wg sync.WaitGroup
	for i := range forks {
		forks[i] = parent.CowClone()
		wg.Add(1)
		go func(f *Relation, id int64) {
			defer wg.Done()
			f.MustAppend([]types.Value{types.NewInt(id), types.NewText("f")})
		}(forks[i], int64(1000+i))
	}
	wg.Wait()
	for i, f := range forks {
		if got := f.Tuple(70)[0].Int(); got != int64(1000+i) {
			t.Fatalf("fork %d row 70 holds %d", i, got)
		}
	}
	if parent.Len() != 70 {
		t.Fatalf("parent grew to %d rows", parent.Len())
	}
}

// TestForkedAppendAndUpdateIsolated: one fork appends while another
// updates a tail row and then appends too. The update copies only the
// changed lane; the updating fork's append must still not reach the
// lanes the first fork extended.
func TestForkedAppendAndUpdateIsolated(t *testing.T) {
	parent := tailRel(t, 70)
	before := freeze(parent)
	a, u := parent.CowClone(), parent.CowClone()
	a.MustAppend([]types.Value{types.NewInt(1000), types.NewText("a")})
	if err := u.Update(69, "tag", types.NewText("u")); err != nil {
		t.Fatal(err)
	}
	u.MustAppend([]types.Value{types.NewInt(3000), types.NewText("u2")})
	assertFrozen(t, parent, before)
	if got := a.Tuple(69)[1].Text(); got != "p" {
		t.Fatalf("appending fork sees the other fork's update: %q", got)
	}
	if got := a.Tuple(70); got[0].Int() != 1000 || got[1].Text() != "a" {
		t.Fatalf("appending fork row 70 = %v", got)
	}
	if got := u.Tuple(69)[1].Text(); got != "u" {
		t.Fatalf("updating fork lost its update: %q", got)
	}
	if got := u.Tuple(70); got[0].Int() != 3000 || got[1].Text() != "u2" {
		t.Fatalf("updating fork row 70 = %v", got)
	}
}

// TestSnapshotReadsWhileTailIsWritten is a race-detector test: readers
// scan a frozen version while a writer appends to and updates the same
// tail chunk through successive copy-on-write versions.
func TestSnapshotReadsWhileTailIsWritten(t *testing.T) {
	snap := tailRel(t, 70)
	want := freeze(snap)
	done := make(chan struct{})
	go func() {
		defer close(done)
		cur := snap
		for i := 0; i < 300; i++ {
			next := cur.CowClone()
			next.MustAppend([]types.Value{types.NewInt(int64(100 + i)), types.NewText("w")})
			if err := next.Update(next.Len()-2, "tag", types.NewText("x")); err != nil {
				t.Error(err)
				return
			}
			cur = next
		}
	}()
	for moved := false; !moved; {
		select {
		case <-done:
			assertFrozen(t, snap, want)
			return
		default:
			cu := snap.NewCursor()
			for i := 0; i < snap.Len() && !moved; i++ {
				cu.Seek(i)
				if moved = cu.Attr("id").Int() != int64(i) || cu.Attr("tag").Text() != "p"; moved {
					t.Errorf("snapshot row %d moved under a writer: %v %v", i, cu.Attr("id"), cu.Attr("tag"))
				}
			}
		}
	}
	<-done
}

// TestUpdateRewritesEveryKind: Update replaces a cell of every lane
// kind — value to value (true to false, 0 to -0), value to null and
// null to value — in a new version, leaving the parent version intact.
func TestUpdateRewritesEveryKind(t *testing.T) {
	parent := New("K", segSchema())
	for n := 0; n < 5; n++ {
		parent.MustAppend(segRow(n))
	}
	before := freeze(parent)
	next := parent.CowClone()
	set := map[string][]types.Value{
		"i": {types.NewInt(-7), types.Null, types.NewInt(9)},
		"f": {types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.Null, types.NewFloat(2.5)},
		"s": {types.NewText("zz"), types.Null, types.NewText("")},
		"b": {types.NewBool(false), types.Null, types.NewBool(true)},
		"d": {types.NewDate(-3), types.Null, types.NewDate(40000)},
	}
	for col, vals := range set {
		ci := next.Schema().Index(col)
		for _, v := range vals {
			if err := next.Update(2, col, v); err != nil {
				t.Fatal(err)
			}
			got := next.Tuple(2)[ci]
			if got.Kind() != v.Kind() || keyOf(got) != keyOf(v) || (v.Kind() == types.Float && math.Signbit(got.Float()) != math.Signbit(v.Float())) {
				t.Fatalf("column %s: updated to %v, reads %v", col, v, got)
			}
		}
	}
	assertFrozen(t, parent, before)
}
