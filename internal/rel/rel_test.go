package rel

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

func testRelation(t testing.TB) *Relation {
	t.Helper()
	r := New("Emp", MustSchema(
		Column{Name: "id", Kind: types.Int},
		Column{Name: "name", Kind: types.Text},
		Column{Name: "dept", Kind: types.Text},
		Column{Name: "salary", Kind: types.Float},
		Column{Name: "hired", Kind: types.Date},
	))
	rows := []struct {
		id      int64
		name    string
		dept    string
		salary  float64
		y, m, d int
	}{
		{1, "alice", "eng", 9000, 1988, 3, 1},
		{2, "bob", "eng", 4500, 1991, 7, 15},
		{3, "carol", "sales", 5200, 1989, 1, 2},
		{4, "dan", "sales", 3100, 1992, 11, 30},
		{5, "erin", "ops", 7000, 1985, 6, 6},
	}
	for _, x := range rows {
		r.MustAppend([]types.Value{
			types.NewInt(x.id), types.NewText(x.name), types.NewText(x.dept),
			types.NewFloat(x.salary), types.DateYMD(x.y, x.m, x.d),
		})
	}
	return r
}

func TestSchemaBasics(t *testing.T) {
	s := MustSchema(Column{Name: "a", Kind: types.Int}, Column{Name: "b", Kind: types.Text})
	if s.Len() != 2 || s.Index("b") != 1 || s.Index("z") != -1 {
		t.Fatal("schema lookup broken")
	}
	if k, ok := s.KindOf("a"); !ok || k != types.Int {
		t.Fatal("KindOf broken")
	}
	if s.String() != "(a int, b text)" {
		t.Errorf("String = %s", s)
	}
	if !s.Equal(MustSchema(Column{Name: "a", Kind: types.Int}, Column{Name: "b", Kind: types.Text})) {
		t.Error("Equal false negative")
	}
	if s.Equal(MustSchema(Column{Name: "a", Kind: types.Int})) {
		t.Error("Equal false positive")
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "", Kind: types.Int}); err == nil {
		t.Error("empty name accepted")
	}
	for _, k := range []types.Kind{types.Invalid, -1, types.Date + 1, 99} {
		if _, err := NewSchema(Column{Name: "a", Kind: k}); err == nil {
			t.Errorf("kind %d accepted", k)
		}
	}
	if _, err := NewSchema(
		Column{Name: "a", Kind: types.Int},
		Column{Name: "a", Kind: types.Text},
	); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestAppendValidation(t *testing.T) {
	r := New("T", MustSchema(Column{Name: "a", Kind: types.Int}))
	if err := r.Append([]types.Value{types.NewInt(1), types.NewInt(2)}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := r.Append([]types.Value{types.NewText("x")}); err == nil {
		t.Error("wrong kind accepted")
	}
	if err := r.Append([]types.Value{types.Null}); err != nil {
		t.Errorf("null rejected: %v", err)
	}
}

func TestComputedAttributes(t *testing.T) {
	r := testRelation(t)
	if err := r.AddComputed("monthly", expr.MustParse("salary / 12")); err != nil {
		t.Fatal(err)
	}
	if err := r.AddComputed("label", expr.MustParse("name || ' (' || dept || ')'")); err != nil {
		t.Fatal(err)
	}
	// Computed may reference computed.
	if err := r.AddComputed("monthly2", expr.MustParse("monthly * 2")); err != nil {
		t.Fatal(err)
	}
	row := r.Row(0)
	if got := row.Attr("monthly").Float(); got != 750 {
		t.Errorf("monthly = %g", got)
	}
	if got := row.Attr("label").Text(); got != "alice (eng)" {
		t.Errorf("label = %q", got)
	}
	if got := row.Attr("monthly2").Float(); got != 1500 {
		t.Errorf("monthly2 = %g", got)
	}

	// Duplicates and bad definitions rejected.
	if err := r.AddComputed("monthly", expr.MustParse("1")); err == nil {
		t.Error("duplicate computed accepted")
	}
	if err := r.AddComputed("bad", expr.MustParse("nosuch + 1")); err == nil {
		t.Error("dangling reference accepted")
	}

	// SetComputed with a dependent downstream may not change kind.
	if err := r.SetComputed("monthly", expr.MustParse("'text now'")); err == nil {
		t.Error("kind change under dependency accepted")
	}
	if err := r.SetComputed("monthly", expr.MustParse("salary / 10")); err != nil {
		t.Fatal(err)
	}
	if got := r.Row(0).Attr("monthly2").Float(); got != 1800 {
		t.Errorf("redefinition did not propagate: %g", got)
	}

	// RemoveComputed refuses when depended upon.
	if err := r.RemoveComputed("monthly"); err == nil {
		t.Error("removal of depended-on attribute accepted")
	}
	if err := r.RemoveComputed("monthly2"); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveComputed("monthly"); err != nil {
		t.Fatal(err)
	}
	if r.HasAttr("monthly") {
		t.Error("attribute still present after removal")
	}
}

func TestProject(t *testing.T) {
	r := testRelation(t)
	p, err := Project(r, []string{"name", "salary"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema().Len() != 2 || p.Len() != 5 {
		t.Fatalf("projected to %s with %d tuples", p.Schema(), p.Len())
	}
	if got := p.Row(1).Attr("name").Text(); got != "bob" {
		t.Errorf("row 1 name = %q", got)
	}
	if p.HasAttr("dept") {
		t.Error("dept survived projection")
	}
	if _, err := Project(r, []string{"nosuch"}); err == nil {
		t.Error("projection of missing column accepted")
	}

	// Computed attributes survive when their references do.
	r2 := testRelation(t)
	if err := r2.AddComputed("half", expr.MustParse("salary / 2")); err != nil {
		t.Fatal(err)
	}
	p2, err := Project(r2, []string{"id", "salary"})
	if err != nil {
		t.Fatal(err)
	}
	if !p2.HasAttr("half") {
		t.Error("computed attr with surviving refs dropped")
	}
	p3, err := Project(r2, []string{"id", "name"})
	if err != nil {
		t.Fatal(err)
	}
	if p3.HasAttr("half") {
		t.Error("computed attr with dead refs kept")
	}
}

func TestRestrict(t *testing.T) {
	r := testRelation(t)
	out, err := Restrict(r, expr.MustParse("salary > 5000"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("restricted to %d tuples, want 3", out.Len())
	}
	for i := 0; i < out.Len(); i++ {
		if out.Row(i).Attr("salary").Float() <= 5000 {
			t.Fatal("predicate violated")
		}
	}
	// Type errors rejected up front.
	if _, err := Restrict(r, expr.MustParse("salary + 1")); err == nil {
		t.Error("non-bool predicate accepted")
	}
	if _, err := Restrict(r, expr.MustParse("nosuch = 1")); err == nil {
		t.Error("unknown attr accepted")
	}
	// Null predicate results drop the tuple.
	r.MustAppend([]types.Value{
		types.NewInt(6), types.NewText("fred"), types.NewText("ops"),
		types.Null, types.DateYMD(1990, 1, 1),
	})
	out, err = Restrict(r, expr.MustParse("salary > 0"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Fatalf("null salary retained: %d tuples", out.Len())
	}
}

func TestSample(t *testing.T) {
	r := testRelation(t)
	all, err := Sample(r, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != r.Len() {
		t.Errorf("p=1 kept %d of %d", all.Len(), r.Len())
	}
	none, err := Sample(r, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if none.Len() != 0 {
		t.Errorf("p=0 kept %d", none.Len())
	}
	if _, err := Sample(r, 1.5, 1); err == nil {
		t.Error("p > 1 accepted")
	}
	// Determinism under a fixed seed.
	a, _ := Sample(r, 0.5, 42)
	b, _ := Sample(r, 0.5, 42)
	if a.Len() != b.Len() {
		t.Error("same seed, different sample")
	}
}

func TestJoin(t *testing.T) {
	emp := testRelation(t)
	dept := New("Dept", MustSchema(
		Column{Name: "dept", Kind: types.Text},
		Column{Name: "floor", Kind: types.Int},
	))
	dept.MustAppend([]types.Value{types.NewText("eng"), types.NewInt(3)})
	dept.MustAppend([]types.Value{types.NewText("sales"), types.NewInt(1)})

	pred := expr.MustParse("dept = dept_r")
	for _, strat := range []JoinStrategy{JoinAuto, JoinHash, JoinNestedLoop} {
		out, err := Join(emp, dept, pred, strat)
		if err != nil {
			t.Fatalf("strategy %d: %v", strat, err)
		}
		if out.Len() != 4 { // 2 eng + 2 sales; ops unmatched
			t.Fatalf("strategy %d: %d tuples, want 4", strat, out.Len())
		}
		if !out.Schema().Has("dept_r") {
			t.Fatal("collision column not renamed")
		}
	}

	// Theta join falls back to nested loop under auto.
	theta := expr.MustParse("salary > 5000.0 and floor = 1")
	out, err := Join(emp, dept, theta, JoinAuto)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 { // 3 emps over 5000 x the single floor-1 dept
		t.Fatalf("theta join = %d tuples, want 3", out.Len())
	}
	if _, err := Join(emp, dept, theta, JoinHash); err == nil {
		t.Error("hash join accepted a non-equi predicate")
	}
}

func TestSort(t *testing.T) {
	r := testRelation(t)
	asc, err := Sort(r, "salary", false)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i := 0; i < asc.Len(); i++ {
		s := asc.Row(i).Attr("salary").Float()
		if s < prev {
			t.Fatal("ascending sort out of order")
		}
		prev = s
	}
	desc, err := Sort(r, "salary", true)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Row(0).Attr("name").Text() != "alice" {
		t.Error("descending top is not the max")
	}
	if _, err := Sort(r, "nosuch", false); err == nil {
		t.Error("sort on missing attr accepted")
	}
}

func TestUnion(t *testing.T) {
	a := testRelation(t)
	b := testRelation(t)
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 10 {
		t.Fatalf("union = %d", u.Len())
	}
	other := New("X", MustSchema(Column{Name: "q", Kind: types.Int}))
	if _, err := Union(a, other); err == nil {
		t.Error("schema mismatch accepted")
	}
	if _, err := Union(); err == nil {
		t.Error("empty union accepted")
	}
}

func TestPartition(t *testing.T) {
	r := testRelation(t)
	parts, err := Partition(r, []expr.Node{
		expr.MustParse("salary <= 5000.0"),
		expr.MustParse("salary > 5000.0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if parts[0].Len()+parts[1].Len() != r.Len() {
		t.Fatal("partition lost tuples")
	}
	if parts[0].Len() != 2 || parts[1].Len() != 3 {
		t.Fatalf("split %d/%d", parts[0].Len(), parts[1].Len())
	}
	// First matching predicate wins; overlapping predicates do not
	// duplicate.
	parts, err = Partition(r, []expr.Node{
		expr.MustParse("true"),
		expr.MustParse("salary > 0.0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if parts[0].Len() != 5 || parts[1].Len() != 0 {
		t.Fatal("first-match rule violated")
	}
}

func TestDistinctValues(t *testing.T) {
	r := testRelation(t)
	vals, err := DistinctValues(r, "dept")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("distinct = %v", vals)
	}
	if vals[0].Text() != "eng" {
		t.Error("first-appearance order violated")
	}
}

// TestUpdateAndIndexMaintenance checks that Update rejects a kind
// mismatch, an out-of-range row and a missing column.
func TestUpdateAndIndexMaintenance(t *testing.T) {
	r := testRelation(t)
	if err := r.Update(0, "salary", types.NewText("x")); err == nil {
		t.Error("kind mismatch accepted")
	}
	if err := r.Update(99, "salary", types.NewFloat(1)); err == nil {
		t.Error("row out of range accepted")
	}
	if err := r.Update(0, "nosuch", types.NewFloat(1)); err == nil {
		t.Error("missing column accepted")
	}
}

func TestMapColumn(t *testing.T) {
	r := testRelation(t)
	out, err := MapColumn(r, "salary", expr.MustParse("salary * 2"))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Row(0).Attr("salary").Float(); got != 18000 {
		t.Errorf("mapped = %g", got)
	}
	// Original untouched.
	if got := r.Row(0).Attr("salary").Float(); got != 9000 {
		t.Errorf("input mutated: %g", got)
	}
	// Kind change is allowed and reflected in the schema.
	out, err = MapColumn(r, "salary", expr.MustParse("str(salary)"))
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := out.Schema().KindOf("salary"); k != types.Text {
		t.Errorf("kind after map = %s", k)
	}
	if _, err := MapColumn(r, "nosuch", expr.MustParse("1")); err == nil {
		t.Error("missing column accepted")
	}
}

func TestSwapColumns(t *testing.T) {
	r := testRelation(t)
	out, err := SwapColumns(r, "name", "dept")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Row(0).Attr("name").Text(); got != "eng" {
		t.Errorf("name after swap = %q", got)
	}
	if got := out.Row(0).Attr("dept").Text(); got != "alice" {
		t.Errorf("dept after swap = %q", got)
	}
	if _, err := SwapColumns(r, "name", "salary"); err == nil {
		t.Error("cross-kind swap accepted")
	}
}

func TestDropColumn(t *testing.T) {
	r := testRelation(t)
	out, err := DropColumn(r, "dept")
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema().Has("dept") || out.Schema().Len() != 4 {
		t.Error("drop failed")
	}
	single := New("S", MustSchema(Column{Name: "only", Kind: types.Int}))
	if _, err := DropColumn(single, "only"); err == nil {
		t.Error("dropping the only column accepted")
	}
}

func TestProvenance(t *testing.T) {
	r := testRelation(t)
	restricted, err := Restrict(r, expr.MustParse("salary > 5000"))
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := Sort(restricted, "salary", true)
	if err != nil {
		t.Fatal(err)
	}
	projected, err := Project(sorted, []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 of the final result is alice (salary 9000), row 0 of Emp.
	base, row := projected.BaseRow(0)
	if base != r || row != 0 {
		t.Fatalf("BaseRow(0) = %s row %d", base.Name(), row)
	}
	// Row 2 is carol (5200), base row 2.
	base, row = projected.BaseRow(2)
	if base != r || row != 2 {
		t.Fatalf("BaseRow(2) = %s row %d", base.Name(), row)
	}
	// Join output has no provenance.
	j, err := Join(r, r, expr.MustParse("id = id_r"), JoinAuto)
	if err != nil {
		t.Fatal(err)
	}
	base, row = j.BaseRow(1)
	if base != j || row != 1 {
		t.Error("join should not claim provenance")
	}
}

func TestRowEnvMissingAttr(t *testing.T) {
	r := testRelation(t)
	if _, ok := r.Row(0).AttrValue("ghost"); ok {
		t.Error("missing attribute reported present")
	}
	if !r.Row(0).Attr("ghost").IsNull() {
		t.Error("missing attribute not null")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := testRelation(t)
	c := r.CowClone()
	if err := c.Update(0, "salary", types.NewFloat(1)); err != nil {
		t.Fatal(err)
	}
	if r.Row(0).Attr("salary").Float() == 1 {
		t.Error("clone shares storage")
	}
}

func TestDistinct(t *testing.T) {
	r := New("D", MustSchema(
		Column{Name: "a", Kind: types.Int},
		Column{Name: "b", Kind: types.Text},
	))
	for _, x := range [][2]interface{}{
		{1, "x"}, {2, "y"}, {1, "x"}, {1, "z"}, {2, "y"},
	} {
		r.MustAppend([]types.Value{
			types.NewInt(int64(x[0].(int))), types.NewText(x[1].(string)),
		})
	}
	out, err := Distinct(r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("distinct = %d tuples, want 3", out.Len())
	}
	// First occurrences kept in order.
	if out.Tuple(0)[1].Text() != "x" || out.Tuple(1)[1].Text() != "y" || out.Tuple(2)[1].Text() != "z" {
		t.Fatal("distinct order wrong")
	}
	// Provenance points at first occurrences.
	base, row := out.BaseRow(2)
	if base != r || row != 3 {
		t.Fatalf("distinct provenance = row %d", row)
	}
}

func TestLimit(t *testing.T) {
	r := testRelation(t)
	out, err := Limit(r, 2)
	if err != nil || out.Len() != 2 {
		t.Fatalf("limit = %d, %v", out.Len(), err)
	}
	out, err = Limit(r, 100)
	if err != nil || out.Len() != r.Len() {
		t.Fatalf("over-limit = %d, %v", out.Len(), err)
	}
	if _, err := Limit(r, -1); err == nil {
		t.Error("negative limit accepted")
	}
}
