package rel

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

// Views share their source's chunks. These tests hold every view
// operator to a test-local reference that materializes each step row by
// row into chunks of its own, over a resident source and over the same
// table reloaded chunk-backed under a quota small enough to evict during
// the scan.

// refRel is the reference's relation: tuples materialized into their own
// chunks, and per tuple the name of the relation it derives from and the
// row there.
type refRel struct {
	r    *Relation
	base []string
	rows []int
}

// refSource wraps a base table as the reference's starting point.
func refSource(r *Relation) refRel {
	out := refRel{r: r}
	for i := 0; i < r.Len(); i++ {
		out.base = append(out.base, r.Name())
		out.rows = append(out.rows, i)
	}
	return out
}

// tupleEnv evaluates an expression over one materialized tuple of shape,
// reading a computed attribute whose definition fails as null.
type tupleEnv struct {
	shape *Relation
	t     []types.Value
}

func (e tupleEnv) AttrValue(name string) (types.Value, bool) {
	if i := e.shape.schema.Index(name); i >= 0 {
		return e.t[i], true
	}
	for _, c := range e.shape.computed {
		if c.Name == name {
			v, err := expr.Eval(c.Expr, e)
			if err != nil {
				return types.Null, true
			}
			return v, true
		}
	}
	return types.Null, false
}

// take builds the reference relation holding f's tuples at rows under
// shape's schema, with columns cols of f (nil: all).
func (f refRel) take(shape *Relation, rows, cols []int) refRel {
	out := refRel{r: New("", shape.schema)}
	out.r.computed = shape.computed
	for _, i := range rows {
		t := f.r.Tuple(i)
		if cols != nil {
			nt := make([]types.Value, len(cols))
			for j, c := range cols {
				nt[j] = t[c]
			}
			t = nt
		}
		out.r.MustAppend(t)
		out.base = append(out.base, f.base[i])
		out.rows = append(out.rows, f.rows[i])
	}
	return out
}

// viewStep is one step of a random chain.
type viewStep struct {
	kind  string
	preds []expr.Node // restrict and join use preds[0]; partition all
	pick  int         // the partition output the chain continues with
	names []string    // project
	attr  string      // sort
	desc  bool
	n     int // limit
	p     float64
	seed  int64
	right *Relation // join
}

func (s viewStep) String() string {
	return fmt.Sprintf("%s%v%v%s%d", s.kind, s.preds, s.names, s.attr, s.n)
}

// run applies the step through the operators.
func (s viewStep) run(r *Relation) (*Relation, error) {
	switch s.kind {
	case "restrict":
		return Restrict(r, s.preds[0])
	case "project":
		return Project(r, s.names)
	case "sample":
		return Sample(r, s.p, s.seed)
	case "sort":
		return Sort(r, s.attr, s.desc)
	case "limit":
		return Limit(r, s.n)
	case "distinct":
		return Distinct(r)
	case "partition":
		parts, err := Partition(r, s.preds)
		if err != nil {
			return nil, err
		}
		return parts[s.pick], nil
	case "join":
		return Join(r, s.right, s.preds[0], JoinNestedLoop)
	}
	return nil, fmt.Errorf("unknown step %q", s.kind)
}

// ref applies the step to the reference, row by row.
func (s viewStep) ref(f refRel) (refRel, error) {
	n := f.r.Len()
	test := func(p expr.Node, i int) (bool, error) {
		return expr.EvalPredicate(p, tupleEnv{f.r, f.r.Tuple(i)})
	}
	var rows []int
	switch s.kind {
	case "restrict":
		for i := 0; i < n; i++ {
			ok, err := test(s.preds[0], i)
			if err != nil {
				return refRel{}, fmt.Errorf("rel: restrict: %w", err)
			}
			if ok {
				rows = append(rows, i)
			}
		}
	case "project":
		schema, err := f.r.schema.project(s.names)
		if err != nil {
			return refRel{}, err
		}
		cols := make([]int, len(s.names))
		for j, name := range s.names {
			cols[j] = f.r.schema.Index(name)
		}
		return f.take(f.r.derive(schema, true), identityMap(n), cols), nil
	case "sample":
		rng := rand.New(rand.NewSource(s.seed))
		for i := 0; i < n; i++ {
			if rng.Float64() < s.p {
				rows = append(rows, i)
			}
		}
	case "sort":
		keys := make([]types.Value, n)
		for i := range keys {
			keys[i], _ = tupleEnv{f.r, f.r.Tuple(i)}.AttrValue(s.attr)
		}
		rows = identityMap(n)
		var sortErr error
		sort.SliceStable(rows, func(a, b int) bool {
			c, err := keys[rows[a]].Compare(keys[rows[b]])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if s.desc {
				return c > 0
			}
			return c < 0
		})
		if sortErr != nil {
			return refRel{}, fmt.Errorf("rel: sort on %q: %w", s.attr, sortErr)
		}
	case "limit":
		rows = identityMap(min(s.n, n))
	case "distinct":
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			var key []byte
			for _, v := range f.r.Tuple(i) {
				key = appendKeyBytes(key, v)
			}
			if !seen[string(key)] {
				seen[string(key)] = true
				rows = append(rows, i)
			}
		}
	case "partition":
		for i := 0; i < n; i++ {
			for k, p := range s.preds {
				ok, err := test(p, i)
				if err != nil {
					return refRel{}, fmt.Errorf("rel: partition: %w", err)
				}
				if ok {
					if k == s.pick {
						rows = append(rows, i)
					}
					break
				}
			}
		}
	case "join":
		shape, _, err := joinShape(f.r, s.right)
		if err != nil {
			return refRel{}, err
		}
		out := refRel{r: shape}
		for i := 0; i < n; i++ {
			for j := 0; j < s.right.Len(); j++ {
				t := append(f.r.Tuple(i), s.right.Tuple(j)...)
				ok, err := expr.EvalPredicate(s.preds[0], tupleEnv{shape, t})
				if err != nil {
					return refRel{}, fmt.Errorf("rel: join: %w", err)
				}
				if ok {
					out.r.MustAppend(t)
					out.base = append(out.base, "")
					out.rows = append(out.rows, out.r.Len()-1)
				}
			}
		}
		return out, nil
	}
	return f.take(f.r, rows, nil), nil
}

// viewFingerprint renders a relation's shape, tuples and provenance.
func viewFingerprint(r *Relation, base func(i int) (string, int)) string {
	var sb strings.Builder
	sb.WriteString(r.schema.String() + "|")
	for _, c := range r.computed {
		fmt.Fprintf(&sb, "%s=%s;", c.Name, c.Expr)
	}
	for i := 0; i < r.Len(); i++ {
		name, row := base(i)
		fmt.Fprintf(&sb, "\n%v@%s[%d]", r.Tuple(i), name, row)
	}
	return sb.String()
}

// randomViewChain draws a chain of up to five steps over the columns of
// bigRelation, each step's parameters valid for the columns left by the
// steps before it. A failing chain ends on a predicate that divides by
// zero wherever grp = 3, when id and grp survived.
func randomViewChain(rng *rand.Rand, right *Relation, failing bool) []viewStep {
	type pred struct {
		src  string
		cols []string
	}
	preds := []pred{
		{"id % 3 = 0 and val > -10.0", []string{"id", "val"}},
		{"score > 0.0 or tag = 'bb'", []string{"val", "grp", "tag"}},
		{"grp < 4 and len(tag) >= 2", []string{"grp", "tag"}},
		{"val * val > 100.0", []string{"val"}},
		{"id < 9000", []string{"id"}},
		{"id / (grp - 3) > 10", []string{"id", "grp"}}, // a zero divisor wherever grp = 3
	}
	cols := []string{"id", "grp", "val", "tag"}
	has := func(need []string) bool {
		for _, c := range need {
			if !strings.Contains(" "+strings.Join(cols, " ")+" ", " "+c+" ") {
				return false
			}
		}
		return true
	}
	pickPred := func() (expr.Node, bool) {
		var ok []pred
		for _, p := range preds[:len(preds)-1] {
			if has(p.cols) {
				ok = append(ok, p)
			}
		}
		if has(preds[len(preds)-1].cols) && rng.Intn(3) == 0 {
			ok = append(ok, preds[len(preds)-1])
		}
		if len(ok) == 0 {
			return nil, false
		}
		return expr.MustParse(ok[rng.Intn(len(ok))].src), true
	}
	var steps []viewStep
	joined := false
	for len(steps) < 1+rng.Intn(5) {
		s := viewStep{kind: []string{"restrict", "project", "sample", "sort", "limit", "distinct", "partition", "join"}[rng.Intn(8)]}
		switch s.kind {
		case "restrict":
			p, ok := pickPred()
			if !ok {
				continue
			}
			s.preds = []expr.Node{p}
		case "partition":
			p1, ok1 := pickPred()
			p2, ok2 := pickPred()
			if !ok1 || !ok2 {
				continue
			}
			s.preds, s.pick = []expr.Node{p1, p2}, rng.Intn(2)
		case "project":
			perm := rng.Perm(len(cols))[:1+rng.Intn(len(cols))]
			for _, i := range perm {
				s.names = append(s.names, cols[i])
			}
			cols = s.names
		case "sample":
			s.p, s.seed = rng.Float64(), rng.Int63()
		case "sort":
			s.attr, s.desc = cols[rng.Intn(len(cols))], rng.Intn(2) == 0
		case "limit":
			s.n = rng.Intn(3 * DefaultChunkRows)
		case "join":
			if joined || !has([]string{"grp"}) {
				continue
			}
			joined = true
			s.right = right
			s.preds = []expr.Node{expr.MustParse("grp = g2 and w > 0.25")}
			cols = append(append([]string(nil), cols...), "g2", "w")
		}
		steps = append(steps, s)
	}
	if last := preds[len(preds)-1]; failing && has(last.cols) {
		steps = append(steps, viewStep{kind: "restrict", preds: []expr.Node{expr.MustParse(last.src)}})
	}
	return steps
}

// TestViewChainsMatchReference runs random chains of restrict, project,
// sample, sort, limit, distinct, partition and join over a resident
// source and over the same table reloaded chunk-backed under a quota
// that evicts during the scan. Every step's tuples, BaseRow of every
// row, and error must equal the row-by-row reference's.
func TestViewChainsMatchReference(t *testing.T) {
	src := bigRelation(t, 2*DefaultChunkRows+321)
	src.name = "Src"
	right := New("D", MustSchema(Column{Name: "g2", Kind: types.Int}, Column{Name: "w", Kind: types.Float}))
	for i := 0; i < 9; i++ {
		right.MustAppend([]types.Value{types.NewInt(int64(i % 7)), types.NewFloat(float64(i) / 9)})
	}
	spilled := asChunkBacked(t, src, 1024)
	spilled.name = "Src"
	ck, err := spilled.cols.chunk(0)
	if err != nil {
		t.Fatal(err)
	}
	prevQuota := MemoryQuota()
	SetMemoryQuota(3 * ck.Bytes())
	defer SetMemoryQuota(prevQuota)
	prevW := SetScanWorkers(0)
	defer SetScanWorkers(prevW)
	evictions := ChunkCacheStats().Evictions

	rng := rand.New(rand.NewSource(26))
	errs := 0
	for trial := 0; trial < 40; trial++ {
		steps := randomViewChain(rng, right, trial%5 == 0)
		SetScanWorkers(1 + rng.Intn(3))
		want := refSource(src)
		wantFP := func() string {
			return viewFingerprint(want.r, func(i int) (string, int) { return want.base[i], want.rows[i] })
		}
		cur := []*Relation{src, spilled}
		for si, s := range steps {
			var werr error
			want, werr = s.ref(want)
			for ci, in := range cur {
				got, gerr := s.run(in)
				what := fmt.Sprintf("trial %d step %d %v (source %d)", trial, si, s, ci)
				if (gerr != nil) != (werr != nil) || gerr != nil && gerr.Error() != werr.Error() {
					t.Fatalf("%s: error %v, reference %v", what, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				fp := viewFingerprint(got, func(i int) (string, int) {
					base, row := got.BaseRow(i)
					return base.Name(), row
				})
				if fp != wantFP() {
					t.Fatalf("%s: differs from the reference:\n got  %.300s\n want %.300s", what, fp, wantFP())
				}
				cur[ci] = got
			}
			if werr != nil {
				errs++
				break
			}
		}
	}
	if errs == 0 {
		t.Error("no chain raised an error: the generator no longer checks error identity")
	}
	if ChunkCacheStats().Evictions == evictions {
		t.Error("the chunk-backed source never evicted: the quota no longer forces faults during scans")
	}
}

// A view written as a segment holds its own tuples, not its store's.
func TestSegmentOfAViewHoldsItsTuples(t *testing.T) {
	src := bigRelation(t, DefaultChunkRows+77)
	v, err := Restrict(src, expr.MustParse("id % 3 = 1"))
	if err == nil {
		v, err = Project(v, []string{"val", "id"})
	}
	if err != nil {
		t.Fatal(err)
	}
	b := NewMemBackend()
	if err := b.WriteSegment("v", v); err != nil {
		t.Fatal(err)
	}
	cs, err := b.OpenSegment("v", v.schema)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromChunkSource("v", v.schema, cs)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != v.Len() {
		t.Fatalf("segment holds %d rows, view %d", back.Len(), v.Len())
	}
	for i := 0; i < v.Len(); i++ {
		if fmt.Sprint(back.Tuple(i)) != fmt.Sprint(v.Tuple(i)) {
			t.Fatalf("row %d: segment %v, view %v", i, back.Tuple(i), v.Tuple(i))
		}
	}
}

// A join over a selection of a chunk-backed store gathers the selection
// into pinned chunks once, in store order, and later joins over the same
// view fault nothing: the join's hash-order reads never reach the source.
// Concurrent first joins agree on one gathered copy.
func TestJoinPinsASpilledSelectionOnce(t *testing.T) {
	src := asChunkBacked(t, bigRelation(t, 3*DefaultChunkRows), 1024)
	right := New("D", MustSchema(Column{Name: "g2", Kind: types.Int}))
	for i := 0; i < 7; i++ {
		right.MustAppend([]types.Value{types.NewInt(int64(i))})
	}
	ck, err := src.cols.chunk(0)
	if err != nil {
		t.Fatal(err)
	}
	prevQuota := MemoryQuota()
	SetMemoryQuota(2 * ck.Bytes())
	defer SetMemoryQuota(prevQuota)
	v, err := Restrict(src, expr.MustParse("id % 2 = 0"))
	if err != nil {
		t.Fatal(err)
	}
	pred := expr.MustParse("grp = g2")
	var wg sync.WaitGroup
	outs := make([]*Relation, 4)
	errs := make([]error, len(outs))
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = Join(v, right, pred, JoinHash)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if relFingerprint(t, outs[i]) != relFingerprint(t, outs[0]) {
			t.Fatalf("concurrent join %d differs", i)
		}
	}
	first := outs[0]
	loads := ChunkCacheStats().Loads
	again, err := Join(v, right, pred, JoinHash)
	if err != nil {
		t.Fatal(err)
	}
	if got := ChunkCacheStats().Loads - loads; got != 0 {
		t.Errorf("a second join over the same view faulted %d chunks", got)
	}
	if relFingerprint(t, again) != relFingerprint(t, first) {
		t.Error("the second join differs from the first")
	}
	want, err := Restrict(bigRelation(t, 3*DefaultChunkRows), expr.MustParse("id % 2 = 0"))
	if err == nil {
		want, err = Join(want, right, pred, JoinHash)
	}
	if err != nil {
		t.Fatal(err)
	}
	if relFingerprint(t, first) != relFingerprint(t, want) {
		t.Error("the join over the spilled view differs from the resident join")
	}
}

// A write to a view lands in a store of the view's own: its source keeps
// its tuples, old tuples still trace to the source, and an appended one
// is its own origin.
func TestViewWritesDoNotReachTheirSource(t *testing.T) {
	src := bigRelation(t, DefaultChunkRows+10)
	src.name = "Src"
	want := fmt.Sprint(src.Tuple(1), src.Tuple(src.Len()-1), src.Len())
	v, err := Restrict(src, expr.MustParse("id % 2 = 1"))
	if err == nil {
		v, err = Project(v, []string{"val", "id", "grp", "tag"})
	}
	if err != nil {
		t.Fatal(err)
	}
	n := v.Len()
	if err := v.Update(0, "val", types.NewFloat(-1)); err != nil {
		t.Fatal(err)
	}
	if err := v.Append([]types.Value{types.NewFloat(2), types.NewInt(-7), types.NewInt(1), types.NewText("zz")}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(src.Tuple(1), src.Tuple(src.Len()-1), src.Len()); got != want {
		t.Fatalf("the source changed under a write to its view: %s, want %s", got, want)
	}
	if v.Len() != n+1 || v.Row(0).Attr("val").Float() != -1 || v.Row(n).Attr("id").Int() != -7 {
		t.Fatalf("view after writes: %d rows, %v, %v", v.Len(), v.Tuple(0), v.Tuple(n))
	}
	if base, row := v.BaseRow(1); base != src || row != 3 {
		t.Fatalf("BaseRow(1) = (%s, %d), want (Src, 3)", base.Name(), row)
	}
	if base, row := v.BaseRow(n); base != v || row != n {
		t.Fatalf("the appended tuple traces to (%s, %d), want itself", base.Name(), row)
	}
}
