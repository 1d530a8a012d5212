package rel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// kernelRelation builds a relation above the kernel's row threshold with
// every storable kind, nulls in every column, zero divisors, NaN floats,
// and computed attributes (one of which always errors), so the kernel's
// bitmap algebra is exercised against the interpreter over the full
// value space.
func kernelRelation(t testing.TB, n int) *Relation {
	t.Helper()
	r := New("K", MustSchema(
		Column{Name: "id", Kind: types.Int},
		Column{Name: "a", Kind: types.Int},
		Column{Name: "b", Kind: types.Int},
		Column{Name: "x", Kind: types.Float},
		Column{Name: "y", Kind: types.Float},
		Column{Name: "tag", Kind: types.Text},
		Column{Name: "flag", Kind: types.Bool},
		Column{Name: "d", Kind: types.Date},
		Column{Name: "d2", Kind: types.Date},
	))
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < n; i++ {
		x := rng.Float64()*40 - 20
		if rng.Intn(41) == 0 {
			x = math.NaN()
		}
		tu := []types.Value{
			types.NewInt(int64(i)),
			types.NewInt(int64(rng.Intn(21) - 10)),
			types.NewInt(int64(rng.Intn(7) - 3)), // zero divisors included
			types.NewFloat(x),
			types.NewFloat(rng.Float64()*10 - 5),
			types.NewText([]string{"a", "bb", "ccc", ""}[rng.Intn(4)]),
			types.NewBool(rng.Intn(2) == 0),
			types.NewDate(int64(rng.Intn(100))),
			types.NewDate(int64(rng.Intn(100))),
		}
		if rng.Intn(9) == 0 {
			tu[rng.Intn(8)+1] = types.Null
		}
		r.MustAppend(tu)
	}
	for _, c := range []struct{ name, def string }{
		{"score", "x * 2.0 + y"},
		{"ib", "a * 3 + id % 11"},
		{"hot", "x > 5.0 and flag"},
		{"broken", "a / (id - id)"},
	} {
		if err := r.AddComputed(c.name, expr.MustParse(c.def)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// asChunkBacked rebuilds r as a chunk-backed relation with the given
// chunk size, its chunks round-tripped through the segment encoding and
// faulted in lazily, carrying the computed attributes over.
func asChunkBacked(t testing.TB, r *Relation, chunkRows int) *Relation {
	t.Helper()
	src := &decodedSource{chunkRows: chunkRows, rows: r.Len()}
	for lo := 0; lo < r.Len(); lo += chunkRows {
		b := newChunkBuilder(r.schema, chunkRows)
		for i := lo; i < min(lo+chunkRows, r.Len()); i++ {
			if err := b.appendRow(r.Tuple(i)); err != nil {
				t.Fatal(err)
			}
		}
		src.images = append(src.images, appendChunk(nil, b.finish()))
	}
	out, err := FromChunkSource(r.name+"_chunks", r.schema, src)
	if err != nil {
		t.Fatal(err)
	}
	out.computed = append([]Computed(nil), r.computed...)
	return out
}

// decodedSource serves chunks decoded from their encoded images on
// every read, as a segment does.
type decodedSource struct {
	images          [][]byte
	chunkRows, rows int
}

func (s *decodedSource) NumChunks() int                  { return len(s.images) }
func (s *decodedSource) ChunkRows() int                  { return s.chunkRows }
func (s *decodedSource) Rows() int                       { return s.rows }
func (s *decodedSource) ReadChunk(i int) (*Chunk, error) { return decodeChunk(s.images[i]) }

// kernelPreds is the differential corpus, also the seed corpus of
// FuzzKernelMatchesInterpreter (testdata/fuzz). kernel marks predicates
// the chunk kernel is expected to accept; the rest must reject cleanly
// and take the interpreter (Calls, text ordering, date arithmetic, float
// modulo, bool comparison).
var kernelPreds = []struct {
	src    string
	kernel bool
}{
	{"a + b * 2 - id % 7 > 0", true},
	{"b != 0 and a / b > 1", true}, // short-circuit masks the zero divisors
	{"b != 0 and a % b = 0", true},
	{"x > 10.0 or y < -2.5", true},
	{"x > a", true},
	{"a * 1.5 <= y + 0.25", true},
	{"tag = 'bb'", true},
	{"tag != 'a' and a >= 0", true},
	{"flag and x > 0.0", true},
	{"not flag or a = 3", true},
	{"d >= d2", true},
	{"d != d2 or flag", true},
	{"-a < 2 and -x < 19.5", true},
	{"a > 2 + 3", true},
	{"score > 1.0", true},
	{"ib > 5 and score < 30.0", true},
	{"broken > 0 or a < 0", true},                    // erroring computed reads as null
	{"x = x", true},                                  // NaN compares equal under three-way float compare
	{"id * 1000000000000 * 1000000000000 > 0", true}, // int64 wrap
	{"(a > 0 and b > 0) or (x < 0.0 and not flag)", true},
	{"hot or y > 4.0", true},
	{"len(tag) > 2", false},  // builtin call
	{"tag < 'c'", false},     // text ordering
	{"d - d2 > 10", false},   // date arithmetic
	{"y % 3.0 = 0.0", false}, // float modulo
	{"flag = true", false},   // bool comparison
	{"contains(tag, 'c')", false},
}

// TestKernelRestrictMatchesRowPaths holds the kernel equal to the
// interpreter over a relation spanning several chunks, and checks the
// kernel really ran (or really declined) per predicate.
func TestKernelRestrictMatchesRowPaths(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	r := kernelRelation(t, 2*DefaultChunkRows+123)
	for _, tc := range kernelPreds {
		pred := expr.MustParse(tc.src)
		before := obs.CounterValue(obs.RelKernelScans)
		got, err := Restrict(r, pred)
		if err != nil {
			t.Fatalf("kernel restrict %q: %v", tc.src, err)
		}
		ran := obs.CounterValue(obs.RelKernelScans) > before
		if ran != tc.kernel {
			t.Errorf("restrict %q: kernel ran=%v, want %v", tc.src, ran, tc.kernel)
		}
		var interp *Relation
		withInterpreter(t, func() {
			interp, err = Restrict(r, pred)
		})
		if err != nil {
			t.Fatalf("interpreted restrict %q: %v", tc.src, err)
		}
		if relFingerprint(t, got) != relFingerprint(t, interp) {
			t.Errorf("restrict %q: kernel differs from interpreter", tc.src)
		}
	}
}

// TestKernelChunkBackedMatches runs the corpus over a genuinely chunk-
// backed relation (small chunks, so many chunk boundaries) and holds it
// equal to the row-major interpreter.
func TestKernelChunkBackedMatches(t *testing.T) {
	row := kernelRelation(t, 3000)
	cb := asChunkBacked(t, row, 256)
	for _, tc := range kernelPreds {
		pred := expr.MustParse(tc.src)
		got, err := Restrict(cb, pred)
		if err != nil {
			t.Fatalf("chunk-backed restrict %q: %v", tc.src, err)
		}
		var want *Relation
		withInterpreter(t, func() {
			want, err = Restrict(row, pred)
		})
		if err != nil {
			t.Fatalf("interpreted restrict %q: %v", tc.src, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("restrict %q: %d rows vs %d interpreted", tc.src, got.Len(), want.Len())
		}
		for i := 0; i < got.Len(); i++ {
			gt, wt := got.Tuple(i), want.Tuple(i)
			for c := range gt {
				if keyOf(gt[c]) != keyOf(wt[c]) || gt[c].Kind() != wt[c].Kind() {
					t.Fatalf("restrict %q row %d col %d: %v vs %v", tc.src, i, c, gt[c], wt[c])
				}
			}
		}
	}
}

// TestKernelErrorParity: an unguarded zero divisor must surface the
// same error, attributed to the same first failing row, with kernels on
// and off — the kernel's error bitmap plus ascending row-wise fallback
// reproduces the serial scan's first error exactly.
func TestKernelErrorParity(t *testing.T) {
	r := kernelRelation(t, 2*DefaultChunkRows+50)
	for _, src := range []string{"a / b > 0", "a % b = 0", "y / 0.0 > 1.0", "a > 1 / 0"} {
		pred := expr.MustParse(src)
		_, kerr := Restrict(r, pred)
		if kerr == nil {
			t.Fatalf("restrict %q: kernel path did not error", src)
		}
		var ierr error
		withInterpreter(t, func() { _, ierr = Restrict(r, pred) })
		if ierr == nil {
			t.Fatalf("restrict %q: interpreter did not error", src)
		}
		if kerr.Error() != ierr.Error() {
			t.Fatalf("restrict %q error drift:\n  kernel      %v\n  interpreted %v", src, kerr, ierr)
		}
	}
}

// TestKernelFusedMatchesChain holds a restrict/project chain with
// kernels equal to the same chain under the interpreter, over both
// resident and chunk-backed sources; the steps after the first scan
// selections, a block at a time.
func TestKernelFusedMatchesChain(t *testing.T) {
	r := kernelRelation(t, 2*DefaultChunkRows+123)
	cb := asChunkBacked(t, r, 512)
	pipelines := [][]FusedOp{
		{
			{Pred: expr.MustParse("a + b > -15")},
			{Project: []string{"id", "a", "b", "x", "flag"}},
			{Pred: expr.MustParse("flag and x > -10.0")},
		},
		{
			{Pred: expr.MustParse("score > -50.0")},
			{Pred: expr.MustParse("b != 0 and a / b >= 0")},
			{Project: []string{"id", "x"}},
		},
		{
			// Step 1 rejects kernel compilation (builtin call): that step
			// takes the interpreter and must still agree.
			{Pred: expr.MustParse("a > -8")},
			{Pred: expr.MustParse("len(tag) >= 1")},
		},
	}
	prev := SetScanWorkers(4)
	defer SetScanWorkers(prev)
	for pi, ops := range pipelines {
		before := obs.CounterValue(obs.RelKernelScans)
		res, err := runChain(r, ops)
		if err != nil {
			t.Fatalf("pipeline %d: %v", pi, err)
		}
		t.Logf("pipeline %d: kernel scans +%d", pi, obs.CounterValue(obs.RelKernelScans)-before)
		var want *Relation
		withInterpreter(t, func() { want, err = runChain(r, ops) })
		if err != nil {
			t.Fatalf("pipeline %d (kernel off): %v", pi, err)
		}
		if relFingerprint(t, res) != relFingerprint(t, want) {
			t.Errorf("pipeline %d: kernels differ from the interpreter", pi)
		}
		cres, err := runChain(cb, ops)
		if err != nil {
			t.Fatalf("pipeline %d chunk-backed: %v", pi, err)
		}
		if cres.Len() != want.Len() {
			t.Errorf("pipeline %d: chunk-backed %d rows, want %d", pi, cres.Len(), want.Len())
		}
	}
}

// TestKernelFusedErrorAttribution: a row that errors at step k fails
// step k — and only if it survived the earlier steps. The selection step
// k scans holds only those survivors, so a row deselected earlier never
// reaches step k's kernel; a kernel ignores lane errors on rows it does
// not keep, exactly like the interpreter's short circuit.
func TestKernelFusedErrorAttribution(t *testing.T) {
	r := New("F", MustSchema(Column{Name: "v", Kind: types.Int}))
	for i := 0; i < 2*DefaultChunkRows; i++ {
		r.MustAppend([]types.Value{types.NewInt(int64(i))})
	}
	target := int64(DefaultChunkRows + 100) // even; sits in chunk 1

	// v = target survives step 0, then divides by zero at step 1.
	ops := []FusedOp{
		{Pred: expr.MustParse("v % 2 = 0")},
		{Pred: expr.MustParse("v / (v - 4196) >= 0")},
	}
	if target != 4196 {
		t.Fatalf("test constant drift: target=%d", target)
	}
	first, err := Restrict(r, ops[0].Pred)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runChain(r, ops)
	_, stepErr := Restrict(first, ops[1].Pred)
	if err == nil || stepErr == nil || err.Error() != stepErr.Error() {
		t.Fatalf("kernel chain error %v is not step 1's error %v", err, stepErr)
	}
	var offErr error
	withInterpreter(t, func() { _, offErr = runChain(r, ops) })
	if offErr == nil || err.Error() != offErr.Error() {
		t.Fatalf("kernel chain error %q differs from the interpreter's %q", err, offErr)
	}

	// Deselect the row at step 0 instead: no error anywhere.
	ops[0] = FusedOp{Pred: expr.MustParse("v % 2 = 1")}
	res, err := runChain(r, ops)
	if err != nil {
		t.Fatalf("deselected erroring row still raised: %v", err)
	}
	var off *Relation
	withInterpreter(t, func() { off, offErr = runChain(r, ops) })
	if offErr != nil {
		t.Fatal(offErr)
	}
	if relFingerprint(t, res) != relFingerprint(t, off) {
		t.Error("kernel chain differs from the interpreter after deselection")
	}
}

// TestKernelFallbackCounter: error rows must be counted as fallback
// rows, and scans without errors must not touch the counter.
func TestKernelFallbackCounter(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	r := kernelRelation(t, DefaultChunkRows+10)
	before := obs.CounterValue(obs.RelKernelFallback)
	if _, err := Restrict(r, expr.MustParse("a + 1 > 0")); err != nil {
		t.Fatal(err)
	}
	if got := obs.CounterValue(obs.RelKernelFallback); got != before {
		t.Fatalf("clean scan advanced fallback counter by %d", got-before)
	}
	_, err := Restrict(r, expr.MustParse("a / b > 0")) // errors at first b=0
	if err == nil {
		t.Fatal("expected zero-divisor error")
	}
	if got := obs.CounterValue(obs.RelKernelFallback); got <= before {
		t.Fatal("erroring scan did not count fallback rows")
	}
}

// FuzzKernelMatchesInterpreter parses its input as an expression over
// kernelRelation's schema. One that checks must give the same MapColumn
// output, and a predicate the same Restrict output and Partition parts,
// tuples and provenance, or the same error, with kernels on as under
// SetCompileDisabled. The seed corpus is kernelPreds.
func FuzzKernelMatchesInterpreter(f *testing.F) {
	r := kernelRelation(f, DefaultChunkRows+57)
	other := expr.MustParse("a % 3 = 0 or x < 1.0")
	f.Fuzz(func(t *testing.T, src string) {
		n, err := expr.Parse(src)
		if err != nil {
			return
		}
		if _, err := expr.Check(n, r); err != nil {
			return
		}
		bothWays(t, "map column "+src, func() (*Relation, error) { return MapColumn(r, "a", n) })
		if expr.CheckPredicate(n, r) != nil {
			return
		}
		bothWays(t, "restrict "+src, func() (*Relation, error) { return Restrict(r, n) })
		for part := 0; part < 2; part++ {
			bothWays(t, fmt.Sprintf("partition %d %s", part, src), func() (*Relation, error) {
				parts, err := Partition(r, []expr.Node{other, n})
				if err != nil {
					return nil, err
				}
				return parts[part], nil
			})
		}
	})
}
