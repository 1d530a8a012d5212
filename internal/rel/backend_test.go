package rel

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

// withQuota points the global chunk cache at a temporary quota, dropping
// resident chunks and zeroing stats on both edges so tests see only
// their own traffic.
func withQuota(t testing.TB, quota int64) {
	t.Helper()
	prev := MemoryQuota()
	DropResidentChunks()
	SetMemoryQuota(quota)
	ResetChunkCacheStats()
	t.Cleanup(func() {
		SetMemoryQuota(prev)
		DropResidentChunks()
		ResetChunkCacheStats()
	})
}

// sameRows asserts two relations hold identical tuples (values and
// kinds) in identical order.
func sameRows(t *testing.T, got, want *Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%d rows, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		gt, wt := got.Tuple(i), want.Tuple(i)
		for c := range wt {
			if keyOf(gt[c]) != keyOf(wt[c]) || gt[c].Kind() != wt[c].Kind() {
				t.Fatalf("row %d col %d: %v, want %v", i, c, gt[c], wt[c])
			}
		}
	}
}

func backends(t *testing.T) map[string]Backend {
	fb, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{"mem": NewMemBackend(), "file": fb}
}

// TestBackendSegmentRoundTrip writes a mixed-kind relation through each
// backend and reopens it chunk-backed; every tuple must survive, along
// with blob and listing plumbing.
func TestBackendSegmentRoundTrip(t *testing.T) {
	src := kernelRelation(t, 3*DefaultChunkRows/2)
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.WriteSegment("tbl", src); err != nil {
				t.Fatal(err)
			}
			cs, err := b.OpenSegment("tbl", src.Schema())
			if err != nil {
				t.Fatal(err)
			}
			got, err := FromChunkSource("K", src.Schema(), cs)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, got, src)

			if _, err := b.OpenSegment("nope", src.Schema()); !errors.Is(err, ErrNoSegment) {
				t.Fatalf("open missing segment: %v", err)
			}
			if err := b.PutBlob("meta", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			if d, err := b.GetBlob("meta"); err != nil || string(d) != "hello" {
				t.Fatalf("blob roundtrip: %q, %v", d, err)
			}
			if _, err := b.GetBlob("nope"); !errors.Is(err, ErrNoSegment) {
				t.Fatalf("get missing blob: %v", err)
			}
			segs, err := b.Segments()
			if err != nil || len(segs) != 1 || segs[0] != "tbl" {
				t.Fatalf("segments: %v, %v", segs, err)
			}
			if err := b.RemoveSegment("tbl"); err != nil {
				t.Fatal(err)
			}
			if err := b.RemoveSegment("tbl"); err != nil {
				t.Fatalf("double remove: %v", err)
			}
			if segs, _ := b.Segments(); len(segs) != 0 {
				t.Fatalf("segments after remove: %v", segs)
			}
		})
	}
}

// TestBackendEvictedChunksReloadByteIdentical is the satellite property:
// drop every resident chunk between reads and the re-faulted encodings
// must match the originals byte for byte.
func TestBackendEvictedChunksReloadByteIdentical(t *testing.T) {
	withQuota(t, 1<<20)
	src := kernelRelation(t, 3000)
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.WriteSegment("tbl", src); err != nil {
				t.Fatal(err)
			}
			cs, err := b.OpenSegment("tbl", src.Schema())
			if err != nil {
				t.Fatal(err)
			}
			first := make([][]byte, cs.NumChunks())
			for ci := range first {
				ck, err := cs.ReadChunk(ci)
				if err != nil {
					t.Fatal(err)
				}
				first[ci] = appendChunk(nil, ck)
			}
			DropResidentChunks()
			for ci := range first {
				ck, err := cs.ReadChunk(ci)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(appendChunk(nil, ck), first[ci]) {
					t.Fatalf("chunk %d drifted across eviction and reload", ci)
				}
			}
		})
	}
}

// TestBackendDetectsCorruption flips one byte inside a chunk and
// truncates the image; both must surface ErrBadSegment, not garbage.
func TestBackendDetectsCorruption(t *testing.T) {
	src := kernelRelation(t, 600)
	b := NewMemBackend()
	if err := b.WriteSegment("tbl", src); err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), b.segs["tbl"]...)

	flipped := append([]byte(nil), img...)
	flipped[30] ^= 0xff // inside chunk 0's payload
	b.segs["tbl"] = flipped
	cs, err := b.OpenSegment("tbl", src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.ReadChunk(0); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("corrupt chunk read: %v", err)
	}

	b.segs["tbl"] = img[:len(img)-4]
	if _, err := b.OpenSegment("tbl", src.Schema()); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("truncated open: %v", err)
	}

	b.segs["tbl"] = []byte("not a segment at all........................")
	if _, err := b.OpenSegment("tbl", src.Schema()); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("foreign image open: %v", err)
	}
}

// TestBoundedMemoryScan is the headline bounded-memory property: a
// dataset roughly 4x the quota scans (restrict + join) correctly under
// eviction churn, and the cache's peak never exceeds the quota.
func TestBoundedMemoryScan(t *testing.T) {
	src := kernelRelation(t, 6*DefaultChunkRows)
	var probe bytes.Buffer
	if err := writeSegmentTo(&probe, src); err != nil {
		t.Fatal(err)
	}
	quota := int64(probe.Len()) / 4
	withQuota(t, quota)

	b := NewMemBackend()
	if err := b.WriteSegment("tbl", src); err != nil {
		t.Fatal(err)
	}
	DropResidentChunks() // WriteSegment faulted the source's own chunks
	ResetChunkCacheStats()
	cs, err := b.OpenSegment("tbl", src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	big, err := FromChunkSource("K", src.Schema(), cs)
	if err != nil {
		t.Fatal(err)
	}

	pred := expr.MustParse("b != 0 and a / b >= 0")
	var want *Relation
	withInterpreter(t, func() {
		want, err = Restrict(src, pred)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		got, err := Restrict(big, pred)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, got, want)
	}

	dim := New("dim", MustSchema(
		Column{Name: "a", Kind: types.Int},
		Column{Name: "label", Kind: types.Text},
	))
	for i := -10; i <= 10; i++ {
		dim.MustAppend([]types.Value{types.NewInt(int64(i)), types.NewText(fmt.Sprintf("g%d", i))})
	}
	jp := expr.MustParse("a = a_r")
	j, err := Join(big, dim, jp, JoinAuto)
	if err != nil {
		t.Fatal(err)
	}
	var wantJoin *Relation
	withInterpreter(t, func() {
		wantJoin, err = Join(src, dim, jp, JoinAuto)
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != wantJoin.Len() {
		t.Fatalf("join under quota: %d rows, want %d", j.Len(), wantJoin.Len())
	}

	st := ChunkCacheStats()
	if st.Peak > quota {
		t.Fatalf("resident peak %d exceeded quota %d", st.Peak, quota)
	}
	if st.Evictions == 0 || st.Loads == 0 {
		t.Fatalf("expected eviction churn, got %+v", st)
	}
}

// TestQuotaWarningsOncePerCrossing: sustained pressure warns once; the
// counter moves again only after the cache drops back under quota and
// crosses a second time.
func TestQuotaWarningsOncePerCrossing(t *testing.T) {
	src := kernelRelation(t, 4*DefaultChunkRows)
	b := NewMemBackend()
	if err := b.WriteSegment("tbl", src); err != nil {
		t.Fatal(err)
	}
	cs, err := b.OpenSegment("tbl", src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	ck, err := cs.ReadChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	withQuota(t, 2*ck.Bytes()+ck.Bytes()/2) // room for ~2 chunks

	big, err := FromChunkSource("K", src.Schema(), cs)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		rd := big.reader()
		for i := 0; i < big.Len(); i += DefaultChunkRows / 2 {
			rd.at(i)
		}
		if rd.Err() != nil {
			t.Fatal(rd.Err())
		}
	}
	sweep() // crossing #1: every fault past the second is under pressure
	if st := ChunkCacheStats(); st.QuotaWarnings != 1 {
		t.Fatalf("first sweep: %d warnings, want 1", st.QuotaWarnings)
	}
	sweep() // still under sustained pressure: no new crossing
	if st := ChunkCacheStats(); st.QuotaWarnings != 1 {
		t.Fatalf("sustained pressure: %d warnings, want 1", st.QuotaWarnings)
	}
	DropResidentChunks() // back under quota
	sweep()              // crossing #2
	if st := ChunkCacheStats(); st.QuotaWarnings != 2 {
		t.Fatalf("after relief: %d warnings, want 2", st.QuotaWarnings)
	}
}

// TestBackendConcurrentFaults hammers one segment from many goroutines
// under a tight quota; run with -race this doubles as the concurrency
// proof for segmentSource and the chunk cache.
func TestBackendConcurrentFaults(t *testing.T) {
	src := kernelRelation(t, 2*DefaultChunkRows)
	b := NewMemBackend()
	if err := b.WriteSegment("tbl", src); err != nil {
		t.Fatal(err)
	}
	cs, err := b.OpenSegment("tbl", src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	ck, err := cs.ReadChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	withQuota(t, 2*ck.Bytes()+ck.Bytes()/2)
	big, err := FromChunkSource("K", src.Schema(), cs)
	if err != nil {
		t.Fatal(err)
	}
	want := src.Tuple(src.Len() - 1)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rd := big.reader()
			for i := g; i < big.Len(); i += 97 {
				tup := rd.at(i)
				if rd.Err() != nil {
					errs <- rd.Err()
					return
				}
				if len(tup) != big.Schema().Len() {
					errs <- fmt.Errorf("row %d: %d cols", i, len(tup))
					return
				}
			}
			got := rd.at(big.Len() - 1)
			if rd.Err() != nil {
				errs <- rd.Err()
				return
			}
			for c := range want {
				if keyOf(got[c]) != keyOf(want[c]) {
					errs <- fmt.Errorf("goroutine %d: last row drift col %d", g, c)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFileBackendRejectsBadNames: a name that could leave the backend's
// directory names no segment in it, so every FileBackend call given one
// fails with ErrNoSegment, the sentinel a loader checks for.
func TestFileBackendRejectsBadNames(t *testing.T) {
	fb, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := New("T", MustSchema(Column{Name: "a", Kind: types.Int}))
	r.MustAppend([]types.Value{types.NewInt(1)})
	for _, name := range []string{"a/b", `a\b`, ".."} {
		_, getErr := fb.GetBlob(name)
		_, openErr := fb.OpenSegment(name, r.Schema())
		for call, err := range map[string]error{
			"PutBlob":       fb.PutBlob(name, []byte("x")),
			"GetBlob":       getErr,
			"WriteSegment":  fb.WriteSegment(name, r),
			"OpenSegment":   openErr,
			"RemoveSegment": fb.RemoveSegment(name),
		} {
			if !errors.Is(err, ErrNoSegment) {
				t.Errorf("%s(%q): error %v, want one wrapping ErrNoSegment", call, name, err)
			}
		}
	}
}
