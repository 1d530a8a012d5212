package viewer

import (
	"bytes"
	"testing"

	"repro/internal/display"
	"repro/internal/draw"
	"repro/internal/rel"
	"repro/internal/types"
)

// TestRenderChunkBackedUnderEvictionChurn is the satellite property for
// the render path: a chunk-backed dataset roughly 4x the chunk-cache
// quota must render pixel-identically to its resident twin while
// chunks fault and evict beneath the sweep cursors.
func TestRenderChunkBackedUnderEvictionChurn(t *testing.T) {
	const n = 24000
	src := rel.New("Pts", rel.MustSchema(
		rel.Column{Name: "id", Kind: types.Int},
		rel.Column{Name: "px", Kind: types.Float},
		rel.Column{Name: "py", Kind: types.Float},
		rel.Column{Name: "name", Kind: types.Text},
	))
	for i := 0; i < n; i++ {
		src.MustAppend([]types.Value{
			types.NewInt(int64(i)),
			types.NewFloat(float64(i % 200)),
			types.NewFloat(float64(i / 200)),
			types.NewText("some-label-padding-to-fatten-chunks"),
		})
	}

	b := rel.NewMemBackend()
	if err := b.WriteSegment("pts", src); err != nil {
		t.Fatal(err)
	}
	cs, err := b.OpenSegment("pts", src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	cb, err := rel.FromChunkSource("Pts", src.Schema(), cs)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := cs.ReadChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for ci := 0; ci < cs.NumChunks(); ci++ {
		c, err := cs.ReadChunk(ci)
		if err != nil {
			t.Fatal(err)
		}
		total += c.Bytes()
	}
	quota := total / 4
	if quota <= ck.Bytes() {
		t.Fatalf("test shape broken: quota %d does not clear one chunk (%d)", quota, ck.Bytes())
	}

	render := func(r *rel.Relation) []byte {
		e, err := display.NewExtended("pts", r, []string{"px", "py"}, []display.NamedDisplay{
			{Name: "display", Fn: draw.DefaultTupleDisplay([]string{"id", "name"}, 40, draw.Black)},
		})
		if err != nil {
			t.Fatal(err)
		}
		v := New("t", DirectSource{D: e}, 220, 220)
		v.Parallel = true
		if err := v.PanTo(0, 100, 60); err != nil {
			t.Fatal(err)
		}
		if err := v.SetElevation(0, 130); err != nil {
			t.Fatal(err)
		}
		img, stats, err := v.Render()
		if err != nil {
			t.Fatal(err)
		}
		if stats.TuplesSeen == 0 || img.CountNonBackground(draw.White) == 0 {
			t.Fatalf("degenerate render: %+v", stats)
		}
		var buf bytes.Buffer
		if err := img.WritePPM(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	want := render(src)

	prev := rel.MemoryQuota()
	rel.DropResidentChunks()
	rel.SetMemoryQuota(quota)
	rel.ResetChunkCacheStats()
	defer func() {
		rel.SetMemoryQuota(prev)
		rel.DropResidentChunks()
		rel.ResetChunkCacheStats()
	}()

	got := render(cb)
	if !bytes.Equal(got, want) {
		t.Fatal("chunk-backed render differs from resident render under eviction churn")
	}
	st := rel.ChunkCacheStats()
	if st.Peak > quota {
		t.Fatalf("resident peak %d exceeded quota %d", st.Peak, quota)
	}
	if st.Evictions == 0 {
		t.Fatalf("no eviction churn during render: %+v", st)
	}
}
