package rel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

// segSchema is the schema the segment tests and fuzz targets read
// images under: one column of every storable kind.
func segSchema() *Schema {
	return MustSchema(
		Column{Name: "i", Kind: types.Int},
		Column{Name: "f", Kind: types.Float},
		Column{Name: "s", Kind: types.Text},
		Column{Name: "b", Kind: types.Bool},
		Column{Name: "d", Kind: types.Date},
	)
}

// segRow is row n of the test data; every fifth row carries a null.
func segRow(n int) []types.Value {
	t := []types.Value{
		types.NewInt(int64(n)),
		types.NewFloat(float64(n) / 4),
		types.NewText([]string{"", "a", "bb"}[n%3]),
		types.NewBool(n%2 == 0),
		types.NewDate(int64(n * 7)),
	}
	if n%5 == 4 {
		t[n%len(t)] = types.Null
	}
	return t
}

// chunkImage encodes rows lo..hi-1 of the test data under schema as one
// chunk.
func chunkImage(t testing.TB, schema *Schema, lo, hi int) []byte {
	t.Helper()
	b := newChunkBuilder(schema, hi-lo)
	for n := lo; n < hi; n++ {
		row := segRow(n)[:schema.Len()]
		for i := range row {
			if k := schema.Col(i).Kind; !row[i].IsNull() && row[i].Kind() != k {
				row[i] = types.Zero(k)
			}
		}
		if err := b.appendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return appendChunk(nil, b.finish())
}

// segImage lays chunk images out as a segment whose header claims rows
// rows at chunkRows per chunk, with a directory of correct checksums —
// so whatever is wrong with it, the CRC check is not what catches it.
func segImage(chunkRows, rows int, chunks ...[]byte) []byte {
	img := append([]byte(nil), segMagic[:]...)
	img = binary.LittleEndian.AppendUint32(img, uint32(chunkRows))
	img = binary.LittleEndian.AppendUint32(img, uint32(len(chunks)))
	img = binary.LittleEndian.AppendUint64(img, uint64(rows))
	var dir []byte
	for _, c := range chunks {
		dir = binary.LittleEndian.AppendUint64(dir, uint64(len(img)))
		dir = binary.LittleEndian.AppendUint64(dir, uint64(len(c)))
		dir = binary.LittleEndian.AppendUint32(dir, crc32.ChecksumIEEE(c))
		img = append(img, c...)
	}
	dirOff := len(img)
	img = append(img, dir...)
	return binary.LittleEndian.AppendUint64(img, uint64(dirOff))
}

// openImage opens a segment image under schema as a chunk-backed
// relation.
func openImage(img []byte, schema *Schema) (*Relation, error) {
	src, err := openSegmentImage("img", schema, bytes.NewReader(img), int64(len(img)))
	if err != nil {
		return nil, err
	}
	return FromChunkSource("img", schema, src)
}

// TestHostileSegmentsRejected: CRC-valid segment images that lie about
// their shape or contents fail with ErrBadSegment on open or on the
// first read of the bad chunk — never a panic, and never a relation
// whose length or values come from the lie.
func TestHostileSegmentsRejected(t *testing.T) {
	intSchema := MustSchema(Column{Name: "s", Kind: types.Int})
	textSchema := MustSchema(Column{Name: "s", Kind: types.Text})
	schema := segSchema()
	trailing := append(chunkImage(t, schema, 0, 100), 0)

	cases := []struct {
		name   string
		img    []byte
		schema *Schema
		read   func(r *Relation) error
	}{
		{
			// A Text lane read as Int lanes: the kernel would slice a nil
			// int64 lane.
			name:   "text chunk under an int schema",
			img:    segImage(DefaultChunkRows, 900, chunkImage(t, textSchema, 0, 900)),
			schema: intSchema,
			read: func(r *Relation) error {
				_, err := Restrict(r, expr.MustParse("s > 3"))
				return err
			},
		},
		{
			// The directory promises 300 rows; the chunk holds 100.
			name:   "short chunk in its slot",
			img:    segImage(DefaultChunkRows, 300, chunkImage(t, schema, 0, 100)),
			schema: schema,
			read: func(r *Relation) error {
				cu := r.NewCursor()
				cu.Seek(200)
				cu.Attr("i")
				return cu.Err()
			},
		},
		{
			name:   "chunk with a trailing byte",
			img:    segImage(DefaultChunkRows, 100, trailing),
			schema: schema,
			read: func(r *Relation) error {
				_, err := Restrict(r, expr.MustParse("i >= 0"))
				return err
			},
		},
		{
			// Header rows as u64 2^64-15: -15 as an int.
			name:   "negative header row count",
			img:    segImage(DefaultChunkRows, -15),
			schema: schema,
		},
		{
			name:   "more rows than the chunks can hold",
			img:    segImage(64, 200, chunkImage(t, schema, 0, 64), chunkImage(t, schema, 64, 128)),
			schema: schema,
		},
		{
			// A million rows in 10 KB: a scan would size its vectors by
			// the lie before reading a byte.
			name:   "more rows than the chunk's bytes can hold",
			img:    segImage(1<<20, 1<<20, chunkImage(t, schema, 0, 70)),
			schema: schema,
		},
		{
			name:   "an empty last chunk",
			img:    segImage(64, 64, chunkImage(t, schema, 0, 64), chunkImage(t, schema, 64, 64)),
			schema: schema,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := openImage(tc.img, tc.schema)
			if err == nil {
				if tc.read == nil {
					t.Fatalf("opened with %d rows; want ErrBadSegment", r.Len())
				}
				err = tc.read(r)
			}
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("error %v; want ErrBadSegment", err)
			}
		})
	}
}

// TestSegmentImageHelperRoundTrips: the crafted-image helper agrees with
// the segment writer, so the hostile cases above differ from a good
// image only in the lie each one tells.
func TestSegmentImageHelperRoundTrips(t *testing.T) {
	schema := segSchema()
	img := segImage(64, 150, chunkImage(t, schema, 0, 64), chunkImage(t, schema, 64, 128), chunkImage(t, schema, 128, 150))
	r, err := openImage(img, schema)
	if err != nil {
		t.Fatal(err)
	}
	want := New("want", schema)
	for n := 0; n < 150; n++ {
		want.MustAppend(segRow(n))
	}
	sameRows(t, r, want)
}

// fuzzSeeds returns well-formed images for the fuzz targets: the
// encoding of each chunk, and segments of one and several chunks.
func fuzzSeeds(t testing.TB) (chunks, segments [][]byte) {
	schema := segSchema()
	chunks = [][]byte{
		chunkImage(t, schema, 0, 0),
		chunkImage(t, schema, 0, 1),
		chunkImage(t, schema, 0, 70),
	}
	segments = [][]byte{
		segImage(DefaultChunkRows, 0),
		segImage(DefaultChunkRows, 70, chunks[2]),
		segImage(16, 40, chunkImage(t, schema, 0, 16), chunkImage(t, schema, 16, 32), chunkImage(t, schema, 32, 40)),
	}
	return chunks, segments
}

// FuzzDecodeChunk: any byte string either decodes to a chunk that
// re-encodes to exactly those bytes, or fails with ErrBadSegment.
func FuzzDecodeChunk(f *testing.F) {
	chunks, _ := fuzzSeeds(f)
	for _, c := range chunks {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeChunk(data)
		if err != nil {
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if got := appendChunk(nil, c); !bytes.Equal(got, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", got, data)
		}
	})
}

// FuzzSegmentImage: any byte string either fails to open with
// ErrBadSegment, or opens as a relation whose every chunk a restrict
// over every column scans — and that scan either succeeds or fails with
// ErrBadSegment.
func FuzzSegmentImage(f *testing.F) {
	_, segments := fuzzSeeds(f)
	for _, s := range segments {
		f.Add(s)
	}
	schema := segSchema()
	pred := expr.MustParse("i > 3 or f < 1.5 or s = 'a' or b or d >= d")
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := openImage(data, schema)
		if err != nil {
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("untyped open error: %v", err)
			}
			return
		}
		out, err := Restrict(r, pred)
		if err != nil {
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("untyped scan error: %v", err)
			}
			return
		}
		if out.Len() > r.Len() {
			t.Fatalf("restrict kept %d of %d rows", out.Len(), r.Len())
		}
	})
}
