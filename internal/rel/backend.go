package rel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Backend is the pluggable storage layer beneath the catalog: named
// segments hold chunk-encoded relations that reopen as lazily-loading
// ChunkSources (resident chunks are governed by the global memory
// quota), and named blobs hold the small metadata documents — manifests,
// programs — that describe them. Both implementations below are safe
// for concurrent use.
type Backend interface {
	// PutBlob stores a small metadata document under name, replacing any
	// previous content.
	PutBlob(name string, data []byte) error
	// GetBlob fetches a blob; ErrNoSegment if absent.
	GetBlob(name string) ([]byte, error)
	// WriteSegment encodes r's chunks into a new segment under name,
	// replacing any previous segment with that name.
	WriteSegment(name string, r *Relation) error
	// OpenSegment reopens a segment as a ChunkSource whose chunks load
	// on demand. The schema must match the one the segment was written
	// with (the caller's manifest records it).
	OpenSegment(name string, schema *Schema) (ChunkSource, error)
	// Segments lists segment names in sorted order.
	Segments() ([]string, error)
	// RemoveSegment deletes a segment; removing a missing segment is not
	// an error.
	RemoveSegment(name string) error
}

// ErrNoSegment reports a missing segment or blob.
var ErrNoSegment = errors.New("rel: no such segment")

// ErrBadSegment reports a corrupt or foreign segment image.
var ErrBadSegment = errors.New("rel: bad segment format")

// Segment file layout (append-friendly: chunks stream out first, the
// directory and its trailer land at the end, so a write is one forward
// pass and a partial write is detectable by the trailer check):
//
//	magic   [8]byte  "TGSEG001"
//	chunkRows u32, nchunks u32, rows u64
//	chunk 0 .. chunk n-1            (appendChunk encoding, back to back)
//	directory: nchunks × {offset u64, length u64, crc32 u32}
//	dirOffset u64                   (trailer; offset of the directory)
var segMagic = [8]byte{'T', 'G', 'S', 'E', 'G', '0', '0', '1'}

// writeSegmentTo streams r's chunks through w in the segment format,
// one chunk at a time: a segment-backed relation faults each chunk in
// only while it is written, so peak memory is one chunk, not the table.
// A view writes its own tuples, gathered first.
func writeSegmentTo(w io.Writer, r *Relation) error {
	cs, err := r.store()
	if err != nil {
		return err
	}
	nchunks := len(cs.slots)
	hdr := make([]byte, 0, 24)
	hdr = append(hdr, segMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(cs.chunkRows))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(nchunks))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(cs.rows))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	type dirEnt struct {
		off, n uint64
		crc    uint32
	}
	dir := make([]dirEnt, nchunks)
	off := uint64(len(hdr))
	var buf []byte
	for ci := 0; ci < nchunks; ci++ {
		ck, err := cs.chunk(ci)
		if err != nil {
			return fmt.Errorf("rel: write segment chunk %d: %w", ci, err)
		}
		buf = appendChunk(buf[:0], ck)
		dir[ci] = dirEnt{off: off, n: uint64(len(buf)), crc: crc32.ChecksumIEEE(buf)}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		off += uint64(len(buf))
	}
	tail := make([]byte, 0, nchunks*20+8)
	for _, e := range dir {
		tail = binary.LittleEndian.AppendUint64(tail, e.off)
		tail = binary.LittleEndian.AppendUint64(tail, e.n)
		tail = binary.LittleEndian.AppendUint32(tail, e.crc)
	}
	tail = binary.LittleEndian.AppendUint64(tail, off)
	_, err = w.Write(tail)
	return err
}

// segEntry locates one chunk inside a segment image.
type segEntry struct {
	off, n uint64
	crc    uint32
}

// segmentSource is a lazily-loading ChunkSource over a segment image.
// ReadChunk decodes from the underlying ReaderAt on every call (the
// chunk cache, not the source, provides residency), verifies the
// directory checksum and the chunk's shape against the directory and
// schema, and so returns byte-identical chunks for the lifetime of the
// segment.
type segmentSource struct {
	ra        io.ReaderAt
	schema    *Schema
	chunkRows int
	rows      int
	dir       []segEntry
	name      string
}

func (s *segmentSource) NumChunks() int { return len(s.dir) }
func (s *segmentSource) ChunkRows() int { return s.chunkRows }
func (s *segmentSource) Rows() int      { return s.rows }

func (s *segmentSource) ReadChunk(ci int) (*Chunk, error) {
	if ci < 0 || ci >= len(s.dir) {
		return nil, fmt.Errorf("%w: segment %s: chunk %d out of range", ErrBadSegment, s.name, ci)
	}
	e := s.dir[ci]
	buf := make([]byte, e.n)
	if _, err := s.ra.ReadAt(buf, int64(e.off)); err != nil {
		return nil, fmt.Errorf("rel: segment %s chunk %d: %w", s.name, ci, err)
	}
	if crc32.ChecksumIEEE(buf) != e.crc {
		return nil, fmt.Errorf("%w: segment %s: chunk %d checksum mismatch", ErrBadSegment, s.name, ci)
	}
	ck, err := decodeChunk(buf)
	if err != nil {
		return nil, fmt.Errorf("rel: segment %s chunk %d: %w", s.name, ci, err)
	}
	if want := min(s.chunkRows, s.rows-ci*s.chunkRows); ck.rows != want {
		return nil, fmt.Errorf("%w: segment %s: chunk %d has %d rows, the directory says %d",
			ErrBadSegment, s.name, ci, ck.rows, want)
	}
	if len(ck.cols) != s.schema.Len() {
		return nil, fmt.Errorf("%w: segment %s: chunk %d has %d columns, schema has %d",
			ErrBadSegment, s.name, ci, len(ck.cols), s.schema.Len())
	}
	for i := range ck.cols {
		if c := s.schema.Col(i); ck.cols[i].kind != c.Kind {
			return nil, fmt.Errorf("%w: segment %s: chunk %d column %q holds %s, schema says %s",
				ErrBadSegment, s.name, ci, c.Name, ck.cols[i].kind, c.Kind)
		}
	}
	return ck, nil
}

// openSegmentImage parses the header and directory of a segment image
// and returns the lazily-loading source. size is the image length.
func openSegmentImage(name string, schema *Schema, ra io.ReaderAt, size int64) (ChunkSource, error) {
	if size < 24+8 {
		return nil, fmt.Errorf("%w: segment %s: truncated", ErrBadSegment, name)
	}
	hdr := make([]byte, 24)
	if _, err := ra.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	if !bytes.Equal(hdr[:8], segMagic[:]) {
		return nil, fmt.Errorf("%w: segment %s: bad magic", ErrBadSegment, name)
	}
	// Every chunk but the last holds chunkRows rows and the last at least
	// one (u32 × u32 cannot overflow u64, so the checks are exact).
	chunkRows := uint64(binary.LittleEndian.Uint32(hdr[8:12]))
	nchunks := uint64(binary.LittleEndian.Uint32(hdr[12:16]))
	rows := binary.LittleEndian.Uint64(hdr[16:24])
	if chunkRows == 0 || rows > nchunks*chunkRows || (nchunks > 0 && rows <= (nchunks-1)*chunkRows) {
		return nil, fmt.Errorf("%w: segment %s: inconsistent shape (%d rows in %d chunks of %d)",
			ErrBadSegment, name, rows, nchunks, chunkRows)
	}
	trailer := make([]byte, 8)
	if _, err := ra.ReadAt(trailer, size-8); err != nil {
		return nil, err
	}
	dirOff := int64(binary.LittleEndian.Uint64(trailer))
	dirLen := int64(nchunks) * 20
	if dirOff < 24 || dirOff+dirLen != size-8 {
		return nil, fmt.Errorf("%w: segment %s: bad directory trailer", ErrBadSegment, name)
	}
	raw := make([]byte, dirLen)
	if _, err := ra.ReadAt(raw, dirOff); err != nil {
		return nil, err
	}
	dir := make([]segEntry, nchunks)
	for i := range dir {
		p := raw[i*20:]
		dir[i] = segEntry{
			off: binary.LittleEndian.Uint64(p[0:8]),
			n:   binary.LittleEndian.Uint64(p[8:16]),
			crc: binary.LittleEndian.Uint32(p[16:20]),
		}
		// Every stored row costs its chunk at least one byte, which bounds
		// what a scan of the segment allocates by the segment's size.
		e, span := dir[i], min(chunkRows, rows-uint64(i)*chunkRows)
		if e.off < 24 || e.n > uint64(dirOff) || e.off > uint64(dirOff)-e.n || (schema.Len() > 0 && span > e.n) {
			return nil, fmt.Errorf("%w: segment %s: chunk %d overruns directory", ErrBadSegment, name, i)
		}
	}
	return &segmentSource{ra: ra, schema: schema, chunkRows: int(chunkRows), rows: int(rows), dir: dir, name: name}, nil
}

// --- in-memory backend ------------------------------------------------

// MemBackend keeps segments and blobs as encoded byte images in memory.
// It exercises the exact wire format of the file backend (segments are
// parsed, checksummed, and chunk-faulted identically), which makes it
// the reference implementation for tests and ephemeral catalogs.
type MemBackend struct {
	mu    sync.RWMutex
	blobs map[string][]byte
	segs  map[string][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{blobs: make(map[string][]byte), segs: make(map[string][]byte)}
}

// PutBlob implements Backend.
func (b *MemBackend) PutBlob(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.blobs[name] = append([]byte(nil), data...)
	return nil
}

// GetBlob implements Backend.
func (b *MemBackend) GetBlob(name string) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	d, ok := b.blobs[name]
	if !ok {
		return nil, fmt.Errorf("%w: blob %s", ErrNoSegment, name)
	}
	return append([]byte(nil), d...), nil
}

// WriteSegment implements Backend.
func (b *MemBackend) WriteSegment(name string, r *Relation) error {
	var buf bytes.Buffer
	if err := writeSegmentTo(&buf, r); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.segs[name] = buf.Bytes()
	return nil
}

// OpenSegment implements Backend.
func (b *MemBackend) OpenSegment(name string, schema *Schema) (ChunkSource, error) {
	b.mu.RLock()
	img, ok := b.segs[name]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSegment, name)
	}
	return openSegmentImage(name, schema, bytes.NewReader(img), int64(len(img)))
}

// Segments implements Backend.
func (b *MemBackend) Segments() ([]string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.segs))
	for n := range b.segs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// RemoveSegment implements Backend.
func (b *MemBackend) RemoveSegment(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.segs, name)
	return nil
}

// --- file backend -----------------------------------------------------

// FileBackend stores each segment as an append-only file `<name>.seg`
// and each blob as `<name>.blob` inside one directory. Segment opens
// keep the file handle inside the returned ChunkSource, and chunk reads
// are positional (ReadAt), so many goroutines can fault chunks from one
// open segment concurrently while the chunk cache bounds what stays
// resident.
type FileBackend struct {
	dir string
}

// NewFileBackend returns a backend rooted at dir, creating it if needed.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileBackend{dir: dir}, nil
}

// Dir returns the backend's root directory.
func (b *FileBackend) Dir() string { return b.dir }

// path maps a segment or blob name to its file. A name that could leave
// the directory names no segment in it: ErrNoSegment.
func (b *FileBackend) path(name, ext string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return "", fmt.Errorf("%w: bad segment name %q", ErrNoSegment, name)
	}
	return filepath.Join(b.dir, name+ext), nil
}

// PutBlob implements Backend. The write lands under a temporary name
// and renames into place, so readers never observe a torn blob.
func (b *FileBackend) PutBlob(name string, data []byte) error {
	p, err := b.path(name, ".blob")
	if err != nil {
		return err
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, p)
}

// GetBlob implements Backend.
func (b *FileBackend) GetBlob(name string) ([]byte, error) {
	p, err := b.path(name, ".blob")
	if err != nil {
		return nil, err
	}
	d, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: blob %s", ErrNoSegment, name)
	}
	return d, err
}

// WriteSegment implements Backend: one forward streaming pass into a
// temporary file, renamed into place on success.
func (b *FileBackend) WriteSegment(name string, r *Relation) error {
	p, err := b.path(name, ".seg")
	if err != nil {
		return err
	}
	tmp := p + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := writeSegmentTo(f, r); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, p)
}

// OpenSegment implements Backend. The file handle lives inside the
// returned source; it is released when the source is garbage collected
// (segments back long-lived relations, not scoped readers).
func (b *FileBackend) OpenSegment(name string, schema *Schema) (ChunkSource, error) {
	p, err := b.path(name, ".seg")
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoSegment, name)
	}
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	src, err := openSegmentImage(name, schema, f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return src, nil
}

// Segments implements Backend.
func (b *FileBackend) Segments() ([]string, error) {
	ents, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if n, ok := strings.CutSuffix(e.Name(), ".seg"); ok && !e.IsDir() {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out, nil
}

// RemoveSegment implements Backend.
func (b *FileBackend) RemoveSegment(name string) error {
	p, err := b.path(name, ".seg")
	if err != nil {
		return err
	}
	err = os.Remove(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}
