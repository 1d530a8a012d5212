package rel

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/types"
)

// DefaultChunkRows is the number of tuples per columnar chunk. 4096 rows
// keeps a chunk's int64/float64 lanes at 32 KiB each — small enough that
// a handful of chunks fit in L2, large enough that per-chunk dispatch
// overhead vanishes against the scan loop.
const DefaultChunkRows = 4096

// colVec is one column of a chunk: a contiguous typed array plus a
// validity bitmap. Exactly one of ints/floats/strs is populated,
// according to kind: Int, Bool (0/1) and Date (epoch days) share the
// int64 lane, Float uses the float64 lane, Text the string lane. A
// cleared validity bit means the value is null and the lane slot is the
// zero value.
type colVec struct {
	kind   types.Kind
	ints   []int64
	floats []float64
	strs   []string
	valid  []uint64
}

// isValid reports whether row holds a non-null value.
func (c *colVec) isValid(row int) bool {
	return c.valid[row>>6]&(1<<(uint(row)&63)) != 0
}

// value reassembles the types.Value stored at row.
func (c *colVec) value(row int) types.Value {
	if !c.isValid(row) {
		return types.Null
	}
	switch c.kind {
	case types.Int:
		return types.NewInt(c.ints[row])
	case types.Float:
		return types.NewFloat(c.floats[row])
	case types.Text:
		return types.NewText(c.strs[row])
	case types.Bool:
		return types.NewBool(c.ints[row] != 0)
	case types.Date:
		return types.NewDate(c.ints[row])
	}
	return types.Null
}

// Chunk is a fixed-size run of tuples stored column-major: per-attribute
// contiguous arrays with validity bitmaps. A chunk's visible contents
// never change — mutation in the CoW discipline builds a new chunk
// version (appended, withRow) — so any number of relation versions,
// scans, and cursors may share one safely.
type Chunk struct {
	rows int
	cols []colVec
	// claim guards in-place appends. Versions that share lane backing
	// arrays share one claim, holding the highest row count any of them
	// has extended the lanes to; a version with r rows may write row r
	// into the lanes' spare capacity only by moving the claim from r to
	// r+1, so two versions forked from one parent never write the same
	// slot. Chunks decoded from a source have none and are never
	// extended in place.
	claim *atomic.Int64
}

func newClaim(rows int) *atomic.Int64 {
	c := new(atomic.Int64)
	c.Store(int64(rows))
	return c
}

// Rows returns the number of tuples in the chunk.
func (c *Chunk) Rows() int { return c.rows }

// Bytes returns the chunk's approximate resident size, used for quota
// accounting by the chunk cache.
func (c *Chunk) Bytes() int64 {
	n := int64(64)
	for i := range c.cols {
		v := &c.cols[i]
		n += int64(len(v.ints))*8 + int64(len(v.floats))*8 + int64(len(v.valid))*8
		for _, s := range v.strs {
			n += int64(len(s)) + 16
		}
	}
	return n
}

// Value returns the value at (col, row).
func (c *Chunk) Value(col, row int) types.Value { return c.cols[col].value(row) }

// DecodeRow materializes one tuple, appending to buf (pass buf[:0] to
// reuse a scratch slice, or nil for a fresh one).
func (c *Chunk) DecodeRow(row int, buf []types.Value) []types.Value {
	for i := range c.cols {
		buf = append(buf, c.cols[i].value(row))
	}
	return buf
}

// store writes val into lane slot off, setting its validity bit unless
// val is null (whose slot holds the zero value). The slot's bit must be
// clear, and the lane and bitmap private to the caller.
func (v *colVec) store(off int, val types.Value) {
	if val.IsNull() {
		switch v.kind {
		case types.Float:
			v.floats[off] = 0
		case types.Text:
			v.strs[off] = ""
		default:
			v.ints[off] = 0
		}
		return
	}
	v.valid[off>>6] |= 1 << (uint(off) & 63)
	switch v.kind {
	case types.Float:
		v.floats[off] = val.Float()
	case types.Text:
		v.strs[off] = val.Text()
	case types.Bool:
		v.ints[off] = 0
		if val.Bool() {
			v.ints[off] = 1
		}
	case types.Date:
		v.ints[off] = val.DateDays()
	default:
		v.ints[off] = val.Int()
	}
}

// push appends val as row `row`, growing the validity bitmap as needed.
func (v *colVec) push(val types.Value, row int) {
	switch v.kind {
	case types.Float:
		v.floats = append(v.floats, 0)
	case types.Text:
		v.strs = append(v.strs, "")
	default:
		v.ints = append(v.ints, 0)
	}
	for len(v.valid) <= row>>6 {
		v.valid = append(v.valid, 0)
	}
	v.store(row, val)
}

// holds reports whether row off already stores exactly val: 0 and -0
// differ, and NaN never matches (a harmless extra copy).
func (v *colVec) holds(off int, val types.Value) bool {
	old := v.value(off)
	return old == val && (old.Kind() != types.Float || math.Signbit(old.Float()) == math.Signbit(val.Float()))
}

// appended returns a new version of c with tuple (kinds already checked)
// as its last row. When no other version has extended c's lanes past
// c.rows, the row goes in place into their spare capacity, past every
// row c and older versions read; otherwise the new version gets lanes
// of its own. Validity words are always copied — the new row's bit
// shares a word with rows older versions read — but nothing is decoded.
func (c *Chunk) appended(tuple []types.Value) *Chunk {
	row := c.rows
	out := &Chunk{rows: row + 1, cols: slices.Clone(c.cols), claim: c.claim}
	own := c.claim != nil && c.claim.CompareAndSwap(int64(row), int64(row)+1)
	if !own {
		out.claim = newClaim(row + 1)
	}
	for i := range out.cols {
		v := &out.cols[i]
		if !own {
			// Capped lanes copy on the append below.
			v.ints, v.floats, v.strs = slices.Clip(v.ints), slices.Clip(v.floats), slices.Clip(v.strs)
		}
		valid := make([]uint64, (row+64)/64)
		copy(valid, v.valid)
		v.valid = valid
		v.push(tuple[i], row)
	}
	return out
}

// withRow returns a version of c with row off replaced by tuple (kinds
// already checked). Lanes whose cell is unchanged stay shared; a changed
// lane, and its validity bitmap, are copied whole before the write.
func (c *Chunk) withRow(off int, tuple []types.Value) *Chunk {
	out := &Chunk{rows: c.rows, cols: slices.Clone(c.cols), claim: c.claim}
	for i := range out.cols {
		v := &out.cols[i]
		if v.holds(off, tuple[i]) {
			continue
		}
		v.valid = slices.Clone(v.valid)
		v.valid[off>>6] &^= 1 << (uint(off) & 63)
		switch v.kind {
		case types.Float:
			v.floats = slices.Clone(v.floats)
		case types.Text:
			v.strs = slices.Clone(v.strs)
		default:
			v.ints = slices.Clone(v.ints)
		}
		v.store(off, tuple[i])
	}
	return out
}

// checkTuple reports an arity or kind mismatch between tuple and schema
// (null is accepted in any column).
func checkTuple(schema *Schema, tuple []types.Value) error {
	if len(tuple) != schema.Len() {
		return fmt.Errorf("tuple arity %d != schema arity %d", len(tuple), schema.Len())
	}
	for i, v := range tuple {
		if c := schema.Col(i); !v.IsNull() && v.Kind() != c.Kind {
			return fmt.Errorf("column %q wants %s, got %s", c.Name, c.Kind, v.Kind())
		}
	}
	return nil
}

// chunkBuilder accumulates rows into a chunk. Lanes start at capRows
// capacity and grow by append past it.
type chunkBuilder struct {
	schema *Schema
	c      *Chunk
}

func newChunkBuilder(schema *Schema, capRows int) *chunkBuilder {
	c := &Chunk{cols: make([]colVec, schema.Len())}
	for i := range c.cols {
		v := &c.cols[i]
		v.kind = schema.Col(i).Kind
		v.valid = make([]uint64, 0, (capRows+63)/64)
		switch v.kind {
		case types.Float:
			v.floats = make([]float64, 0, capRows)
		case types.Text:
			v.strs = make([]string, 0, capRows)
		default:
			v.ints = make([]int64, 0, capRows)
		}
	}
	return &chunkBuilder{schema: schema, c: c}
}

// appendRow adds one tuple. A kind mismatch is an error rather than a
// silent re-typing by the columnar encoding.
func (b *chunkBuilder) appendRow(tuple []types.Value) error {
	if err := checkTuple(b.schema, tuple); err != nil {
		return err
	}
	for i := range b.c.cols {
		b.c.cols[i].push(tuple[i], b.c.rows)
	}
	b.c.rows++
	return nil
}

// gather writes the next len(rows) rows of output columns first,
// first+1, ... from rows of src, in the given order: output column
// first+j copies source column colMap[j] lane slot by lane slot, validity
// bit by validity bit, without materializing a tuple. It walks the rows
// in runs that share a source chunk, copying each run column by column,
// so a chunk is fetched once per run — ascending rows fault each source
// chunk once, however many columns they fill. The caller advances the
// row count once every column is written.
func (b *chunkBuilder) gather(first int, src *colStore, rows, colMap []int) error {
	for at := 0; at < len(rows); {
		ci, _ := src.rowChunk(rows[at])
		ck, err := src.chunk(ci)
		if err != nil {
			return err
		}
		lo, hi := src.chunkSpan(ci)
		end := at + 1
		for end < len(rows) && rows[end] >= lo && rows[end] < hi {
			end++
		}
		for j, sc := range colMap {
			dst, sv := &b.c.cols[first+j], &ck.cols[sc]
			switch dst.kind {
			case types.Float:
				dst.floats = gatherLane(dst.floats, sv.floats, rows[at:end], lo)
			case types.Text:
				dst.strs = gatherLane(dst.strs, sv.strs, rows[at:end], lo)
			default:
				dst.ints = gatherLane(dst.ints, sv.ints, rows[at:end], lo)
			}
			dst.valid = gatherBits(dst.valid, sv.valid, rows[at:end], lo, b.c.rows+at)
		}
		at = end
	}
	return nil
}

// refill empties the builder's chunk, keeping its lanes' capacity, and
// gathers parts into it, each part filling the next len(colMap) columns
// from its (equally long) row list.
func (b *chunkBuilder) refill(parts ...part) error {
	for i := range b.c.cols {
		v := &b.c.cols[i]
		v.ints, v.floats, v.strs, v.valid = v.ints[:0], v.floats[:0], v.strs[:0], v.valid[:0]
	}
	b.c.rows = 0
	first := 0
	for _, p := range parts {
		if err := b.gather(first, p.src, p.rows, p.colMap); err != nil {
			return err
		}
		first += len(p.colMap)
	}
	b.c.rows = len(parts[0].rows)
	return nil
}

// gatherLane appends src[row-lo] for each row.
func gatherLane[T any](dst, src []T, rows []int, lo int) []T {
	for _, row := range rows {
		dst = append(dst, src[row-lo])
	}
	return dst
}

// gatherBits sets bit pos+i of dst wherever src, the validity bitmap of
// the rows' chunk, has bit rows[i]-lo set, growing dst to cover every
// written position.
func gatherBits(dst, src []uint64, rows []int, lo, pos int) []uint64 {
	for len(dst) < (pos+len(rows)+63)/64 {
		dst = append(dst, 0)
	}
	for i, row := range rows {
		off, p := row-lo, pos+i
		if src[off>>6]&(1<<(uint(off)&63)) != 0 {
			dst[p>>6] |= 1 << (uint(p) & 63)
		}
	}
	return dst
}

// finish completes the validity bitmaps and returns the chunk, claimable
// for in-place appends.
func (b *chunkBuilder) finish() *Chunk {
	c := b.c
	for i := range c.cols {
		v := &c.cols[i]
		for len(v.valid) < (c.rows+63)/64 {
			v.valid = append(v.valid, 0)
		}
	}
	c.claim = newClaim(c.rows)
	return c
}

// Chunk wire format (inside segment files):
//
//	u32 rows, u32 cols
//	per column: u8 kind, validity words (u64 LE), then the lane:
//	  Int/Bool/Date: rows × i64 LE
//	  Float:         rows × u64 LE (IEEE bits)
//	  Text:          rows × (u32 len, bytes)
//
// The encoding is canonical — no padding, map iteration, or pointer
// identity leaks into it — so an evicted chunk reloads byte-identically.

// appendChunk serializes c onto buf.
func appendChunk(buf []byte, c *Chunk) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.cols)))
	for i := range c.cols {
		v := &c.cols[i]
		buf = append(buf, byte(v.kind))
		for _, w := range v.valid {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		switch v.kind {
		case types.Int, types.Bool, types.Date:
			for _, x := range v.ints {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
			}
		case types.Float:
			for _, f := range v.floats {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
			}
		case types.Text:
			for _, s := range v.strs {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
				buf = append(buf, s...)
			}
		}
	}
	return buf
}

// decodeChunk parses one serialized chunk. Every failure wraps
// ErrBadSegment, and no allocation exceeds what the remaining bytes can
// fill: a lane is allocated only after its bytes are known present.
func decodeChunk(buf []byte) (*Chunk, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("%w: chunk truncated (%d bytes)", ErrBadSegment, len(buf))
	}
	rows := int(binary.LittleEndian.Uint32(buf))
	ncols := int(binary.LittleEndian.Uint32(buf[4:]))
	buf = buf[8:]
	words := (rows + 63) / 64
	if rows > 1<<26 || ncols > 1<<16 || ncols*(1+words*8) > len(buf) {
		return nil, fmt.Errorf("%w: chunk header implausible (rows=%d cols=%d, %d bytes)", ErrBadSegment, rows, ncols, len(buf))
	}
	c := &Chunk{rows: rows, cols: make([]colVec, ncols)}
	for i := 0; i < ncols; i++ {
		if len(buf) < 1+words*8 {
			return nil, fmt.Errorf("%w: chunk column %d truncated", ErrBadSegment, i)
		}
		v := &c.cols[i]
		v.kind = types.Kind(buf[0])
		buf = buf[1:]
		v.valid = make([]uint64, words)
		for w := range v.valid {
			v.valid[w] = binary.LittleEndian.Uint64(buf)
			buf = buf[8:]
		}
		switch v.kind {
		case types.Int, types.Bool, types.Date, types.Float:
			if len(buf) < rows*8 {
				return nil, fmt.Errorf("%w: chunk column %d lane truncated", ErrBadSegment, i)
			}
			if v.kind == types.Float {
				v.floats = make([]float64, rows)
				for r := range v.floats {
					v.floats[r] = math.Float64frombits(binary.LittleEndian.Uint64(buf[r*8:]))
				}
			} else {
				v.ints = make([]int64, rows)
				for r := range v.ints {
					v.ints[r] = int64(binary.LittleEndian.Uint64(buf[r*8:]))
				}
			}
			buf = buf[rows*8:]
		case types.Text:
			if len(buf) < rows*4 {
				return nil, fmt.Errorf("%w: chunk column %d strings truncated", ErrBadSegment, i)
			}
			v.strs = make([]string, rows)
			for r := 0; r < rows; r++ {
				if len(buf) < 4 {
					return nil, fmt.Errorf("%w: chunk column %d string %d truncated", ErrBadSegment, i, r)
				}
				n := binary.LittleEndian.Uint32(buf)
				buf = buf[4:]
				if uint64(len(buf)) < uint64(n) {
					return nil, fmt.Errorf("%w: chunk column %d string %d truncated", ErrBadSegment, i, r)
				}
				v.strs[r] = string(buf[:n])
				buf = buf[n:]
			}
		default:
			return nil, fmt.Errorf("%w: chunk column %d has unknown kind %d", ErrBadSegment, i, int(v.kind))
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: chunk has %d trailing bytes", ErrBadSegment, len(buf))
	}
	return c, nil
}
