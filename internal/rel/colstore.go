package rel

import (
	"slices"
	"sync/atomic"

	"repro/internal/types"
)

// ChunkSource supplies the chunks of one relation's columnar storage.
// Implementations must be safe for concurrent ReadChunk calls and must
// return byte-identical chunk contents on every read of the same index —
// the chunk cache relies on that to evict and refault freely.
type ChunkSource interface {
	// NumChunks returns how many chunks the source holds.
	NumChunks() int
	// ChunkRows returns the nominal rows-per-chunk (the last chunk may
	// be shorter).
	ChunkRows() int
	// Rows returns the total row count.
	Rows() int
	// ReadChunk loads chunk i.
	ReadChunk(i int) (*Chunk, error)
}

// chunkSlot is one chunk position of a colStore. res holds the resident
// chunk, or nil when evicted. Slots with a source are cache-managed:
// the bounded chunk cache may clear res and refault it from src later.
// Slots without a source (freshly written or mutated chunks) are pinned
// resident for the lifetime of the store versions that reference them.
//
// Slots are shared freely between store versions — mutators copy the
// slot-pointer slice — which is safe because the only mutable field is
// the resident pointer, and loading/evicting never changes the chunk's
// logical contents.
type chunkSlot struct {
	res atomic.Pointer[Chunk]
	src ChunkSource // nil = pinned resident
	idx int         // chunk index within src

	// LRU bookkeeping, owned by the chunk cache mutex.
	lruPrev, lruNext *chunkSlot
	inCache          bool
	resBytes         int64
}

// pinnedSlot wraps a resident-only chunk in a slot.
func pinnedSlot(c *Chunk) *chunkSlot {
	s := &chunkSlot{}
	s.res.Store(c)
	return s
}

// colStore is the tuple storage of one relation version: an ordered
// slice of chunk slots over a fixed schema. Stores are immutable —
// mutation helpers return a new store sharing all untouched slots, so a
// relation's copy-on-write clone copies only this chunk directory.
type colStore struct {
	schema    *Schema
	slots     []*chunkSlot
	rows      int
	chunkRows int
}

// newColStore wires a store directly onto a chunk source with all slots
// evicted; chunks fault in lazily through the chunk cache.
func newColStore(schema *Schema, src ChunkSource) *colStore {
	cs := &colStore{schema: schema, rows: src.Rows(), chunkRows: src.ChunkRows()}
	n := src.NumChunks()
	cs.slots = make([]*chunkSlot, n)
	for i := 0; i < n; i++ {
		cs.slots[i] = &chunkSlot{src: src, idx: i}
	}
	return cs
}

// faults reports whether any chunk of the store faults in from a source.
func (cs *colStore) faults() bool {
	for _, s := range cs.slots {
		if s.src != nil {
			return true
		}
	}
	return false
}

// chunkSpan returns the [lo, hi) row range of chunk i.
func (cs *colStore) chunkSpan(i int) (lo, hi int) {
	lo = i * cs.chunkRows
	hi = lo + cs.chunkRows
	if hi > cs.rows {
		hi = cs.rows
	}
	return lo, hi
}

// rowChunk maps a row id to (chunk index, offset).
func (cs *colStore) rowChunk(row int) (ci, off int) {
	return row / cs.chunkRows, row % cs.chunkRows
}

// chunk returns chunk i, faulting it in through the bounded chunk cache
// if evicted. The returned chunk stays valid for as long as the caller
// holds the pointer, even if the cache evicts the slot meanwhile.
func (cs *colStore) chunk(i int) (*Chunk, error) {
	s := cs.slots[i]
	if c := s.res.Load(); c != nil {
		return c, nil
	}
	return globalChunkCache.fault(s)
}

// tuple decodes row into a fresh slice.
func (cs *colStore) tuple(row int) ([]types.Value, error) {
	ci, off := cs.rowChunk(row)
	c, err := cs.chunk(ci)
	if err != nil {
		return nil, err
	}
	return c.DecodeRow(off, make([]types.Value, 0, len(c.cols))), nil
}

// withAppend returns a new store with tuple appended: the tail chunk
// gains a row (in place when it can, see Chunk.appended), or a fresh
// tail starts when it is full. All other slots are shared. The new tail
// has no source — it diverged from any segment backing — so it stays
// pinned resident.
func (cs *colStore) withAppend(tuple []types.Value) (*colStore, error) {
	if err := checkTuple(cs.schema, tuple); err != nil {
		return nil, err
	}
	out := &colStore{schema: cs.schema, chunkRows: cs.chunkRows, rows: cs.rows + 1}
	keep := len(cs.slots)
	var tail *Chunk
	if cs.rows < keep*cs.chunkRows {
		keep--
		var err error
		if tail, err = cs.chunk(keep); err != nil {
			return nil, err
		}
	} else {
		tail = newChunkBuilder(cs.schema, 0).finish()
	}
	out.slots = append(cs.slots[:keep:keep], pinnedSlot(tail.appended(tuple)))
	return out, nil
}

// withRow returns a new store with row replaced by tuple. Only the
// affected chunk gets a new version, sharing every unchanged lane (see
// Chunk.withRow); it is pinned resident.
func (cs *colStore) withRow(row int, tuple []types.Value) (*colStore, error) {
	if err := checkTuple(cs.schema, tuple); err != nil {
		return nil, err
	}
	ci, off := cs.rowChunk(row)
	old, err := cs.chunk(ci)
	if err != nil {
		return nil, err
	}
	out := &colStore{schema: cs.schema, chunkRows: cs.chunkRows, rows: cs.rows}
	out.slots = slices.Clone(cs.slots)
	out.slots[ci] = pinnedSlot(old.withRow(off, tuple))
	return out, nil
}

// storeBuilder encodes rows arriving one at a time into pinned chunks
// of DefaultChunkRows rows, sealing each chunk once: a bulk producer
// (Builder, Union) never makes a copy-on-write version per row.
type storeBuilder struct {
	schema *Schema
	slots  []*chunkSlot
	cur    *chunkBuilder
	rows   int
}

// appendRow adds one tuple.
func (b *storeBuilder) appendRow(tuple []types.Value) error {
	if b.cur == nil {
		b.cur = newChunkBuilder(b.schema, 0)
	}
	if err := b.cur.appendRow(tuple); err != nil {
		return err
	}
	if b.rows++; b.cur.c.rows == DefaultChunkRows {
		b.slots = append(b.slots, pinnedSlot(b.cur.finish()))
		b.cur = nil
	}
	return nil
}

// finish returns the built store.
func (b *storeBuilder) finish() *colStore {
	slots := b.slots
	if b.cur != nil {
		slots = append(slots, pinnedSlot(b.cur.finish()))
	}
	return &colStore{schema: b.schema, slots: slots, rows: b.rows, chunkRows: DefaultChunkRows}
}

// part is one source of a gather: rows of src, whose columns colMap
// fill a run of the output's columns.
type part struct {
	src          *colStore
	rows, colMap []int
}

// gatherStore builds a store of pinned chunks holding one row per entry
// of the parts' (equally long) row lists, each part filling the next
// len(colMap) output columns (see chunkBuilder.gather). Join, and a view
// that needs its rows in a store of its own, gather this way. Output
// chunks are independent, so a large gather fills them in parallel, as
// a scan splits.
func gatherStore(schema *Schema, parts ...part) (*colStore, error) {
	n := len(parts[0].rows)
	slots := make([]*chunkSlot, (n+DefaultChunkRows-1)/DefaultChunkRows)
	err := runChunks(len(slots), min(scanChunks(n), len(slots)), func(_, lo, hi int) error {
		sub := make([]part, len(parts))
		for k := lo; k < hi; k++ {
			from, to := k*DefaultChunkRows, min((k+1)*DefaultChunkRows, n)
			for i, p := range parts {
				sub[i] = part{p.src, p.rows[from:to], p.colMap}
			}
			cb := newChunkBuilder(schema, to-from)
			if err := cb.refill(sub...); err != nil {
				return err
			}
			slots[k] = pinnedSlot(cb.finish())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &colStore{schema: schema, slots: slots, rows: n, chunkRows: DefaultChunkRows}, nil
}

// identityMap returns [0, 1, ..., n-1]: every column (or row) in place.
func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}
