// GB003 fixture: colStore chunk directories are immutable versions
// shared across relations and the chunk cache; only the declared
// constructors and copy-on-write mutators (newColStore, withAppend,
// withRow) may write them. chunkSlot residency is the cache's own
// mutable state and exempt.
package rel

type chunkSlot struct {
	res *int
}

type colStore struct {
	slots     []*chunkSlot
	rows      int
	chunkRows int
	schema    []string
}

// Declared mutators: free to write the directory.

func newColStore(n int) *colStore {
	cs := &colStore{chunkRows: 8}
	cs.slots = make([]*chunkSlot, n)
	cs.rows = n * 8
	return cs
}

func (cs *colStore) withAppend() *colStore {
	out := &colStore{chunkRows: cs.chunkRows}
	out.slots = append(out.slots, cs.slots...)
	out.rows = cs.rows + 1
	return out
}

func (cs *colStore) withRow(i int) *colStore {
	out := &colStore{rows: cs.rows, chunkRows: cs.chunkRows}
	out.slots = make([]*chunkSlot, len(cs.slots))
	out.slots[i] = &chunkSlot{}
	return out
}

// A store built as one composite literal writes no field.
func (cs *colStore) renamed(schema []string) *colStore {
	return &colStore{schema: schema, slots: cs.slots, rows: cs.rows, chunkRows: cs.chunkRows}
}

// --- violations ---

func (cs *colStore) truncate(n int) {
	cs.rows = n // want `truncate writes colStore chunk directory cs\.rows outside the declared chunk mutators`
}

func (cs *colStore) rechunk(n int) {
	cs.chunkRows = n // want `rechunk writes colStore chunk directory cs\.chunkRows outside the declared chunk mutators`
	cs.slots = nil   // want `rechunk writes colStore chunk directory cs\.slots outside the declared chunk mutators`
}

func patchConstructedStore() *colStore {
	cs := &colStore{}
	cs.slots = append(cs.slots, &chunkSlot{}) // want `patchConstructedStore writes colStore chunk directory cs\.slots outside the declared chunk mutators`
	return cs
}

// --- legal patterns ---

// Reads are always fine.
func (cs *colStore) numChunks() int { return len(cs.slots) }

// Residency lives on the slot, not the directory: the chunk cache
// faults and evicts through it at will.
func (cs *colStore) fault(i int, c *int) {
	cs.slots[i].res = c
}

// A non-colStore variable with coincidental field names is not a root.
type rowBatch struct{ rows int }

func resize(b *rowBatch, n int) { b.rows = n }
