// GB002 fixture: JoinState's maintained fields may only be written by
// the declared delta mutators (Apply, BuildJoinState). Scratch buffers
// are reusable by design and exempt.
package rel

type joinPair struct{ l, r int }

type JoinState struct {
	table      map[int][]int
	probeIdx   map[int][]int
	pairs      []joinPair
	out        []int
	lLen, rLen int

	scratch    []int
	matScratch []int
}

// Declared mutators: free to write maintained state.

func BuildJoinState(l, r []int) *JoinState {
	s := &JoinState{table: map[int][]int{}, probeIdx: map[int][]int{}}
	s.lLen, s.rLen = len(l), len(r)
	return s
}

func (s *JoinState) Apply(delta []int) {
	s.out = append(s.out, delta...)
	s.lLen += len(delta)
}

// --- violations ---

func (s *JoinState) RewriteOutput(v int) {
	s.out = append(s.out, v) // want `RewriteOutput writes JoinState maintained state s\.out outside the declared delta mutators`
}

func (s *JoinState) ForceLengths(l, r int) {
	s.lLen = l // want `ForceLengths writes JoinState maintained state s\.lLen outside the declared delta mutators`
	s.rLen = r // want `ForceLengths writes JoinState maintained state s\.rLen outside the declared delta mutators`
}

func patchConstructed() *JoinState {
	js := &JoinState{}
	js.pairs = append(js.pairs, joinPair{1, 2}) // want `patchConstructed writes JoinState maintained state js\.pairs outside the declared delta mutators`
	return js
}

func pokeHashTable(keys []int) {
	js := JoinState{}
	js.table[0] = keys // want `pokeHashTable writes JoinState maintained state js\.table outside the declared delta mutators`
}

// --- legal patterns ---

// Scratch buffers are exempt: they carry no cross-delta state.
func (s *JoinState) Probe(vals []int) []int {
	s.scratch = s.scratch[:0]
	s.matScratch = append(s.matScratch[:0], vals...)
	return s.scratch
}

// Reads of maintained state are always fine.
func (s *JoinState) Len() int { return len(s.out) }

// A non-JoinState variable with a coincidental field name is not a root.
type other struct{ pairs []int }

func unrelated(o *other) {
	o.pairs = append(o.pairs, 1)
}
