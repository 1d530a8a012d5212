package dataflow

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/display"
	"repro/internal/rel"
	"repro/internal/types"
	"repro/internal/workload"
)

// lockedSource is a TableSource safe for the racing tests: table-version
// swaps and reads synchronize the way the server's snapSource does.
type lockedSource struct {
	mu sync.RWMutex
	m  map[string]*rel.Relation
}

func newLockedSource(m map[string]*rel.Relation) *lockedSource {
	return &lockedSource{m: m}
}

func (s *lockedSource) Table(name string) (*rel.Relation, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.m[name]
	if !ok {
		return nil, errNoTable(name)
	}
	return t, nil
}

func (s *lockedSource) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.m))
	for n := range s.m {
		out = append(out, n)
	}
	return out
}

func (s *lockedSource) get(name string) *rel.Relation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[name]
}

func (s *lockedSource) set(name string, r *rel.Relation) {
	s.mu.Lock()
	s.m[name] = r
	s.mu.Unlock()
}

// writeTable applies one random CoW write to the named table — the same
// clone-mutate-swap-delta sequence the db write path commits — and
// returns the TableDelta describing it.
func writeTable(rng *rand.Rand, src *lockedSource, table string) TableDelta {
	cur := src.get(table)
	prevGen := cur.Generation()
	nt := cur.CowClone()
	var op rel.DeltaOp
	if cur.Len() == 0 || rng.Intn(3) == 0 {
		tup := randomTupleFor(rng, table)
		nt.MustAppend(tup)
		op = rel.DeltaOp{Kind: rel.DeltaAppend, Row: nt.Len() - 1, Tuple: nt.Tuple(nt.Len() - 1)}
	} else {
		row := rng.Intn(cur.Len())
		old := cur.Tuple(row)
		col, nv := randomUpdateFor(rng, table)
		if err := nt.Update(row, col, nv); err != nil {
			panic(err)
		}
		op = rel.DeltaOp{Kind: rel.DeltaUpdate, Row: row, Tuple: nt.Tuple(row), Old: old}
	}
	src.set(table, nt)
	return TableDelta{PrevGen: prevGen, Gen: nt.Generation(), Ops: []rel.DeltaOp{op}}
}

func randomTupleFor(rng *rand.Rand, table string) []types.Value {
	states := []string{"LA", "TX", "MS", "AL"}
	if table == "Observations" {
		return []types.Value{
			types.NewInt(int64(rng.Intn(40))),
			types.NewDate(int64(rng.Intn(365))),
			types.NewFloat(rng.Float64()*40 - 5),
			types.NewFloat(rng.Float64() * 10),
		}
	}
	return []types.Value{
		types.NewInt(int64(1000 + rng.Intn(1000))),
		types.NewText(fmt.Sprintf("station-%d", rng.Intn(10000))),
		types.NewText(states[rng.Intn(len(states))]),
		types.NewFloat(-95 + rng.Float64()*10),
		types.NewFloat(29 + rng.Float64()*6),
		types.NewFloat(rng.Float64() * 500),
		types.NewDate(int64(rng.Intn(10000))),
	}
}

func randomUpdateFor(rng *rand.Rand, table string) (string, types.Value) {
	if table == "Observations" {
		if rng.Intn(2) == 0 {
			return "temperature", types.NewFloat(rng.Float64()*40 - 5)
		}
		return "precipitation", types.NewFloat(rng.Float64() * 10)
	}
	states := []string{"LA", "TX", "MS", "AL"}
	switch rng.Intn(3) {
	case 0:
		// Flips restrict membership sometimes — exercises the fallback.
		return "state", types.NewText(states[rng.Intn(len(states))])
	case 1:
		return "latitude", types.NewFloat(29 + rng.Float64()*6)
	default:
		return "name", types.NewText(fmt.Sprintf("renamed-%d", rng.Intn(10000)))
	}
}

// demandRel demands (box, 0), unwraps the relation, and reports how many
// boxes the demand fired.
func demandRel(t *testing.T, ev *Evaluator, box int) (*rel.Relation, int) {
	t.Helper()
	res, err := ev.Eval(context.Background(), Request{Box: box})
	if err != nil {
		t.Fatal(err)
	}
	ext, ok := res.Value.(*display.Extended)
	if !ok {
		t.Fatalf("demand returned %T, want extended relation", res.Value)
	}
	return ext.Rel, res.Fires
}

// sameRel asserts two relations carry identical tuples.
func sameRel(t *testing.T, label string, got, want *rel.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.Tuple(i), want.Tuple(i)
		if len(g) != len(w) {
			t.Fatalf("%s: row %d arity %d, want %d", label, i, len(g), len(w))
		}
		for j := range w {
			if !g[j].Equal(w[j]) {
				t.Fatalf("%s: row %d col %d: got %v want %v", label, i, j, g[j], w[j])
			}
		}
	}
}

// fullRecompute evaluates the same program over the current source in a
// fresh evaluator — the differential oracle for every delta test.
func fullRecompute(t *testing.T, g *Graph, src TableSource, box int) *rel.Relation {
	t.Helper()
	r, _ := demandRel(t, NewEvaluator(g, src), box)
	return r
}

func buildDeltaPipeline(t *testing.T) (*Graph, *Evaluator, *lockedSource, map[string]*Box) {
	t.Helper()
	st := workload.Stations(40, 1)
	obs, err := workload.Observations(st, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := newLockedSource(map[string]*rel.Relation{"Stations": st, "Observations": obs})
	g := NewGraph(NewRegistry())
	ev := NewEvaluator(g, src)
	boxes := map[string]*Box{}
	add := func(name, kind string, p Params) {
		b, err := g.AddBox(kind, p)
		if err != nil {
			t.Fatalf("add %s: %v", kind, err)
		}
		boxes[name] = b
	}
	add("table", "table", Params{"name": "Stations"})
	add("restrict", "restrict", Params{"pred": "state = 'LA'"})
	add("project", "project", Params{"attrs": "id,name,state,latitude"})
	connect := func(a, b string) {
		t.Helper()
		if err := g.Connect(boxes[a].ID, 0, boxes[b].ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	connect("table", "restrict")
	connect("restrict", "project")
	return g, ev, src, boxes
}

// A batch of appends must flow through the memoized pipeline without a
// single refire, and match the full recompute exactly.
func TestDeltaAppendsApplyWithoutRefire(t *testing.T) {
	g, ev, src, boxes := buildDeltaPipeline(t)
	target := boxes["project"].ID
	before, _ := demandRel(t, ev, target)
	baseLen := before.Len()

	var deltas []TableDelta
	cur := src.get("Stations")
	for i := 0; i < 5; i++ {
		prevGen := cur.Generation()
		nt := cur.CowClone()
		nt.MustAppend([]types.Value{
			types.NewInt(int64(9000 + i)),
			types.NewText(fmt.Sprintf("new-%d", i)),
			types.NewText("LA"),
			types.NewFloat(-91),
			types.NewFloat(30),
			types.NewFloat(12),
			types.NewDate(9000),
		})
		deltas = append(deltas, TableDelta{
			PrevGen: prevGen, Gen: nt.Generation(),
			Ops: []rel.DeltaOp{{Kind: rel.DeltaAppend, Row: nt.Len() - 1, Tuple: nt.Tuple(nt.Len() - 1)}},
		})
		cur = nt
	}
	src.set("Stations", cur)
	ev.EnqueueTableDelta("Stations", deltas)

	after, fires := demandRel(t, ev, target)
	if fires != 0 {
		t.Fatalf("delta application fired %d boxes, want 0", fires)
	}
	if after.Len() != baseLen+5 {
		t.Fatalf("output has %d rows, want %d", after.Len(), baseLen+5)
	}
	sameRel(t, "incremental vs full", after, fullRecompute(t, g, src, target))
}

// Differential property over the restrict→project chain: randomized
// append/update sequences, incremental output identical to a fresh full
// recompute after every batch — whether the delta applied or fell back.
func TestDeltaDifferentialRestrictProject(t *testing.T) {
	g, ev, src, boxes := buildDeltaPipeline(t)
	target := boxes["project"].ID
	demandRel(t, ev, target)

	rng := rand.New(rand.NewSource(11))
	cleanSteps := 0
	for step := 0; step < 80; step++ {
		var deltas []TableDelta
		for n := rng.Intn(3) + 1; n > 0; n-- {
			deltas = append(deltas, writeTable(rng, src, "Stations"))
		}
		ev.EnqueueTableDelta("Stations", deltas)
		got, fires := demandRel(t, ev, target)
		if fires == 0 {
			cleanSteps++
		}
		sameRel(t, fmt.Sprintf("step %d", step), got, fullRecompute(t, g, src, target))
	}
	if cleanSteps == 0 {
		t.Fatal("delta path never applied cleanly across 80 steps")
	}
}

// Differential property over a restrict→join chain with writes on both
// sides: the maintained hash-join state must track appends and non-key
// updates, fall back on the rest, and stay byte-identical throughout.
func TestDeltaDifferentialJoin(t *testing.T) {
	st := workload.Stations(30, 3)
	obs, err := workload.Observations(st, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	src := newLockedSource(map[string]*rel.Relation{"Stations": st, "Observations": obs})
	g := NewGraph(NewRegistry())
	ev := NewEvaluator(g, src)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	rb, _ := g.AddBox("restrict", Params{"pred": "latitude > 29.0"})
	ob, _ := g.AddBox("table", Params{"name": "Observations"})
	jb, _ := g.AddBox("join", Params{"pred": "id = station_id", "strategy": "hash"})
	if err := g.Connect(tb.ID, 0, rb.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(rb.ID, 0, jb.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(ob.ID, 0, jb.ID, 1); err != nil {
		t.Fatal(err)
	}
	demandRel(t, ev, jb.ID)

	rng := rand.New(rand.NewSource(17))
	cleanSteps := 0
	for step := 0; step < 60; step++ {
		table := "Observations"
		if rng.Intn(3) == 0 {
			table = "Stations"
		}
		var deltas []TableDelta
		for n := rng.Intn(2) + 1; n > 0; n-- {
			deltas = append(deltas, writeTable(rng, src, table))
		}
		ev.EnqueueTableDelta(table, deltas)
		got, fires := demandRel(t, ev, jb.ID)
		if fires == 0 {
			cleanSteps++
		}
		sameRel(t, fmt.Sprintf("step %d (%s)", step, table), got, fullRecompute(t, g, src, jb.ID))
	}
	if cleanSteps == 0 {
		t.Fatal("join delta path never applied cleanly across 60 steps")
	}
}

// A delta-opaque box (sort has no FireDelta) must fall back to a full
// refire — and still produce exactly the full recompute's output.
func TestDeltaOpaqueBoxFallsBack(t *testing.T) {
	st := workload.Stations(25, 5)
	src := newLockedSource(map[string]*rel.Relation{"Stations": st})
	g := NewGraph(NewRegistry())
	ev := NewEvaluator(g, src)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	sb, _ := g.AddBox("sort", Params{"attr": "name"})
	if err := g.Connect(tb.ID, 0, sb.ID, 0); err != nil {
		t.Fatal(err)
	}
	demandRel(t, ev, sb.ID)

	rng := rand.New(rand.NewSource(23))
	d := writeTable(rng, src, "Stations")
	ev.EnqueueTableDelta("Stations", []TableDelta{d})
	got, refired := demandRel(t, ev, sb.ID)
	// The table memo was patched in place; only the sort refired.
	if refired != 1 {
		t.Fatalf("opaque fallback refired %d boxes, want 1 (sort only)", refired)
	}
	sameRel(t, "opaque fallback", got, fullRecompute(t, g, src, sb.ID))
}

// With delta evaluation disabled, EnqueueTableDelta must degrade to the
// touch path: everything refires, output still exact.
func TestDeltaDisabledDegradesToTouch(t *testing.T) {
	prev := SetDeltaDisabled(true)
	defer SetDeltaDisabled(prev)
	g, ev, src, boxes := buildDeltaPipeline(t)
	target := boxes["project"].ID
	demandRel(t, ev, target)

	rng := rand.New(rand.NewSource(29))
	d := writeTable(rng, src, "Stations")
	ev.EnqueueTableDelta("Stations", []TableDelta{d})
	got, refired := demandRel(t, ev, target)
	if refired != 3 {
		t.Fatalf("disabled path refired %d boxes, want 3 (table, restrict, project)", refired)
	}
	sameRel(t, "disabled ablation", got, fullRecompute(t, g, src, target))
}

// A delta chain that does not reach the current table generation (a
// missing event) must drop the memo rather than serve a stale patch.
func TestDeltaChainGapFallsBack(t *testing.T) {
	g, ev, src, boxes := buildDeltaPipeline(t)
	target := boxes["project"].ID
	demandRel(t, ev, target)

	rng := rand.New(rand.NewSource(31))
	// Two writes, but only the second's delta is enqueued: its PrevGen
	// does not match the memoized generation.
	_ = writeTable(rng, src, "Stations")
	d2 := writeTable(rng, src, "Stations")
	ev.EnqueueTableDelta("Stations", []TableDelta{d2})
	got, _ := demandRel(t, ev, target)
	sameRel(t, "chain gap", got, fullRecompute(t, g, src, target))
}

// Deltas racing demands: writer goroutines commit CoW writes and enqueue
// deltas while reader goroutines hammer Eval. Run under -race. The
// final quiesced demand must equal a full recompute of the final state.
func TestDeltaRacingDemands(t *testing.T) {
	g, ev, src, boxes := buildDeltaPipeline(t)
	target := boxes["project"].ID
	demandRel(t, ev, target)

	var writerMu sync.Mutex // commit order: swap + enqueue are one commit
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ev.Eval(context.Background(), Request{Box: target}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 200; i++ {
		writerMu.Lock()
		d := writeTable(rng, src, "Stations")
		ev.EnqueueTableDelta("Stations", []TableDelta{d})
		writerMu.Unlock()
	}
	close(stop)
	wg.Wait()

	got, _ := demandRel(t, ev, target)
	sameRel(t, "racing final state", got, fullRecompute(t, g, src, target))
}
