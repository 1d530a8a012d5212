package dataflow

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/display"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/rel"
)

// Incremental (delta) evaluation: instead of touching a table box — which
// bumps graph versions and refires the whole downstream suffix — a table
// write can enqueue a tuple-level delta (EnqueueTableDelta). The next
// demand runs an incremental pass before the wavefront: it patches the
// table box's memo to the new relation version, then propagates the delta
// through every delta-capable consumer (restrict and project boxes via
// rel.FusedDelta, hash joins via a maintained rel.JoinState, any kind
// exposing FireDelta), replacing memoized outputs WITHOUT moving stamps.
// A box the delta cannot flow through falls back to the invalidation the
// touch path would have caused: its memo is dropped (generation-bumped),
// and so is every transitive full-graph consumer not itself maintained in
// the same pass — since stamps never moved, a stale consumer memo would
// otherwise be served forever. Live scenarios thus cost O(changed tuples)
// per frame on maintained paths and degrade to exactly the old behavior
// everywhere else; the differential tests assert byte-identical outputs
// against full recompute either way.

var deltaOff atomic.Bool

// SetDeltaDisabled turns incremental delta evaluation off (true) or on
// (false) process-wide and returns the previous setting. While disabled,
// EnqueueTableDelta degrades to touching the table boxes (full refire) —
// the ablation baseline for the streaming bench.
func SetDeltaDisabled(off bool) bool { return deltaOff.Swap(off) }

// DeltaDisabled reports whether incremental delta evaluation is disabled.
func DeltaDisabled() bool { return deltaOff.Load() }

// maxPendingDeltaOps bounds the tuple ops queued per table box. A queue
// past the bound means the consumer is far behind; replaying it would
// cost more than one full refire, so the queue is dropped and the box
// touched instead.
const maxPendingDeltaOps = 8192

// TableDelta is one committed table change: the tuple ops taking the
// relation from generation PrevGen to Gen. Deltas chain — a batch is
// applicable to a memoized relation only if an entry's PrevGen matches
// the memo's generation and the entries link contiguously to the end.
type TableDelta struct {
	PrevGen int64
	Gen     int64
	Ops     []rel.DeltaOp
}

// DeltaFire carries everything a kind's incremental firing needs: the
// box's memoized outputs, its current and previous promoted inputs, and
// the per-input-port deltas (nil for an unchanged input). State is a slot
// for operator-maintained structures (the hash-join index) that survive
// across passes; implementations read the current value and write the
// replacement through the pointer (nil to discard).
type DeltaFire struct {
	Old     []Value
	In      []Value
	OldIn   []Value
	InDelta []*rel.TupleDelta
	State   *any
}

// DeltaFireFunc incrementally maintains a box's outputs. It returns the
// new outputs, the box's own output delta (applied to every output port),
// and ok=true; ok=false (with or without an error) means the kind could
// not maintain this change and the box must fall back to a full refire.
// Implementations must be conservative: returning ok=true asserts the
// outputs are byte-identical to what a full firing over In would produce.
type DeltaFireFunc func(ctx context.Context, fc *FireContext, p Params, d *DeltaFire) ([]Value, *rel.TupleDelta, bool, error)

// DeltaCapable reports whether the kind can maintain its outputs
// incrementally. Kinds without a FireDelta (sort, sample, user compute)
// are delta-opaque: a delta reaching them falls back to full refiring.
func (k *Kind) DeltaCapable() bool { return k != nil && k.FireDelta != nil }

// tableBoxes returns the ids of every table box reading the named table,
// the same matching TouchTable uses.
func (e *Evaluator) tableBoxes(table string) []int {
	var ids []int
	for _, b := range e.g.Boxes() {
		if b.Kind == "table" && b.Params.Str("name", "") == table {
			ids = append(ids, b.ID)
		}
	}
	return ids
}

// EnqueueTableDelta queues committed tuple deltas for the named table's
// boxes, to be applied incrementally by the next demand. Entries must be
// in commit order. When delta evaluation is disabled, an entry is
// unusable (no ops), or a queue overflows, the affected boxes are touched
// instead — the exact full-refire behavior of the pre-delta event path.
//
// Like graph mutation and SetTableSource, EnqueueTableDelta must be
// serialized against table-source swaps: the table relation the source
// serves must already include these deltas when the next demand runs.
func (e *Evaluator) EnqueueTableDelta(table string, deltas []TableDelta) {
	if len(deltas) == 0 {
		return
	}
	ids := e.tableBoxes(table)
	if len(ids) == 0 {
		return
	}
	usable := !deltaOff.Load()
	for _, d := range deltas {
		if len(d.Ops) == 0 || d.Gen == 0 {
			usable = false
			break
		}
	}
	if !usable {
		for _, id := range ids {
			e.g.Touch(id)
		}
		return
	}
	var overflow []int
	e.mu.Lock()
	for _, id := range ids {
		q := append(e.pending[id], deltas...)
		ops := 0
		for _, d := range q {
			ops += len(d.Ops)
		}
		if ops > maxPendingDeltaOps {
			delete(e.pending, id)
			overflow = append(overflow, id)
			continue
		}
		e.pending[id] = q
	}
	e.mu.Unlock()
	obs.Add(obs.EvalDeltaEnqueued, int64(len(deltas)*len(ids)))
	for _, id := range overflow {
		e.g.Touch(id)
	}
}

// deltaResult records one box successfully maintained by an incremental
// pass: the delta its consumers should apply, and its outputs before and
// after, for building DeltaFire inputs downstream.
type deltaResult struct {
	delta   *rel.TupleDelta
	oldVals []Value
	newVals []Value
}

// applyDeltas runs the incremental pass for one planned request: patch
// pending table deltas into table-box memos, propagate through the plan
// in level order, and drop the memo of everything downstream that was not
// maintained. Runs entirely under the evaluator lock, before the
// wavefront; stamps are never moved, so a patched memo keeps serving
// cache hits.
func (e *Evaluator) applyDeltas(ctx context.Context, p *plan) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.pending) == 0 {
		return
	}

	// Phase 1 — table boxes of this plan with queued deltas.
	applied := make(map[int]*deltaResult)
	dropped := make(map[int]bool)
	var tables []int
	var appliedN, fallbackN, opsN int
	e.deltaClock++
	clock := e.deltaClock

	dropMemo := func(id int) {
		if vals, ok := e.cache[id]; ok {
			bumpDroppedGenerations(vals)
			delete(e.cache, id)
			delete(e.stamps, id)
			fallbackN++
		}
		delete(e.deltaState, id)
		e.deltaTouched[id] = clock
	}
	dropNode := func(id int) {
		dropMemo(id)
		dropped[id] = true
	}

	if len(p.levels) == 0 {
		return
	}
	for _, n := range p.levels[0] {
		if n.box.Kind != "table" {
			continue
		}
		entries := e.pending[n.id]
		if len(entries) == 0 {
			continue
		}
		vals, ok := e.cache[n.id]
		if !ok || len(vals) == 0 {
			// No memo to patch: the wavefront will fire the box fresh
			// (resolve clears the queue then), but stale consumers of the
			// old firing must still go.
			tables = append(tables, n.id)
			dropped[n.id] = true
			e.deltaTouched[n.id] = clock
			continue
		}
		ext, ok := vals[0].(*display.Extended)
		if !ok || ext.Rel == nil {
			tables = append(tables, n.id)
			dropNode(n.id)
			continue
		}
		memoGen := ext.Rel.Generation()
		last := entries[len(entries)-1]
		if memoGen == last.Gen {
			// Already current (an earlier pass consumed the chain through
			// another plan); nothing to propagate.
			delete(e.pending, n.id)
			continue
		}
		// Find the contiguous chain suffix starting at the memo's
		// generation; a gap (event coalescing, a missed write) makes the
		// queue unusable.
		start := -1
		for i, en := range entries {
			if en.PrevGen == memoGen {
				start = i
				break
			}
		}
		chainOK := start >= 0
		for i := start; chainOK && i+1 < len(entries); i++ {
			chainOK = entries[i+1].PrevGen == entries[i].Gen
		}
		if !chainOK {
			tables = append(tables, n.id)
			dropNode(n.id)
			continue
		}
		// The current source relation must be exactly the chain's end
		// state — otherwise the source ran ahead of (or behind) the queue.
		name := n.box.Params.Str("name", "")
		var cur *rel.Relation
		if e.fc.Tables != nil {
			cur, _ = e.fc.Tables.Table(name)
		}
		if cur == nil || cur.Generation() != last.Gen {
			tables = append(tables, n.id)
			dropNode(n.id)
			continue
		}
		var ops []rel.DeltaOp
		for _, en := range entries[start:] {
			ops = append(ops, en.Ops...)
		}
		newVal := display.NewDefaultExtended(name, cur, 80)
		newVals := []Value{newVal}
		e.cache[n.id] = newVals
		delete(e.pending, n.id)
		applied[n.id] = &deltaResult{delta: &rel.TupleDelta{Ops: ops}, oldVals: vals, newVals: newVals}
		e.deltaTouched[n.id] = clock
		tables = append(tables, n.id)
		appliedN++
		opsN += len(ops)
	}
	if len(tables) == 0 {
		return
	}

	var sp *obs.Span
	if obs.Recording() {
		_, sp = obs.StartSpanCtx(ctx, obs.SpanEvalDeltaApply, "tables", itoa(len(tables)))
	}

	// Phase 2 — propagate through the plan in level order. A node whose
	// producers all went unchanged is untouched; one with a dropped
	// producer drops too; otherwise its kind gets one chance to maintain
	// the memo in place.
	for _, level := range p.levels[1:] {
		for _, n := range level {
			anyChanged, anyDropped := false, false
			for _, edge := range n.deps {
				if applied[edge.From] != nil {
					anyChanged = true
				}
				if dropped[edge.From] {
					anyDropped = true
				}
			}
			if !anyChanged && !anyDropped {
				continue
			}
			if anyDropped {
				dropNode(n.id)
				continue
			}
			res := e.applyKindDelta(ctx, n, applied)
			if res == nil {
				dropNode(n.id)
				continue
			}
			e.cache[n.id] = res.newVals
			applied[n.id] = res
			e.deltaTouched[n.id] = clock
			appliedN++
			opsN += len(res.delta.Ops)
		}
	}

	// Phase 3 — stamps never moved, so any full-graph transitive consumer
	// of a changed table that was not maintained above would keep serving
	// a memo of the pre-delta world; sweep them like Invalidate does.
	dependents := make(map[int][]int)
	for _, edge := range e.g.Edges() {
		dependents[edge.From] = append(dependents[edge.From], edge.To)
	}
	seen := make(map[int]bool)
	var sweep func(int)
	sweep = func(id int) {
		for _, to := range dependents[id] {
			if seen[to] {
				continue
			}
			seen[to] = true
			if applied[to] == nil {
				dropMemo(to)
			}
			sweep(to)
		}
	}
	for _, id := range tables {
		seen[id] = true
	}
	for _, id := range tables {
		sweep(id)
	}

	obs.Add(obs.EvalDeltaApplied, int64(appliedN))
	obs.Add(obs.EvalDeltaFallbacks, int64(fallbackN))
	obs.Add(obs.EvalDeltaOps, int64(opsN))
	sp.Annotate("applied", itoa(appliedN))
	sp.Annotate("fallbacks", itoa(fallbackN))
	sp.Annotate("ops", itoa(opsN))
	sp.End()
}

// stepOp reads a restrict or project box's parameters into the
// rel.FusedOp it runs as, whether it fires in full or incrementally.
func stepOp(kind string, p Params) (rel.FusedOp, error) {
	if kind == "project" {
		attrs := p.List("attrs")
		if len(attrs) == 0 {
			return rel.FusedOp{}, fmt.Errorf("project needs attrs=")
		}
		return rel.FusedOp{Project: attrs}, nil
	}
	pred, err := parsePred(p)
	return rel.FusedOp{Pred: pred}, err
}

// stepDelta maintains a restrict or project box through rel.FusedDelta.
// A parameter problem falls back to the full firing, which reports it.
func stepDelta(d *DeltaFire, kind string, p Params) ([]Value, *rel.TupleDelta, bool, error) {
	op, err := stepOp(kind, p)
	if err != nil {
		return nil, nil, false, nil
	}
	in, err := asExtended(d.In[0])
	if err != nil {
		return nil, nil, false, nil
	}
	old, err := asExtended(d.Old[0])
	if err != nil {
		return nil, nil, false, nil
	}
	out, outDelta, ok, err := rel.FusedDelta(in.Rel, old.Rel, op, d.InDelta[0])
	if err != nil || !ok {
		return nil, nil, false, nil
	}
	return []Value{rederive(in, out)}, outDelta, true, nil
}

// parsePred reads and parses a box's "pred" parameter.
func parsePred(p Params) (expr.Node, error) {
	src, err := p.Need("pred")
	if err != nil {
		return nil, err
	}
	return expr.Parse(src)
}

// applyKindDelta maintains one regular box through its kind's FireDelta.
// A nil return means fall back. Called under e.mu.
func (e *Evaluator) applyKindDelta(ctx context.Context, n *planNode, applied map[int]*deltaResult) *deltaResult {
	b := n.box
	k, err := e.g.registry.Kind(b.Kind)
	if err != nil || !k.DeltaCapable() {
		return nil
	}
	oldVals, ok := e.cache[n.id]
	if !ok {
		return nil
	}
	in := make([]Value, len(b.In))
	oldIn := make([]Value, len(b.In))
	inDelta := make([]*rel.TupleDelta, len(b.In))
	for port, edge := range n.deps {
		var curV, oldV Value
		if r := applied[edge.From]; r != nil {
			if edge.FromPort >= len(r.newVals) || edge.FromPort >= len(r.oldVals) {
				return nil
			}
			curV, oldV = r.newVals[edge.FromPort], r.oldVals[edge.FromPort]
			inDelta[port] = r.delta
		} else {
			vals, ok := e.cache[edge.From]
			if !ok || edge.FromPort >= len(vals) {
				return nil
			}
			curV, oldV = vals[edge.FromPort], vals[edge.FromPort]
		}
		if curV == nil || oldV == nil {
			return nil
		}
		if in[port], err = PromoteValue(curV, b.In[port]); err != nil {
			return nil
		}
		if oldIn[port], err = PromoteValue(oldV, b.In[port]); err != nil {
			return nil
		}
	}
	st := e.deltaState[n.id]
	d := &DeltaFire{Old: oldVals, In: in, OldIn: oldIn, InDelta: inDelta, State: &st}
	newVals, outDelta, ok, err := k.FireDelta(ctx, e.fc, b.Params, d)
	if st != nil {
		e.deltaState[n.id] = st
	} else {
		delete(e.deltaState, n.id)
	}
	if err != nil || !ok || len(newVals) != len(b.Out) {
		return nil
	}
	if outDelta == nil {
		outDelta = &rel.TupleDelta{}
	}
	return &deltaResult{delta: outDelta, oldVals: oldVals, newVals: newVals}
}
