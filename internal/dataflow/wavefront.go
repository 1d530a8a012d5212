package dataflow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// This file is the demand-driven wavefront scheduler behind
// Evaluator.Eval. A request plans the demanded subgraph once —
// topological levels plus staleness stamps, both derivable from the
// graph alone — then executes level by level: every box in a level
// depends only on earlier levels, so a level's stale boxes can fire
// concurrently on a bounded worker pool. The memo cache stays correct
// under concurrency through per-box in-flight latches: a request that
// needs a box another request is already firing waits for that firing
// (counted as eval.coalesced) instead of firing a duplicate.

// planNode is one box of the demanded subgraph.
type planNode struct {
	id    int
	box   *Box
	level int   // 1 + max level of input producers; sources are level 0
	stamp int64 // max version along the node's transitive inputs (incl. itself)
	deps  []Edge
}

// plan is the demanded subgraph partitioned into dependency levels.
type plan struct {
	nodes  map[int]*planNode
	levels [][]*planNode
}

// buildPlan walks upstream from target, detecting cycles and dangling
// inputs, and partitions the subgraph into levels. Stamps fall out of the
// same walk: a box's staleness stamp is the max version over its
// transitive input closure, comparable across boxes because the graph's
// mutation clock is global.
func (e *Evaluator) buildPlan(target int) (*plan, error) {
	p := &plan{nodes: make(map[int]*planNode)}
	active := make(map[int]bool)
	var visit func(id int) (*planNode, error)
	visit = func(id int) (*planNode, error) {
		if n, ok := p.nodes[id]; ok {
			return n, nil
		}
		if active[id] {
			return nil, evalErr("plan", id, "", ErrCycle)
		}
		active[id] = true
		defer delete(active, id)

		b, err := e.g.Box(id)
		if err != nil {
			return nil, err
		}
		n := &planNode{id: id, box: b, stamp: e.g.Version(id)}
		for port := range b.In {
			edge, ok := e.g.InputEdge(id, port)
			if !ok {
				return nil, evalPortErr("plan", id, port, b.Kind, ErrUnconnected)
			}
			up, err := visit(edge.From)
			if err != nil {
				return nil, err
			}
			if up.stamp > n.stamp {
				n.stamp = up.stamp
			}
			if up.level+1 > n.level {
				n.level = up.level + 1
			}
			n.deps = append(n.deps, edge)
		}
		p.nodes[id] = n
		for len(p.levels) <= n.level {
			p.levels = append(p.levels, nil)
		}
		p.levels[n.level] = append(p.levels[n.level], n)
		return n, nil
	}
	if _, err := visit(target); err != nil {
		return nil, err
	}
	return p, nil
}

// evalTarget plans and executes the subgraph demanded by box target,
// returning all of the target's outputs plus the request's work profile.
func (e *Evaluator) evalTarget(ctx context.Context, target int, o EvalOptions) ([]Value, Result, error) {
	var res Result
	p, err := e.buildPlan(target)
	if err != nil {
		return nil, res, err
	}
	e.applyDeltas(ctx, p)
	res.Waves = len(p.levels)
	obs.Add(obs.EvalWaves, int64(len(p.levels)))

	rs := &runStats{}
	for w, level := range p.levels {
		if err := ctx.Err(); err != nil {
			obs.Inc(obs.EvalCancels)
			rs.fill(&res)
			return nil, res, err
		}
		wctx := ctx
		var sp *obs.Span
		if obs.Recording() {
			wctx, sp = obs.StartSpanCtx(ctx, obs.SpanEvalWave,
				"wave", strconv.Itoa(w), "boxes", strconv.Itoa(len(level)))
		}
		err := e.runLevel(wctx, p, level, o, rs)
		sp.End()
		if err != nil {
			rs.fill(&res)
			return nil, res, err
		}
	}
	rs.fill(&res)

	n := p.nodes[target]
	e.mu.Lock()
	vals := e.cache[target]
	e.mu.Unlock()
	if vals == nil {
		// The target resolved but its entry vanished (an Invalidate racing
		// this request); resolve it once more directly.
		var err error
		if vals, _, err = e.resolve(ctx, p, n, o, rs); err != nil {
			rs.fill(&res)
			return nil, res, err
		}
	}
	return vals, res, nil
}

// runStats accumulates one request's work profile; its own lock keeps
// workers from contending on the evaluator lock just to count.
type runStats struct {
	mu                          sync.Mutex
	fires, cacheHits, coalesced int
}

func (rs *runStats) fill(res *Result) {
	rs.mu.Lock()
	res.Fires, res.CacheHits, res.Coalesced = rs.fires, rs.cacheHits, rs.coalesced
	rs.mu.Unlock()
}

// runLevel resolves every node of one wavefront level, concurrently when
// the level is wide and the request allows it.
func (e *Evaluator) runLevel(ctx context.Context, p *plan, level []*planNode, o EvalOptions, rs *runStats) error {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(level) {
		workers = len(level)
	}
	if workers <= 1 || len(level) == 1 {
		for _, n := range level {
			if err := ctx.Err(); err != nil {
				obs.Inc(obs.EvalCancels)
				return err
			}
			if _, _, err := e.resolve(ctx, p, n, o, rs); err != nil {
				return err
			}
		}
		return nil
	}

	// Bounded fan-out: workers pull node indexes from a shared channel;
	// the first error cancels the remaining pulls.
	idx := make(chan int)
	errc := make(chan error, workers)
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	recording := obs.Recording()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx := lctx
			if recording {
				// Track 1 is the request; workers get tracks 2+w. The
				// worker span inherits the wave's trace through lctx, and
				// every fire this worker resolves parents under it.
				var sp *obs.Span
				wctx, sp = obs.StartSpanCtxOn(lctx, int64(2+w), obs.SpanEvalWorker, "worker", strconv.Itoa(w))
				defer sp.End()
			}
			for i := range idx {
				if wctx.Err() != nil {
					continue // drain; an error or cancellation already won
				}
				if _, _, err := e.resolve(wctx, p, level[i], o, rs); err != nil {
					errc <- err
					cancel()
				}
			}
		}(w)
	}
	for i := range level {
		idx <- i
	}
	close(idx)
	wg.Wait()
	close(errc)
	// Prefer a real failure over a secondary cancellation another worker
	// observed after the first error already tore the level down.
	var first error
	for err := range errc {
		if first == nil || (errors.Is(first, context.Canceled) && !errors.Is(err, context.Canceled)) {
			first = err
		}
	}
	if first != nil {
		return first
	}
	if err := ctx.Err(); err != nil {
		obs.Inc(obs.EvalCancels)
		return err
	}
	return nil
}

// resolve produces box n's outputs: from the memo table when fresh, by
// joining another request's in-flight firing, or by firing the box. It
// returns the outputs and the stamp they were computed at.
func (e *Evaluator) resolve(ctx context.Context, p *plan, n *planNode, o EvalOptions, rs *runStats) ([]Value, int64, error) {
	for {
		e.mu.Lock()
		if vals, ok := e.cache[n.id]; ok && e.stamps[n.id] >= n.stamp {
			stamp := e.stamps[n.id]
			e.mu.Unlock()
			rs.mu.Lock()
			rs.cacheHits++
			rs.mu.Unlock()
			obs.Inc(obs.EvalCacheHits)
			return vals, stamp, nil
		}
		if fl, ok := e.flight[n.id]; ok {
			// Another request is already firing this box: wait for it.
			e.mu.Unlock()
			select {
			case <-ctx.Done():
				obs.Inc(obs.EvalCancels)
				return nil, 0, ctx.Err()
			case <-fl.done:
			}
			if fl.err != nil {
				return nil, 0, fl.err
			}
			if fl.stamp >= n.stamp {
				rs.mu.Lock()
				rs.coalesced++
				rs.mu.Unlock()
				obs.Inc(obs.EvalCoalesced)
				return fl.vals, fl.stamp, nil
			}
			continue // the flight computed an older stamp; retry
		}
		// This request fires the box: register the latch and release the
		// lock for the (possibly long) firing.
		fl := &flight{done: make(chan struct{})}
		e.flight[n.id] = fl
		startClock := e.deltaClock
		e.mu.Unlock()
		obs.Inc(obs.EvalCacheMiss)

		vals, stamp, err := e.fire(ctx, p, n, o, rs)

		e.mu.Lock()
		if err == nil {
			// A delta pass that patched (or dropped) this box mid-firing
			// has already advanced the memo past what this firing read;
			// storing the pre-delta result would regress it forever, since
			// stamps never move. Serve the firing's value to this request
			// but leave the memo alone.
			if e.deltaTouched[n.id] <= startClock {
				e.cache[n.id] = vals
				e.stamps[n.id] = stamp
				delete(e.deltaState, n.id)
				if n.box.Kind == "table" {
					// A fresh table firing read the current source; any
					// queued deltas lead up to (at most) that state.
					delete(e.pending, n.id)
				}
			}
		}
		delete(e.flight, n.id)
		e.mu.Unlock()
		fl.vals, fl.stamp, fl.err = vals, stamp, err
		close(fl.done)
		if err != nil {
			return nil, 0, err
		}
		obs.Inc(obs.EvalFires)
		rs.mu.Lock()
		rs.fires++
		rs.mu.Unlock()
		return vals, stamp, nil
	}
}

// fire gathers a box's promoted inputs and executes its kind. Inputs come
// from the memo table; a missing producer entry (an Invalidate racing the
// request, or resolve called outside a wavefront) recurses upstream.
func (e *Evaluator) fire(ctx context.Context, p *plan, n *planNode, o EvalOptions, rs *runStats) ([]Value, int64, error) {
	b := n.box
	stamp := n.stamp
	inVals := make([]Value, len(b.In))
	for port, edge := range n.deps {
		// The wavefront resolved producers in earlier levels, so the memo
		// read is the common case; it is not a demand, so it does not count
		// as a cache hit. The resolve fallback covers an Invalidate racing
		// this request and resolve calls outside a wavefront.
		var upVals []Value
		var upStamp int64
		if pn := p.nodes[edge.From]; pn != nil {
			upVals, upStamp = e.cached(pn.id, pn.stamp)
		}
		if upVals == nil {
			var err error
			upVals, upStamp, err = e.resolveProducer(ctx, p, edge.From, o, rs)
			if err != nil {
				return nil, 0, err
			}
		}
		if upStamp > stamp {
			stamp = upStamp
		}
		if edge.FromPort >= len(upVals) || upVals[edge.FromPort] == nil {
			return nil, 0, evalPortErr("fire", edge.From, edge.FromPort, "", fmt.Errorf("%w (demanded by box %d)", ErrNoData, n.id))
		}
		pv, err := PromoteValue(upVals[edge.FromPort], b.In[port])
		if err != nil {
			return nil, 0, evalPortErr("promote", n.id, port, b.Kind, err)
		}
		inVals[port] = pv
	}

	k, err := e.g.registry.Kind(b.Kind)
	if err != nil {
		return nil, 0, err
	}
	var sp *obs.Span
	if obs.Recording() {
		_, sp = obs.StartSpanCtx(ctx, obs.SpanEvalFire, "box", strconv.Itoa(n.id), "kind", b.Kind)
	}
	t := obs.StartTimer(obs.EvalFireNS)
	out, err := k.Fire(e.fc, b.Params, inVals)
	t.Stop()
	sp.End()
	if err != nil {
		werr := evalErr("fire", n.id, b.Kind, err)
		obs.RecordError(obs.EvalErrors, werr)
		return nil, 0, werr
	}
	if len(out) != len(b.Out) {
		return nil, 0, evalErr("fire", n.id, b.Kind,
			fmt.Errorf("fired %d outputs, declared %d", len(out), len(b.Out)))
	}
	return out, stamp, nil
}

// cached returns the memo entry for id when it is at least as fresh as
// stamp, without touching any counters.
func (e *Evaluator) cached(id int, stamp int64) ([]Value, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	vals, ok := e.cache[id]
	if !ok || e.stamps[id] < stamp {
		return nil, 0
	}
	return vals, e.stamps[id]
}

// resolveProducer returns a producer's outputs during input gathering:
// straight from the memo when fresh (the common case — the wavefront
// resolved it in an earlier level), otherwise by resolving it, reusing
// the plan's node when available or planning the producer on the fly.
func (e *Evaluator) resolveProducer(ctx context.Context, p *plan, id int, o EvalOptions, rs *runStats) ([]Value, int64, error) {
	var n *planNode
	if p != nil {
		n = p.nodes[id]
	}
	if n == nil {
		sub, err := e.buildPlan(id)
		if err != nil {
			return nil, 0, err
		}
		n = sub.nodes[id]
		p = sub
	}
	return e.resolve(ctx, p, n, o, rs)
}

// itoa is strconv.Itoa, aliased to keep trace call sites compact.
func itoa(i int) string { return strconv.Itoa(i) }
