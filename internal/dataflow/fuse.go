package dataflow

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/rel"
)

// Plan-time fusion: after a request is planned (and after pre-flight has
// already reported every TV001–TV009 diagnostic — fusion can never mask
// them), maximal chains of adjacent restrict/project boxes on R-typed
// edges are collapsed into the chain tail's firing, which executes them
// as one rel.FusedScan over the source relation: one pass, no
// intermediate relations, provenance and display metadata preserved.
//
// Only interior boxes that are invisible to the rest of the request may
// be inlined: each must have exactly one consumer in the whole graph and
// must not be the demanded target, so no other box or request will miss
// its memo entry. An interior demanded directly by a later request simply
// fires on its own then. Invalidation is untouched — a fused tail's
// staleness stamp already covers the interiors (they are on its input
// walk), and Invalidate sweeps dependents over the real edge set.

// fusedOp reads a restrict or project box's parameters into the
// rel.FusedOp it runs as, whether it fires alone, inside a fused chain,
// or incrementally.
func fusedOp(kind string, p Params) (rel.FusedOp, error) {
	switch kind {
	case "restrict":
		src, err := p.Need("pred")
		if err != nil {
			return rel.FusedOp{}, err
		}
		pred, err := expr.Parse(src)
		if err != nil {
			return rel.FusedOp{}, err
		}
		return rel.FusedOp{Pred: pred}, nil
	case "project":
		attrs := p.List("attrs")
		if len(attrs) == 0 {
			return rel.FusedOp{}, fmt.Errorf("project needs attrs=")
		}
		return rel.FusedOp{Project: attrs}, nil
	}
	return rel.FusedOp{}, fmt.Errorf("box kind %q does not fuse", kind)
}

// fusedStep is one box of a fused chain, head to tail.
type fusedStep struct {
	id  int
	box *Box
}

// fusedChain is a run of boxes collapsed into its tail's firing. src is
// the edge feeding the head.
type fusedChain struct {
	src   Edge
	steps []fusedStep
}

// fusible reports whether a box kind participates in chain fusion.
func fusible(b *Box) bool { return b.Kind == "restrict" || b.Kind == "project" }

// fuseChains rewrites the plan in place: it records, per chain tail, the
// steps to execute as one fused scan, and marks the interiors so the
// wavefront skips them.
func (e *Evaluator) fuseChains(p *plan, target int) {
	// Consumer counts over the full graph, not just the plan: an interior
	// with an off-plan consumer must keep producing a memo entry.
	consumers := make(map[int]int)
	for _, edge := range e.g.Edges() {
		consumers[edge.From]++
	}
	// absorbed reports whether n can be inlined into its downstream
	// consumer: a fusible single-consumer box, not the demanded target,
	// whose one consumer is a fusible box in this plan.
	absorbed := func(n *planNode) bool {
		if !fusible(n.box) || n.id == target || consumers[n.id] != 1 || len(n.deps) != 1 {
			return false
		}
		outs := e.g.OutputEdges(n.id)
		if len(outs) != 1 {
			return false
		}
		down := p.nodes[outs[0].To]
		return down != nil && fusible(down.box)
	}

	for _, n := range p.nodes {
		if !fusible(n.box) || absorbed(n) || len(n.deps) != 1 {
			continue // not a chain tail
		}
		// Walk upstream over absorbed producers to the chain head.
		head := n
		for {
			up := p.nodes[head.deps[0].From]
			if up == nil || !absorbed(up) {
				break
			}
			head = up
		}
		if head == n {
			continue // nothing to fuse into this tail
		}
		var steps []fusedStep
		for cur := head; ; cur = p.nodes[e.g.OutputEdges(cur.id)[0].To] {
			steps = append(steps, fusedStep{id: cur.id, box: cur.box})
			if cur == n {
				break
			}
		}
		if p.fused == nil {
			p.fused = make(map[int]*fusedChain)
			p.inlined = make(map[int]bool)
		}
		p.fused[n.id] = &fusedChain{src: head.deps[0], steps: steps}
		for _, s := range steps[:len(steps)-1] {
			p.inlined[s.id] = true
		}
	}
}

// fireFused executes a fused chain as one rel.FusedScan, reading each
// step's parameters at fire time exactly like individual firings would,
// and replaying display-metadata derivation (rederive) step by step so
// the resulting Extended matches the unfused chain's.
func (e *Evaluator) fireFused(ctx context.Context, p *plan, n *planNode, ch *fusedChain, o EvalOptions, rs *runStats) ([]Value, int64, error) {
	stamp := n.stamp
	var upVals []Value
	var upStamp int64
	if pn := p.nodes[ch.src.From]; pn != nil {
		upVals, upStamp = e.cached(pn.id, pn.stamp)
	}
	if upVals == nil {
		var err error
		upVals, upStamp, err = e.resolveProducer(ctx, p, ch.src.From, o, rs)
		if err != nil {
			return nil, 0, err
		}
	}
	if upStamp > stamp {
		stamp = upStamp
	}
	headID := ch.steps[0].id
	headBox := ch.steps[0].box
	if ch.src.FromPort >= len(upVals) || upVals[ch.src.FromPort] == nil {
		return nil, 0, evalPortErr("fire", ch.src.From, ch.src.FromPort, "",
			fmt.Errorf("%w (demanded by box %d)", ErrNoData, headID))
	}
	pv, err := PromoteValue(upVals[ch.src.FromPort], headBox.In[ch.src.ToPort])
	if err != nil {
		return nil, 0, evalPortErr("promote", headID, ch.src.ToPort, headBox.Kind, err)
	}
	ein, err := asExtended(pv)
	if err != nil {
		return nil, 0, evalErr("fire", headID, headBox.Kind, err)
	}

	// Build the pipeline from current parameters; a bad parameter is
	// blamed on its own box, like an individual firing.
	ops := make([]rel.FusedOp, len(ch.steps))
	for i, s := range ch.steps {
		op, err := fusedOp(s.box.Kind, s.box.Params)
		if err != nil {
			return nil, 0, evalErr("fire", s.id, s.box.Kind, err)
		}
		ops[i] = op
	}

	fctx := ctx
	var sp *obs.Span
	if obs.Recording() {
		fctx, sp = obs.StartSpanCtx(ctx, obs.SpanEvalFire,
			"box", strconv.Itoa(n.id), "kind", obs.FusedKindPrefix+strconv.Itoa(len(ch.steps)))
	}
	t := obs.StartTimer(obs.EvalFireNS)
	res, err := rel.FusedScanCtx(fctx, ein.Rel, ops, o.Workers)
	t.Stop()
	sp.End()
	if err != nil {
		boxID, kind := n.id, n.box.Kind
		cause := err
		var se *rel.FusedStepError
		if errors.As(err, &se) {
			boxID, kind = ch.steps[se.Step].id, ch.steps[se.Step].box.Kind
			cause = se.Err
		}
		werr := evalErr("fire", boxID, kind, cause)
		obs.RecordError(obs.EvalErrors, werr)
		return nil, 0, werr
	}

	// Thread display metadata through the chain: rederive over each
	// step's result shape, ending on the real output relation.
	cur := ein
	for i := range ch.steps {
		cur = rederive(cur, res.Shapes[i])
	}
	return []Value{cur}, stamp, nil
}
