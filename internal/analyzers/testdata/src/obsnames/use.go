// Fixture for the obsnames analyzer. The import is resolved purely
// syntactically, so this file never has to compile against the real
// registry — but the constant set is read from the repo's actual
// internal/obs/names.go, so the "declared" cases below must name real
// constants.
package use

import (
	"context"
	"time"

	"repro/internal/obs"
)

func instrumented(d time.Duration) {
	obs.Inc(obs.EvalFires)         // declared: clean
	obs.Observe(obs.EvalFireNS, d) // declared: clean

	obs.Inc("eval.fires")    // want `obs\.Inc called with string literal "eval\.fires"`
	obs.Add("eval.waves", 1) // want `obs\.Add called with string literal "eval\.waves"`

	obs.Inc(obs.NoSuchCounter) // want `obs\.NoSuchCounter is not declared`

	name := "eval.fires"
	obs.Inc(name) // variables pass through: resolving them needs types
}

func instrumentedCtx(ctx context.Context) {
	cctx, sp := obs.StartSpanCtx(ctx, obs.SpanEvalDemand, "box", "1") // declared: clean
	_, sp2 := obs.StartSpanCtxOn(cctx, 2, obs.SpanEvalWorker)         // declared: clean
	sp2.End()
	sp.End()

	obs.StartSpanCtx(ctx, "eval.demand")            // want `obs\.StartSpanCtx called with string literal "eval\.demand"`
	obs.StartSpanCtxOn(ctx, 2, "eval.worker")       // want `obs\.StartSpanCtxOn called with string literal "eval\.worker"`
	obs.StartSpanCtx(ctx, obs.SpanNoSuchSpan)       // want `obs\.SpanNoSuchSpan is not declared`
	obs.StartSpanCtxOn(ctx, 3, obs.SpanNoSuchSpan2) // want `obs\.SpanNoSuchSpan2 is not declared`
}
