package dataflow

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestEvalResultMatchesObsCounters checks that the per-request Result
// and the process-wide obs counters tell the same story: fires, cache
// hits, and cache misses advance in lockstep.
func TestEvalResultMatchesObsCounters(t *testing.T) {
	obs.Reset()
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.Reset()
	}()

	ev, ids := chainGraph(t, 4)
	before := obs.TakeSnapshot()

	req := Request{Box: ids[len(ids)-1]}
	first, err := ev.Eval(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// A clean re-demand is answered from the memo table.
	second, err := ev.Eval(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	delta := obs.CounterDelta(before, obs.TakeSnapshot())

	fires := int64(first.Fires + second.Fires)
	if delta[obs.EvalFires] != fires {
		t.Fatalf("obs fires %d != Result fires %d", delta[obs.EvalFires], fires)
	}
	if hits := int64(first.CacheHits + second.CacheHits); delta[obs.EvalCacheHits] != hits {
		t.Fatalf("obs cache hits %d != Result cache hits %d", delta[obs.EvalCacheHits], hits)
	}
	// Sequential requests neither fail nor coalesce, so every miss fired.
	if delta[obs.EvalCacheMiss] != fires {
		t.Fatalf("obs cache miss %d != Result fires %d", delta[obs.EvalCacheMiss], fires)
	}
	if delta[obs.EvalDemands] != 2 {
		t.Fatalf("eval.demands = %d, want 2", delta[obs.EvalDemands])
	}
	if second.CacheHits == 0 || second.Fires != 0 {
		t.Fatalf("re-demand did not hit the memo table: %+v", second)
	}
	snap := obs.TakeSnapshot()
	if h := snap.Histograms[obs.EvalDemandNS]; h.Count != 2 {
		t.Fatalf("demand latency histogram count = %d, want 2", h.Count)
	}
	if h := snap.Histograms[obs.EvalFireNS]; h.Count != fires {
		t.Fatalf("fire latency histogram count = %d, want %d", h.Count, fires)
	}
}

// TestEvalTracingEmitsFireSpans demands a chain under an active trace
// and checks per-box firing spans carry box ids and kinds.
func TestEvalTracingEmitsFireSpans(t *testing.T) {
	obs.Reset()
	obs.SetEnabled(true)
	obs.StartTracing()
	defer func() {
		obs.StopTracing()
		obs.SetEnabled(false)
		obs.Reset()
	}()

	ev, ids := chainGraph(t, 3)
	if _, err := ev.Eval(context.Background(), Request{Box: ids[len(ids)-1]}); err != nil {
		t.Fatal(err)
	}
	obs.StopTracing()
	var sb strings.Builder
	if err := obs.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "eval.demand") {
		t.Fatalf("trace missing eval.demand span:\n%s", out)
	}
	if !strings.Contains(out, "eval.fire") || !strings.Contains(out, `"kind"`) {
		t.Fatalf("trace missing annotated eval.fire spans:\n%s", out)
	}
}

// chainGraph builds table -> n restrict boxes so demanding the sink
// fires a known chain of n+1 boxes with deterministic counts.
func chainGraph(t *testing.T, n int) (*Evaluator, []int) {
	t.Helper()
	g, ev := newTestGraph(t)
	tb, err := g.AddBox("table", Params{"name": "Stations"})
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{tb.ID}
	prev := tb.ID
	for i := 0; i < n; i++ {
		b, err := g.AddBox("restrict", Params{"pred": "true"})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(prev, 0, b.ID, 0); err != nil {
			t.Fatal(err)
		}
		prev = b.ID
		ids = append(ids, b.ID)
	}
	return ev, ids
}
