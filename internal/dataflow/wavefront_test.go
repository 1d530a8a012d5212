package dataflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/display"
	"repro/internal/workload"
)

// buildFanout wires table -> `branches` restricts -> a union tree down to
// one root, so one demand exposes a wide wavefront level.
func buildFanout(t testing.TB, branches int) (*Graph, *Evaluator, int) {
	t.Helper()
	g, ev := newTestGraph(t)
	tb, err := g.AddBox("table", Params{"name": "Stations"})
	if err != nil {
		t.Fatal(err)
	}
	var layer []*Box
	for i := 0; i < branches; i++ {
		rb, err := g.AddBox("restrict", Params{"pred": fmt.Sprintf("id >= %d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(tb.ID, 0, rb.ID, 0); err != nil {
			t.Fatal(err)
		}
		layer = append(layer, rb)
	}
	for len(layer) > 1 {
		var next []*Box
		for i := 0; i+1 < len(layer); i += 2 {
			ub, err := g.AddBox("union", nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Connect(layer[i].ID, 0, ub.ID, 0); err != nil {
				t.Fatal(err)
			}
			if err := g.Connect(layer[i+1].ID, 0, ub.ID, 1); err != nil {
				t.Fatal(err)
			}
			next = append(next, ub)
		}
		if len(layer)%2 == 1 {
			next = append(next, layer[len(layer)-1])
		}
		layer = next
	}
	return g, ev, layer[0].ID
}

// fingerprintR flattens an R value for equality checks across schedulers.
func fingerprintR(t testing.TB, v Value) string {
	t.Helper()
	e, ok := v.(*display.Extended)
	if !ok {
		t.Fatalf("value is %T, want *display.Extended", v)
	}
	out := fmt.Sprintf("%s/%d:", e.Label, e.Rel.Len())
	for i := 0; i < e.Rel.Len(); i++ {
		out += fmt.Sprintf("%v;", e.Rel.Tuple(i))
	}
	return out
}

func TestParallelEvalMatchesSerial(t *testing.T) {
	_, ev, root := buildFanout(t, 8)
	ctx := context.Background()

	serial, err := ev.Eval(ctx, Request{Box: root}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	serialFP := fingerprintR(t, serial.Value)
	serialFires := serial.Fires

	ev.InvalidateAll()
	par, err := ev.Eval(ctx, Request{Box: root}, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintR(t, par.Value); got != serialFP {
		t.Errorf("parallel output differs from serial:\n  serial   %s\n  parallel %s", serialFP, got)
	}
	// Same subgraph, same staleness: identical work.
	if par.Fires != serialFires {
		t.Errorf("parallel fired %d boxes, serial fired %d", par.Fires, serialFires)
	}
	if par.Waves < 3 {
		t.Errorf("fanout partitioned into %d waves, want >= 3 (table, restricts, unions)", par.Waves)
	}
}

func TestEvalResultProfile(t *testing.T) {
	_, ev, boxes := buildPipeline(t)
	ctx := context.Background()
	res, err := ev.Eval(ctx, Request{Box: boxes["project"].ID}, WithLabel("cold"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires != 3 || res.CacheHits != 0 {
		t.Errorf("cold demand: fires=%d hits=%d, want 3/0 (table, restrict, project)", res.Fires, res.CacheHits)
	}
	if res.Waves != 3 {
		t.Errorf("cold demand saw %d waves, want 3", res.Waves)
	}
	if res.Label != "cold" {
		t.Errorf("label %q not carried into result", res.Label)
	}
	res, err = ev.Eval(ctx, Request{Box: boxes["project"].ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fires != 0 || res.CacheHits == 0 {
		t.Errorf("warm re-demand: fires=%d hits=%d, want 0 fires and some hits", res.Fires, res.CacheHits)
	}
}

// TestInvalidatePropagatesDownstream is the regression test for the
// invalidation bug: Invalidate used to delete only the target's memo
// entry, and because an external table swap moves no graph version, the
// downstream stamps still looked fresh and served stale values.
func TestInvalidatePropagatesDownstream(t *testing.T) {
	src := testSource() // Stations has 40 rows
	g := NewGraph(NewRegistry())
	ev := NewEvaluator(g, src)
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	rb, _ := g.AddBox("restrict", Params{"pred": "true"})
	pb, _ := g.AddBox("project", Params{"attrs": "id,name"})
	if err := g.Connect(tb.ID, 0, rb.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(rb.ID, 0, pb.ID, 0); err != nil {
		t.Fatal(err)
	}

	res, err := ev.Eval(context.Background(), Request{Box: pb.ID})
	if err != nil {
		t.Fatal(err)
	}
	if n := extLen(t, res.Value); n != 40 {
		t.Fatalf("initial demand saw %d rows, want 40", n)
	}

	// External change: the base table is replaced behind the evaluator's
	// back. No graph edit happened, so no version moved.
	src["Stations"] = workload.Stations(10, 1)
	ev.Invalidate(tb.ID)

	res, err = ev.Eval(context.Background(), Request{Box: pb.ID})
	if err != nil {
		t.Fatal(err)
	}
	if n := extLen(t, res.Value); n != 10 {
		t.Fatalf("post-invalidate demand saw %d rows, want 10 (stale downstream memo)", n)
	}
}

// gateKind registers a blockable R -> R identity box on the registry:
// each firing signals fired, then blocks until release is closed.
func gateKind(reg *Registry, fired chan<- struct{}, release <-chan struct{}, count *atomic.Int32) {
	reg.MustRegister(&Kind{
		Name:          "gate",
		Doc:           "test-only: identity on R, blocking until released",
		ExampleParams: Params{},
		Ports: func(p Params) (in, out []PortType, err error) {
			return []PortType{RType}, []PortType{RType}, nil
		},
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			count.Add(1)
			fired <- struct{}{}
			<-release
			return []Value{in[0]}, nil
		},
	})
}

func TestEvalCancellationBetweenFirings(t *testing.T) {
	reg := NewRegistry()
	fired := make(chan struct{}, 4)
	release := make(chan struct{})
	var count atomic.Int32
	gateKind(reg, fired, release, &count)

	g := NewGraph(reg)
	ev := NewEvaluator(g, testSource())
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	gb, _ := g.AddBox("gate", nil)
	rb, _ := g.AddBox("restrict", Params{"pred": "true"})
	if err := g.Connect(tb.ID, 0, gb.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(gb.ID, 0, rb.ID, 0); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var res Result
	errc := make(chan error, 1)
	go func() {
		var err error
		res, err = ev.Eval(ctx, Request{Box: rb.ID}, WithWorkers(2))
		errc <- err
	}()
	<-fired // the gate is mid-firing
	cancel()
	close(release) // the in-progress firing completes...
	err := <-errc
	// ...but the restrict level never starts.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled eval returned %v, want context.Canceled", err)
	}
	if res.Fires > 2 {
		t.Errorf("fired %d boxes after cancellation, want <= 2 (table, gate)", res.Fires)
	}

	// The completed firings stayed in the memo: a fresh request finishes
	// without refiring the gate.
	if _, err := ev.Eval(context.Background(), Request{Box: rb.ID}); err != nil {
		t.Fatal(err)
	}
	if got := count.Load(); got != 1 {
		t.Errorf("gate fired %d times, want 1", got)
	}
}

func TestConcurrentEvalsCoalesce(t *testing.T) {
	reg := NewRegistry()
	fired := make(chan struct{}, 4)
	release := make(chan struct{})
	var count atomic.Int32
	gateKind(reg, fired, release, &count)

	g := NewGraph(reg)
	ev := NewEvaluator(g, testSource())
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	gb, _ := g.AddBox("gate", nil)
	rb, _ := g.AddBox("restrict", Params{"pred": "true"})
	if err := g.Connect(tb.ID, 0, gb.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(gb.ID, 0, rb.ID, 0); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 2)
	go func() {
		res, err := ev.Eval(ctx, Request{Box: rb.ID}, WithLabel("first"))
		done <- outcome{res, err}
	}()
	<-fired // request 1 holds the gate's in-flight latch
	go func() {
		res, err := ev.Eval(ctx, Request{Box: rb.ID}, WithLabel("second"))
		done <- outcome{res, err}
	}()
	// Give request 2 time to reach the latch, then let the firing finish.
	time.Sleep(50 * time.Millisecond)
	close(release)
	coalesced := 0
	for i := 0; i < 2; i++ {
		o := <-done
		if o.err != nil {
			t.Fatal(o.err)
		}
		coalesced += o.res.Coalesced
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("gate fired %d times under concurrent demand, want 1 (singleflight)", got)
	}
	if coalesced == 0 {
		t.Error("no demand was coalesced onto the in-flight firing")
	}
}

// TestEvalStress hammers one evaluator from many goroutines: overlapping
// subgraphs, a worker-pool mix, mid-flight cancellations, and concurrent
// invalidation. Run with -race; correctness is "no unexpected error and
// the final values match a serial baseline".
func TestEvalStress(t *testing.T) {
	g, ev, _ := buildFanout(t, 8)
	var targets []int
	for _, b := range g.Boxes() {
		if b.Kind == "restrict" || b.Kind == "union" {
			targets = append(targets, b.ID)
		}
	}
	baseline := map[int]string{}
	for _, id := range targets {
		res, err := ev.Eval(context.Background(), Request{Box: id})
		if err != nil {
			t.Fatal(err)
		}
		baseline[id] = fingerprintR(t, res.Value)
	}

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := targets[(w*iters+i)%len(targets)]
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch i % 5 {
				case 3: // mid-flight cancellation
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%3)*100*time.Microsecond)
				case 4: // cache churn under concurrent readers
					ev.Invalidate(id)
				}
				res, err := ev.Eval(ctx, Request{Box: id}, WithWorkers(1+w%4))
				cancel()
				if err != nil {
					if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
						continue
					}
					errs <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
				if got := fingerprintR(t, res.Value); got != baseline[id] {
					errs <- fmt.Errorf("worker %d iter %d: box %d diverged from baseline", w, i, id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The evaluator is still coherent after the storm.
	ev.InvalidateAll()
	for _, id := range targets {
		res, err := ev.Eval(context.Background(), Request{Box: id})
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintR(t, res.Value); got != baseline[id] {
			t.Errorf("box %d diverged after stress", id)
		}
	}
}

func TestEvalErrorUnwrapping(t *testing.T) {
	g, ev := newTestGraph(t)
	rb, _ := g.AddBox("restrict", Params{"pred": "true"})
	ctx := context.Background()

	// Dangling input surfaces ErrUnconnected with the failing box.
	_, err := ev.Eval(ctx, Request{Box: rb.ID})
	if !errors.Is(err, ErrUnconnected) {
		t.Fatalf("dangling input returned %v, want ErrUnconnected", err)
	}
	var de *Error
	if !errors.As(err, &de) {
		t.Fatalf("error %T does not unwrap to *dataflow.Error", err)
	}
	if de.Box != rb.ID || de.Port != 0 {
		t.Errorf("error located box %d port %d, want box %d port 0", de.Box, de.Port, rb.ID)
	}

	// Nonexistent port surfaces ErrNoSuchPort.
	tb, _ := g.AddBox("table", Params{"name": "Stations"})
	if _, err := ev.Eval(ctx, Request{Box: tb.ID, Port: 7}); !errors.Is(err, ErrNoSuchPort) {
		t.Errorf("bad port returned %v, want ErrNoSuchPort", err)
	}

	// A firing failure names the box kind and wraps the cause.
	bad, _ := g.AddBox("restrict", Params{"pred": "froboz > 1"})
	if err := g.Connect(tb.ID, 0, bad.ID, 0); err != nil {
		t.Fatal(err)
	}
	_, err = ev.Eval(ctx, Request{Box: bad.ID})
	if err == nil {
		t.Fatal("restrict over a missing attribute succeeded")
	}
	de = nil
	if !errors.As(err, &de) {
		t.Fatalf("fire error %T does not unwrap to *dataflow.Error", err)
	}
	if de.Box != bad.ID || de.Kind != "restrict" || de.Op != "fire" {
		t.Errorf("fire error = box %d kind %q op %q, want box %d / restrict / fire", de.Box, de.Kind, de.Op, bad.ID)
	}

	// Cycles surface ErrCycle (corrupt-load path, wired directly).
	a, _ := g.AddBox("restrict", Params{"pred": "true"})
	b, _ := g.AddBox("restrict", Params{"pred": "true"})
	g.edges[a.ID] = map[int]Edge{0: {From: b.ID, FromPort: 0, To: a.ID, ToPort: 0}}
	g.edges[b.ID] = map[int]Edge{0: {From: a.ID, FromPort: 0, To: b.ID, ToPort: 0}}
	if _, err := ev.Eval(ctx, Request{Box: a.ID}); !errors.Is(err, ErrCycle) {
		t.Errorf("cycle returned %v, want ErrCycle", err)
	}
}
