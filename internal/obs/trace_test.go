package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// withTracing runs a test with span collection on, stopping it
// afterwards.
func withTracing(t *testing.T) {
	t.Helper()
	StartTracing()
	t.Cleanup(StopTracing)
}

// decodeTrace runs write and parses the Chrome trace it produces.
func decodeTrace(t *testing.T, write func(io.Writer) error) traceFile {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.Bytes())
	}
	return doc
}

// bySpan indexes a trace's events by their span id arg.
func bySpan(doc traceFile) map[string]traceEvent {
	out := make(map[string]traceEvent, len(doc.TraceEvents))
	for _, e := range doc.TraceEvents {
		out[e.Args["span"]] = e
	}
	return out
}

func spanKey(s *Span) string { return strconv.FormatUint(s.id, 10) }

// TestSpanNestingAndOrdering records a frame containing a cull pass and
// one parallel worker on its own track, and checks the trace keeps the
// tracks, the args, the parent links and the nesting in time.
func TestSpanNestingAndOrdering(t *testing.T) {
	withTracing(t)
	ctx, _ := EnsureTrace(context.Background(), "scene")
	fctx, frame := StartSpanCtx(ctx, "render.frame", "viewer", "v")
	_, cull := StartSpanCtx(fctx, "render.cull", "member", "0", "layer", "1")
	cull.End()
	_, worker := StartSpanCtxOn(fctx, 2, "render.display_eval.worker", "worker", "0")
	worker.End()
	frame.End()
	StopTracing()

	doc := decodeTrace(t, WriteTrace)
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	ev := bySpan(doc)
	f, c, w := ev[spanKey(frame)], ev[spanKey(cull)], ev[spanKey(worker)]
	for _, want := range []struct {
		e    traceEvent
		name string
		tid  int64
	}{
		{f, "render.frame", 1},
		{c, "render.cull", 1},
		{w, "render.display_eval.worker", 2},
	} {
		if want.e.Name != want.name || want.e.Ph != "X" || want.e.TID != want.tid {
			t.Fatalf("event %s/%s tid=%d, want %s/X tid=%d", want.e.Name, want.e.Ph, want.e.TID, want.name, want.tid)
		}
	}
	if f.Args["parent"] != "" || c.Args["parent"] != spanKey(frame) || w.Args["parent"] != spanKey(frame) {
		t.Fatalf("parent links lost: frame %v cull %v worker %v", f.Args, c.Args, w.Args)
	}
	// Nesting: each child starts after and ends before its parent.
	const eps = 1e-3 // µs of float rounding
	for _, child := range []traceEvent{c, w} {
		if child.TS < f.TS || child.TS+child.Dur > f.TS+f.Dur+eps {
			t.Fatalf("%s [%v,+%v] not nested inside frame [%v,+%v]", child.Name, child.TS, child.Dur, f.TS, f.Dur)
		}
	}
	if w.TS < c.TS+c.Dur-eps {
		t.Fatal("worker span starts before the cull span ended")
	}
	if f.Args["viewer"] != "v" || c.Args["layer"] != "1" || w.Args["worker"] != "0" {
		t.Fatalf("span args lost: %v %v %v", f.Args, c.Args, w.Args)
	}
}

// goldenScene is a fixed nested-span scene: a frame containing a cull
// pass and one parallel worker on its own track.
func goldenScene() []SpanEvent {
	const base = 1_000_000_000_000
	return []SpanEvent{
		{TraceID: 7, SpanID: 2, ParentID: 1, Name: "render.cull", Label: "render", Track: 1,
			StartNS: base + 100_000, DurNS: 100_000, Args: []string{"member", "0", "layer", "1", "rows_out", "12"}},
		{TraceID: 7, SpanID: 3, ParentID: 1, Name: "render.display_eval.worker", Label: "render", Track: 2,
			StartNS: base + 300_000, DurNS: 100_000, Args: []string{"worker", "0"}},
		{TraceID: 7, SpanID: 1, Name: "render.frame", Label: "render", Track: 1,
			StartNS: base, DurNS: 500_000, Args: []string{"viewer", "v"}},
	}
}

func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFlightChrome(&buf, goldenScene()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace JSON drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestInactiveTracerSpansAreInert: with nothing recording a span is
// nil and inert, and spans ended outside StartTracing never reach the
// trace.
func TestInactiveTracerSpansAreInert(t *testing.T) {
	prev := SetFlightEnabled(false)
	defer SetFlightEnabled(prev)
	if Tracing() {
		t.Fatal("tracing unexpectedly active")
	}
	if _, sp := StartSpanCtx(context.Background(), "nope"); sp != nil {
		t.Fatal("StartSpanCtx returned a live span while nothing records")
	}

	withTracing(t)
	StopTracing()
	SetFlightEnabled(true)
	_, sp := StartSpanCtx(context.Background(), "after.stop")
	sp.End()
	if doc := decodeTrace(t, WriteTrace); len(doc.TraceEvents) != 0 {
		t.Fatalf("stopped tracing collected %d events", len(doc.TraceEvents))
	}
}

// TestDefaultTracerRoundTrip: a span collected under StartTracing comes
// back from WriteTrace as one complete event with its args.
func TestDefaultTracerRoundTrip(t *testing.T) {
	withTracing(t)
	_, sp := StartSpanCtx(context.Background(), "eval.fire", "box", "3", "kind", "restrict")
	sp.End()
	StopTracing()
	doc := decodeTrace(t, WriteTrace)
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("got %d events, want 1", len(doc.TraceEvents))
	}
	if e := doc.TraceEvents[0]; e.Ph != "X" || e.Args["kind"] != "restrict" || e.Args["box"] != "3" {
		t.Fatalf("bad trace event: %+v", e)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
}

// TestTraceMatchesFlight: a span's end-time annotations reach the trace
// file, and its event there is the flight recorder's event for it.
func TestTraceMatchesFlight(t *testing.T) {
	withFlight(t)
	withTracing(t)
	ctx, _ := EnsureTrace(context.Background(), "scan")
	pctx, parent := StartSpanCtx(ctx, "rel.fused_scan", "steps", "2")
	_, sp := StartSpanCtxOn(pctx, 3, "rel.compile.pass")
	sp.Annotate("rows_out", "7")
	sp.End()
	parent.End()
	StopTracing()

	got := bySpan(decodeTrace(t, WriteTrace))[spanKey(sp)]
	want := bySpan(decodeTrace(t, func(w io.Writer) error { return WriteFlightChrome(w, DumpFlight()) }))[spanKey(sp)]
	if got.Args["rows_out"] != "7" {
		t.Fatalf("trace event lost the annotation: %+v", got)
	}
	// Each dump rebases time to its own oldest event; all else matches.
	got.TS, want.TS = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace event %+v\nflight event %+v", got, want)
	}
}
