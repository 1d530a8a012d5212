package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. Each wraps one call from the benchmark into a public
// function of one layer; nothing inside the program is traced here.
const (
	spanClientOp   = "client.op"          // one websocket op: send to token frame read; no child spans, so it is the whole round trip
	spanEditOp     = "edit.op"            // one edit: SetParams through RenderInto (bench layer)
	spanSetParams  = "core.set_params"    // Environment.SetParams
	spanEval       = "dataflow.eval"      // Evaluator.Eval
	spanRenderInto = "viewer.render_into" // Viewer.RenderInto
	spanWritePNG   = "raster.write_png"   // raster.Image.WritePNG
	spanUpdate     = "db.update_tuple"    // Database.UpdateTuple
	spanSeed       = "db.seed"            // core.SeedDatabase
	spanSave       = "db.save_backend"    // Database.SaveBackend
	spanLoad       = "db.load_backend"    // Database.LoadBackend
)

// spanLayer maps a span to the layer its self time is charged to.
var spanLayer = map[string]string{
	spanClientOp:   "server",
	spanEditOp:     "bench",
	spanSetParams:  "core",
	spanEval:       "dataflow",
	spanRenderInto: "viewer",
	spanWritePNG:   "raster",
	spanUpdate:     "db",
	spanSeed:       "db",
	spanSave:       "db",
	spanLoad:       "db",
}

// span is one recorded interval. Spans of one op share op; parent links
// a span to the span that caused it (0 for a root); lane is the load
// goroutine that ran it, which becomes the Chrome trace tid.
type span struct {
	id, parent, op int64
	lane           int
	name           string
	start, end     time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// switched off, records nothing, so untraced runs pay one branch per
// call site.
type tracer struct {
	mu    sync.Mutex
	on    bool
	next  int64
	spans []span
}

// begin opens a span and returns its id (0 when not recording).
func (t *tracer) begin(name string, parent, op int64, lane int) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.next++
	t.spans = append(t.spans, span{id: t.next, parent: parent, op: op, lane: lane, name: name, start: time.Now()})
	return t.next
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	// Spans close in LIFO order per lane, so the open span is near the tail.
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].id == id {
			t.spans[i].end = now
			return
		}
	}
}

// setOn switches recording.
func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if !s.end.IsZero() {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of it
// covered by its child spans, over the spans that started at or after
// since.
func selfTimes(spans []span, since time.Time) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.start.Before(since) {
			continue
		}
		out[spanLayer[s.name]] += s.end.Sub(s.start) - covered(s, children[s.id])
	}
	return out
}

// covered measures the union of the children's intervals clipped to the
// parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	var total time.Duration
	reached := parent.start // end of the union counted so far
	for _, k := range kids {
		s, e := k.start, k.end
		if s.Before(reached) {
			s = reached
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if e.After(s) {
			total += e.Sub(s)
			reached = e
		}
	}
	return total
}

// chromeEvent is one complete ("ph":"X") Chrome trace event.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// writeChrome writes spans as Chrome trace JSON, timestamps in
// microseconds from the first span.
func writeChrome(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var base time.Time
	for _, s := range spans {
		if base.IsZero() || s.start.Before(base) {
			base = s.start
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: spanLayer[s.name], Ph: "X",
			TS:  float64(s.start.Sub(base).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.lane,
			Args: map[string]int64{"span": s.id, "parent": s.parent, "op": s.op},
		})
	}
	data, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
