package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// tracing collects, while StartTracing is active, every SpanEvent a
// Span ends into: the same record the flight ring keeps, but unbounded,
// so a -trace file holds a whole run rather than the ring's last window.
var tracing struct {
	active atomic.Bool
	mu     sync.Mutex
	events []SpanEvent
}

// StartTracing drops any previously collected spans and begins
// collecting.
func StartTracing() {
	tracing.mu.Lock()
	tracing.events = nil
	tracing.mu.Unlock()
	tracing.active.Store(true)
}

// StopTracing stops collecting; the collected spans stay available to
// WriteTrace.
func StopTracing() { tracing.active.Store(false) }

// Tracing reports whether spans are being collected.
func Tracing() bool { return tracing.active.Load() }

// collect keeps ev when tracing is active.
func collect(ev *SpanEvent) {
	if !tracing.active.Load() {
		return
	}
	tracing.mu.Lock()
	tracing.events = append(tracing.events, *ev)
	tracing.mu.Unlock()
}

// traced returns a copy of the collected spans.
func traced() []SpanEvent {
	tracing.mu.Lock()
	defer tracing.mu.Unlock()
	return append([]SpanEvent(nil), tracing.events...)
}

// WriteTrace serializes the collected spans as Chrome trace-event JSON.
func WriteTrace(w io.Writer) error { return WriteFlightChrome(w, traced()) }

// WriteTraceFile writes the collected spans to a path.
func WriteTraceFile(path string) error { return WriteFlightFile(path, traced()) }

// traceEvent is one Chrome trace-event object.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds since the oldest event
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// traceFile is the top-level JSON document.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteFlightChrome serializes span events as Chrome trace-event JSON
// (chrome://tracing, Perfetto, speedscope): one "X" complete event per
// span, timestamps rebased to the oldest event, with trace/span/parent
// ids in each event's args so the causal tree survives the format.
// Tracks become tids: the main loop is 1, parallel workers 2+w.
func WriteFlightChrome(w io.Writer, events []SpanEvent) error {
	evs := make([]SpanEvent, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].StartNS < evs[j].StartNS })
	var base int64
	if len(evs) > 0 {
		base = evs[0].StartNS
	}
	out := make([]traceEvent, 0, len(evs))
	for _, ev := range evs {
		args := make(map[string]string, len(ev.Args)/2+4)
		for i := 0; i+1 < len(ev.Args); i += 2 {
			args[ev.Args[i]] = ev.Args[i+1]
		}
		args["span"] = strconv.FormatUint(ev.SpanID, 10)
		if ev.ParentID != 0 {
			args["parent"] = strconv.FormatUint(ev.ParentID, 10)
		}
		if ev.TraceID != 0 {
			args["trace"] = strconv.FormatUint(ev.TraceID, 10)
		}
		if ev.Label != "" {
			args["label"] = ev.Label
		}
		out = append(out, traceEvent{
			Name: ev.Name,
			Ph:   "X",
			TS:   float64(ev.StartNS-base) / 1e3,
			Dur:  float64(ev.DurNS) / 1e3,
			PID:  1,
			TID:  ev.Track,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{TraceEvents: out, DisplayTimeUnit: "ms"})
}

// WriteFlightFile writes span events to a path as Chrome trace JSON.
func WriteFlightFile(path string, events []SpanEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteFlightChrome(f, events); err != nil {
		return err
	}
	return f.Close()
}
