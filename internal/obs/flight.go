package obs

import "sync/atomic"

// SpanEvent is the one record of a completed span: Span.End builds it
// once and hands it to the flight ring and, while StartTracing is
// active, to the trace collector. TraceID groups every span of one
// request, ParentID links the causal tree, Track matches the Chrome
// trace tid convention (1 = main, 2+w = workers).
type SpanEvent struct {
	TraceID  uint64   `json:"trace,omitempty"`
	SpanID   uint64   `json:"span"`
	ParentID uint64   `json:"parent,omitempty"`
	Name     string   `json:"name"`
	Label    string   `json:"label,omitempty"`
	Track    int64    `json:"track"`
	StartNS  int64    `json:"start_ns"` // wall-clock start, UnixNano
	DurNS    int64    `json:"dur_ns"`
	Args     []string `json:"args,omitempty"` // alternating key/value pairs
}

// Arg returns the value of the named key/value annotation pair, or "".
func (e *SpanEvent) Arg(key string) string {
	for i := 0; i+1 < len(e.Args); i += 2 {
		if e.Args[i] == key {
			return e.Args[i+1]
		}
	}
	return ""
}

// DefaultFlightCapacity is the ring size of the package-level flight
// recorder: enough for several full eval+render requests while staying
// a fixed, small memory cost (~a few hundred KB of pointers + events).
const DefaultFlightCapacity = 4096

// FlightRecorder is an always-on, fixed-size ring buffer of the most
// recent span events. It is the "black box" of the process: recording
// costs one atomic increment and one atomic pointer store per span, so
// it stays enabled in production even when full tracing is off, and a
// slow frame (or a crash handler, or the /trace endpoint) can dump the
// recent past after the fact.
//
// Writers never block and never lock. A reader (DumpRecent) that races
// a wrapping writer may observe a handful of events slightly out of
// ring order; it never observes duplicates or torn events, because each
// event is published once via its own atomic pointer.
type FlightRecorder struct {
	enabled atomic.Bool
	next    atomic.Uint64
	slots   []atomic.Pointer[SpanEvent]
}

// NewFlightRecorder returns an enabled recorder retaining the last
// capacity events (DefaultFlightCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	f := &FlightRecorder{slots: make([]atomic.Pointer[SpanEvent], capacity)}
	f.enabled.Store(true)
	return f
}

var defaultFlight = NewFlightRecorder(DefaultFlightCapacity)

// DefaultFlight returns the process-wide flight recorder fed by the
// context span API.
func DefaultFlight() *FlightRecorder { return defaultFlight }

// Capacity returns the ring size.
func (f *FlightRecorder) Capacity() int { return len(f.slots) }

// Enabled reports whether the recorder accepts events.
func (f *FlightRecorder) Enabled() bool { return f != nil && f.enabled.Load() }

// SetEnabled turns recording on or off and returns the previous
// setting. Benchmark timed passes turn it off so measured latencies
// exclude even the per-span pointer store.
func (f *FlightRecorder) SetEnabled(on bool) bool { return f.enabled.Swap(on) }

// Record publishes one completed span event. Safe for any number of
// concurrent writers; a no-op when disabled or nil.
func (f *FlightRecorder) Record(ev *SpanEvent) {
	if f == nil || !f.enabled.Load() {
		return
	}
	n := f.next.Add(1) - 1
	f.slots[n%uint64(len(f.slots))].Store(ev)
}

// Reset clears the retained events (the sequence counter keeps
// monotonically increasing so concurrent writers stay well-defined).
func (f *FlightRecorder) Reset() {
	for i := range f.slots {
		f.slots[i].Store(nil)
	}
}

// DumpRecent returns the retained events, oldest first. Concurrent
// writers wrapping the ring during the read can surface a few events
// slightly out of order; duplicates cannot occur (each slot is read
// once and each event published once).
func (f *FlightRecorder) DumpRecent() []SpanEvent {
	n := f.next.Load()
	size := uint64(len(f.slots))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	out := make([]SpanEvent, 0, n-start)
	for i := start; i < n; i++ {
		if ev := f.slots[i%size].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	return out
}

// --- package-level flight recorder ------------------------------------

// SetFlightEnabled turns the default flight recorder on or off and
// returns the previous setting.
func SetFlightEnabled(on bool) bool { return defaultFlight.SetEnabled(on) }

// FlightEnabled reports whether the default flight recorder is on.
func FlightEnabled() bool { return defaultFlight.Enabled() }

// DumpFlight returns the default recorder's retained events, oldest
// first.
func DumpFlight() []SpanEvent { return defaultFlight.DumpRecent() }

// ResetFlight clears the default recorder.
func ResetFlight() { defaultFlight.Reset() }

// FilterTrace returns the events belonging to one trace, preserving
// order.
func FilterTrace(events []SpanEvent, traceID uint64) []SpanEvent {
	out := make([]SpanEvent, 0, len(events))
	for _, ev := range events {
		if ev.TraceID == traceID {
			out = append(out, ev)
		}
	}
	return out
}
