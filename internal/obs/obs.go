// Package obs is the observability spine of the Tioga-2 environment:
// named counters, log-scaled latency histograms, and hierarchical spans
// with Chrome trace-event export. Every hot path (lazy evaluation,
// tuple culling, display evaluation, database scans and joins) records
// through this package, and the shell, the headless CLIs, and the
// benchmark harness read it back.
//
// The paper's core promise is immediate feedback — lazy evaluation fires
// only the stale suffix of a program and the viewer culls tuples before
// display evaluation — and this package is how the repo argues that
// promise with numbers instead of ad-hoc structs.
//
// Cost model: the whole layer is disabled by default and gated by one
// atomic flag. Disabled, every recording call is a single atomic load and
// a branch — cheap enough to leave in hot loops without moving benchmark
// numbers. Enabled, counters are lock-free atomics and histograms are
// fixed arrays of atomics, safe for the parallel display-eval path.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates all recording through the package-level convenience
// functions. Disabled (the default), Inc/Add/Observe/StartTimer are a
// single atomic load.
var enabled atomic.Bool

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns recording on or off.
func SetEnabled(on bool) { enabled.Store(on) }

// Counter is a monotonically increasing named count, safe for concurrent
// use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// maxErrorSamples bounds how many distinct error messages are kept per
// error log: enough to diagnose, bounded so a render loop over a broken
// display function cannot grow memory.
const maxErrorSamples = 5

// errorLog keeps the first maxErrorSamples distinct error messages seen
// under one name, plus a total count.
type errorLog struct {
	mu      sync.Mutex
	total   int64
	samples []string
	seen    map[string]bool
}

func (l *errorLog) record(msg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if l.seen[msg] {
		return
	}
	if len(l.samples) < maxErrorSamples {
		if l.seen == nil {
			l.seen = make(map[string]bool, maxErrorSamples)
		}
		l.seen[msg] = true
		l.samples = append(l.samples, msg)
	}
}

// Registry holds named counters, histograms, and error logs. Metrics are
// created lazily on first use; lookups take a read lock and the metrics
// themselves are lock-free.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	histos   map[string]*Histogram
	errs     map[string]*errorLog
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		histos:   make(map[string]*Histogram),
		errs:     make(map[string]*errorLog),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that the package-level
// convenience functions record into.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histos[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histos[name]; ok {
		return h
	}
	h = &Histogram{}
	r.histos[name] = h
	return h
}

func (r *Registry) errorLog(name string) *errorLog {
	r.mu.RLock()
	l, ok := r.errs[name]
	r.mu.RUnlock()
	if ok {
		return l
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if l, ok = r.errs[name]; ok {
		return l
	}
	l = &errorLog{}
	r.errs[name] = l
	return l
}

// CounterNames returns the names of all counters, sorted.
func (r *Registry) CounterNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.counters))
	for n := range r.counters {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HistogramNames returns the names of all histograms, sorted.
func (r *Registry) HistogramNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.histos))
	for n := range r.histos {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Reset drops all metrics (counters back to zero, histograms emptied,
// error logs cleared). Benchmark harnesses call this between workloads to
// measure per-workload deltas.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.histos = make(map[string]*Histogram)
	r.errs = make(map[string]*errorLog)
}

// --- package-level convenience recording (gated on the enabled flag) ---

// Inc increments the named counter in the default registry when obs is
// enabled.
func Inc(name string) {
	if !enabled.Load() {
		return
	}
	defaultRegistry.Counter(name).Inc()
}

// Add adds n to the named counter in the default registry when obs is
// enabled.
func Add(name string, n int64) {
	if !enabled.Load() {
		return
	}
	defaultRegistry.Counter(name).Add(n)
}

// Observe records one duration into the named histogram in the default
// registry when obs is enabled.
func Observe(name string, d time.Duration) {
	if !enabled.Load() {
		return
	}
	defaultRegistry.Histogram(name).Observe(d)
}

// CounterValue reads the named counter from the default registry (zero if
// it was never recorded).
func CounterValue(name string) int64 {
	defaultRegistry.mu.RLock()
	c, ok := defaultRegistry.counters[name]
	defaultRegistry.mu.RUnlock()
	if !ok {
		return 0
	}
	return c.Value()
}

// RecordError counts an error under name and keeps the first few distinct
// messages for the snapshot — failures that used to be silently swallowed
// (a display function erroring per tuple) become visible without flooding
// logs.
func RecordError(name string, err error) {
	if !enabled.Load() || err == nil {
		return
	}
	defaultRegistry.Counter(name).Inc()
	defaultRegistry.errorLog(name).record(err.Error())
}

// Reset clears the default registry.
func Reset() { defaultRegistry.Reset() }

// HistogramNames lists the default registry's recorded histograms.
func HistogramNames() []string { return defaultRegistry.HistogramNames() }

// LookupHistogram returns the named histogram from the default registry
// without creating it, reporting whether it exists.
func LookupHistogram(name string) (*Histogram, bool) {
	defaultRegistry.mu.RLock()
	defer defaultRegistry.mu.RUnlock()
	h, ok := defaultRegistry.histos[name]
	return h, ok
}

// Timer measures one interval into a histogram. The zero Timer (returned
// when obs is disabled) is inert: Stop on it does nothing, so call sites
// need no branches.
type Timer struct {
	h     *Histogram
	start time.Time
}

// StartTimer begins timing into the named histogram of the default
// registry. When obs is disabled it returns the inert zero Timer without
// reading the clock.
func StartTimer(name string) Timer {
	if !enabled.Load() {
		return Timer{}
	}
	return Timer{h: defaultRegistry.Histogram(name), start: time.Now()}
}

// Stop records the elapsed time. Safe on the zero Timer.
func (t Timer) Stop() {
	if t.h == nil {
		return
	}
	t.h.Observe(time.Since(t.start))
}

// FormatCount renders a counter value with thousands separators for shell
// output.
func FormatCount(n int64) string {
	s := fmt.Sprintf("%d", n)
	if n < 0 || len(s) <= 3 {
		return s
	}
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}
