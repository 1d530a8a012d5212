package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// TraceContext identifies one request — one Eval demand, one rendered
// frame, one shell command — so every span recorded on its behalf can
// be grouped and the request's causal tree rebuilt after the fact. It
// travels through context.Context: entry points mint one with
// EnsureTrace, interior span sites inherit it implicitly through
// StartSpanCtx.
type TraceContext struct {
	TraceID uint64
	Label   string
}

type traceCtxKey struct{}
type parentSpanKey struct{}

var (
	traceIDs atomic.Uint64
	spanIDs  atomic.Uint64
)

// NewTraceContext mints a fresh process-unique trace id.
func NewTraceContext(label string) *TraceContext {
	return &TraceContext{TraceID: traceIDs.Add(1), Label: label}
}

// WithTraceContext returns ctx carrying tc.
func WithTraceContext(ctx context.Context, tc *TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext returns the TraceContext carried by ctx, or nil.
func TraceFromContext(ctx context.Context) *TraceContext {
	tc, _ := ctx.Value(traceCtxKey{}).(*TraceContext)
	return tc
}

// ParentSpanID returns the id of the innermost span opened on ctx via
// StartSpanCtx, or 0 at the root.
func ParentSpanID(ctx context.Context) uint64 {
	id, _ := ctx.Value(parentSpanKey{}).(uint64)
	return id
}

// Recording reports whether any span recorder is active: the flight
// recorder is enabled or a trace is being collected. When false the ctx
// span API is a near-free no-op, and hot call sites use it to skip
// building span-arg slices entirely.
func Recording() bool { return tracing.active.Load() || defaultFlight.Enabled() }

// EnsureTrace returns ctx carrying a TraceContext, minting one labeled
// label when ctx has none. When ctx already carries one (an enclosing
// request) it is reused, so nested entry points — a render demanding an
// Eval — attribute to the outer request. When no recorder could observe
// the request at all, ctx is returned unchanged with a nil TraceContext
// (safe to ignore): request attribution costs nothing while neither
// tracing nor the flight recorder is on.
func EnsureTrace(ctx context.Context, label string) (context.Context, *TraceContext) {
	if tc := TraceFromContext(ctx); tc != nil {
		return ctx, tc
	}
	if !Recording() {
		return ctx, nil
	}
	tc := NewTraceContext(label)
	return WithTraceContext(ctx, tc), tc
}

// AdoptTrace returns dst carrying src's TraceContext and parent span,
// used where two contexts meet: a viewer source that owns a
// cancellation context adopts the render request's trace so demands it
// issues attribute to the frame that caused them.
func AdoptTrace(dst, src context.Context) context.Context {
	if tc := TraceFromContext(src); tc != nil {
		dst = WithTraceContext(dst, tc)
	}
	if id := ParentSpanID(src); id != 0 {
		dst = context.WithValue(dst, parentSpanKey{}, id)
	}
	return dst
}

// Span is one open span; End closes it into a SpanEvent. A nil *Span
// (returned when nothing records) is safe to End and annotate, so call
// sites need no branches.
type Span struct {
	name        string
	tid         int64
	id          uint64
	parent      uint64
	traceID     uint64
	label       string
	start       time.Time
	args        []string
	annotations []string
}

// MainTrack is the track id of non-worker spans.
const MainTrack = 1

// StartSpanCtx opens a span on the main track, linked to ctx's trace
// and parent span. It returns a derived context (the new span becomes
// the parent for spans opened beneath it) and the span to End. When
// nothing is recording it returns (ctx, nil).
func StartSpanCtx(ctx context.Context, name string, args ...string) (context.Context, *Span) {
	return StartSpanCtxOn(ctx, MainTrack, name, args...)
}

// StartSpanCtxOn opens a span on an explicit track (used to attribute
// parallel workers), linked to ctx's trace and parent span. args are
// alternating key/value pairs.
func StartSpanCtxOn(ctx context.Context, tid int64, name string, args ...string) (context.Context, *Span) {
	if !Recording() {
		return ctx, nil
	}
	s := &Span{
		name:   name,
		tid:    tid,
		id:     spanIDs.Add(1),
		parent: ParentSpanID(ctx),
		start:  time.Now(),
		args:   args,
	}
	if tc := TraceFromContext(ctx); tc != nil {
		s.traceID = tc.TraceID
		s.label = tc.Label
	}
	return context.WithValue(ctx, parentSpanKey{}, s.id), s
}

// Annotate attaches a key/value pair to the span's event at End time,
// for facts only known after the work ran (rows produced, memo entries
// dropped). Safe on nil.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.annotations = append(s.annotations, key, value)
}

// End closes the span into one SpanEvent and hands it to the flight
// ring and the trace collector, each of which keeps it only while it is
// on. Safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	args := s.args
	if len(s.annotations) > 0 {
		merged := make([]string, 0, len(s.args)+len(s.annotations))
		merged = append(merged, s.args...)
		args = append(merged, s.annotations...)
	}
	ev := &SpanEvent{
		TraceID:  s.traceID,
		SpanID:   s.id,
		ParentID: s.parent,
		Name:     s.name,
		Label:    s.label,
		Track:    s.tid,
		StartNS:  s.start.UnixNano(),
		DurNS:    time.Since(s.start).Nanoseconds(),
		Args:     args,
	}
	defaultFlight.Record(ev)
	collect(ev)
}
