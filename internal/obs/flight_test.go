package obs

import (
	"context"
	"strconv"
	"sync"
	"testing"
)

func TestFlightRingRetainsMostRecent(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		f.Record(&SpanEvent{SpanID: uint64(i + 1), Name: "s" + strconv.Itoa(i)})
	}
	got := f.DumpRecent()
	if len(got) != 8 {
		t.Fatalf("DumpRecent returned %d events, want 8", len(got))
	}
	for i, ev := range got {
		if want := uint64(13 + i); ev.SpanID != want {
			t.Fatalf("event %d has SpanID %d, want %d (oldest-first window of the last 8)", i, ev.SpanID, want)
		}
	}
}

func TestFlightDisabledAndNilAreInert(t *testing.T) {
	f := NewFlightRecorder(4)
	f.SetEnabled(false)
	f.Record(&SpanEvent{SpanID: 1})
	if got := f.DumpRecent(); len(got) != 0 {
		t.Fatalf("disabled recorder retained %d events", len(got))
	}
	var nilf *FlightRecorder
	nilf.Record(&SpanEvent{SpanID: 2}) // must not panic
	if nilf.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
}

func TestFlightResetKeepsCounterMonotonic(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 3; i++ {
		f.Record(&SpanEvent{SpanID: uint64(i + 1)})
	}
	f.Reset()
	if got := f.DumpRecent(); len(got) != 0 {
		t.Fatalf("Reset left %d events", len(got))
	}
	f.Record(&SpanEvent{SpanID: 99})
	got := f.DumpRecent()
	if len(got) != 1 || got[0].SpanID != 99 {
		t.Fatalf("post-Reset dump = %v, want just span 99", got)
	}
}

// TestFlightConcurrentWritersDuringDump drives writers, dumpers, and
// resets concurrently; under -race this pins the lock-free claims of the
// ring (no torn events, no duplicates).
func TestFlightConcurrentWritersDuringDump(t *testing.T) {
	f := NewFlightRecorder(64)
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f.Record(&SpanEvent{SpanID: uint64(w*perWriter + i + 1), Track: int64(w)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			got := f.DumpRecent()
			if len(got) > 64 {
				t.Fatalf("dump larger than capacity: %d", len(got))
			}
			seen := make(map[uint64]bool, len(got))
			for _, ev := range got {
				if ev.SpanID == 0 {
					t.Fatal("torn/zero event observed")
				}
				if seen[ev.SpanID] {
					t.Fatalf("duplicate span %d in dump", ev.SpanID)
				}
				seen[ev.SpanID] = true
			}
			return
		default:
			for _, ev := range f.DumpRecent() {
				if ev.SpanID == 0 {
					t.Fatal("torn/zero event observed mid-write")
				}
			}
			f.Reset() // resets racing writes must stay well-defined too
		}
	}
}

// The three idle-cost benchmarks back the claim that the always-on
// recorder is affordable in production:
//
//	BenchmarkSpanCtxAllOff     — tracing off, flight off: the no-op path
//	BenchmarkSpanCtxFlightOnly — the always-on production configuration
//	BenchmarkFlightRecord      — the raw ring publish alone

func BenchmarkSpanCtxAllOff(b *testing.B) {
	prev := SetFlightEnabled(false)
	defer SetFlightEnabled(prev)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Recording() {
			_, sp := StartSpanCtx(ctx, "bench.span")
			sp.End()
		}
	}
}

func BenchmarkSpanCtxFlightOnly(b *testing.B) {
	prev := SetFlightEnabled(true)
	defer func() {
		SetFlightEnabled(prev)
		ResetFlight()
	}()
	ctx, _ := EnsureTrace(context.Background(), "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpanCtx(ctx, "bench.span")
		sp.End()
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlightRecorder(DefaultFlightCapacity)
	ev := &SpanEvent{SpanID: 1, Name: "bench.span"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Record(ev)
	}
}
