package db

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/rel"
)

// EventKind classifies one committed database change.
type EventKind int

const (
	EventUpdate EventKind = iota + 1 // one field of one tuple replaced
	EventAppend                      // one tuple appended
	EventUndo                        // one update reversed off the undo log
	EventCreate                      // table registered in the catalog
	EventDrop                        // table removed from the catalog
	EventLoad                        // table replaced wholesale by LoadBackend or AlterTable
)

// String names the kind for logs and wire protocols.
func (k EventKind) String() string {
	switch k {
	case EventUpdate:
		return "update"
	case EventAppend:
		return "append"
	case EventUndo:
		return "undo"
	case EventCreate:
		return "create"
	case EventDrop:
		return "drop"
	case EventLoad:
		return "load"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event describes one committed change to one table. Gen is the
// table's generation stamp after the change (0 for EventDrop — the
// table no longer has one), so a subscriber holding a snapshot can
// tell whether it has already observed the change. Seq is the
// database-wide commit sequence; it increases with every committed
// write, and the several per-table events of one LoadBackend share it.
//
// Tuple-level writes (update, append, undo) additionally carry the
// change itself: PrevGen is the table's generation before the write
// and Delta the exact tuples touched, so a consumer holding the
// PrevGen version can maintain derived state incrementally instead of
// recomputing from the new table. Structural events (create, drop,
// load) carry no delta — Delta is nil and consumers must refetch.
// The tuple slices inside Delta alias the immutable pre- and
// post-write relation versions; they must not be mutated.
type Event struct {
	Table   string
	Gen     int64
	Kind    EventKind
	Seq     uint64
	PrevGen int64
	Delta   *rel.TupleDelta
}

// maxPending bounds a subscriber's queue. Past the bound the queue is
// coalesced to the newest event per table — events are invalidation
// signals keyed by generation, so a consumer that was going to see N
// stale generations of a table loses nothing by seeing only the
// newest.
const maxPending = 1024

// subscriber is one Subscribe registration: writers append to pending
// (never blocking), a dedicated drain goroutine feeds the channel at
// whatever pace the consumer reads.
type subscriber struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []Event
	closed  bool
	ch      chan Event
	done    chan struct{}
}

// Subscribe registers for committed-change events. The returned
// channel carries every event in commit order (coalescing only under
// extreme backlog, newest-per-table wins); it is closed after cancel
// is called. Delivery is asynchronous — a slow or stalled consumer
// never blocks a writer — which is the deliberate contrast with
// Watch, whose callbacks run synchronously on the writer's goroutine.
func (d *Database) Subscribe() (<-chan Event, func()) {
	s := &subscriber{ch: make(chan Event, 16), done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	d.mu.Lock()
	if d.subs == nil {
		d.subs = make(map[*subscriber]struct{})
	}
	d.subs[s] = struct{}{}
	d.mu.Unlock()
	go s.drain()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			d.mu.Lock()
			delete(d.subs, s)
			d.mu.Unlock()
			s.mu.Lock()
			s.closed = true
			s.mu.Unlock()
			close(s.done)
			s.cond.Signal()
		})
	}
	return s.ch, cancel
}

// publish enqueues events for the drain goroutine. Called by writers;
// never blocks.
func (s *subscriber) publish(evs []Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.pending = append(s.pending, evs...)
	if len(s.pending) > maxPending {
		before := len(s.pending)
		s.pending = coalesceEvents(s.pending)
		obs.Add(obs.DBEventsCoalesced, int64(before-len(s.pending)))
	}
	s.cond.Signal()
	s.mu.Unlock()
}

// drain moves pending events to the channel until cancelled.
func (s *subscriber) drain() {
	defer close(s.ch)
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		batch := s.pending
		s.pending = nil
		s.mu.Unlock()
		for _, ev := range batch {
			select {
			case s.ch <- ev:
			case <-s.done:
				return
			}
		}
	}
}

// coalesceEvents keeps only the newest event per table, preserving
// commit order among the survivors.
func coalesceEvents(evs []Event) []Event {
	last := make(map[string]int, len(evs))
	for i, ev := range evs {
		last[ev.Table] = i
	}
	out := evs[:0]
	for i, ev := range evs {
		if last[ev.Table] == i {
			out = append(out, ev)
		}
	}
	return append([]Event(nil), out...)
}

// notifyLocked snapshots the observer lists under d.mu; the caller
// delivers after unlocking so synchronous watchers never run under the
// database lock.
func (d *Database) notifyLocked() ([]func(string), []*subscriber) {
	watchers := append([]func(string){}, d.watchers...)
	subs := make([]*subscriber, 0, len(d.subs))
	for s := range d.subs {
		subs = append(subs, s)
	}
	return watchers, subs
}

// deliver fans committed events out: asynchronously to subscribers
// (per-subscriber queues), synchronously to Watch callbacks on the
// caller's goroutine. Call without holding d.mu.
func deliver(watchers []func(string), subs []*subscriber, evs ...Event) {
	if len(evs) == 0 {
		return
	}
	obs.Add(obs.DBEvents, int64(len(evs)))
	for _, s := range subs {
		s.publish(evs)
	}
	for _, w := range watchers {
		for _, ev := range evs {
			w(ev.Table)
		}
	}
}
