package db

import (
	"testing"
	"time"

	"repro/internal/rel"
	"repro/internal/types"
)

func collectEvents(t testing.TB, ch <-chan Event, n int) []Event {
	t.Helper()
	out := make([]Event, 0, n)
	timeout := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("channel closed after %d of %d events", len(out), n)
			}
			out = append(out, ev)
		case <-timeout:
			t.Fatalf("timed out after %d of %d events", len(out), n)
		}
	}
	return out
}

func TestSubscribeTypedEvents(t *testing.T) {
	d := seeded(t)
	ch, cancel := d.Subscribe()
	defer cancel()

	if err := d.UpdateTuple("Stations", 1, "altitude", types.NewFloat(10)); err != nil {
		t.Fatal(err)
	}
	tup := d.mustLiveTuple(t, "Stations", 0)
	if err := d.AppendTuple("Stations", tup); err != nil {
		t.Fatal(err)
	}
	if _, err := d.UndoLast(); err != nil {
		t.Fatal(err)
	}
	if err := d.DropTable("LouisianaMap"); err != nil {
		t.Fatal(err)
	}

	evs := collectEvents(t, ch, 4)
	wantKinds := []EventKind{EventUpdate, EventAppend, EventUndo, EventDrop}
	wantTables := []string{"Stations", "Stations", "Stations", "LouisianaMap"}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] || ev.Table != wantTables[i] {
			t.Fatalf("event %d = %v %q, want %v %q", i, ev.Kind, ev.Table, wantKinds[i], wantTables[i])
		}
		if i > 0 && evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("commit sequence not increasing: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	// Generations on the events match the live catalog where the table
	// survives; a drop carries Gen 0.
	st, _ := d.Table("Stations")
	if evs[2].Gen != st.Generation() {
		t.Fatalf("undo event gen %d, live %d", evs[2].Gen, st.Generation())
	}
	if evs[3].Gen != 0 {
		t.Fatalf("drop event gen = %d, want 0", evs[3].Gen)
	}
}

func TestSubscribeCancelClosesChannel(t *testing.T) {
	d := seeded(t)
	ch, cancel := d.Subscribe()
	cancel()
	cancel() // idempotent
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("event after cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed after cancel")
	}
	// Writes after cancel do not panic or block.
	if err := d.UpdateTuple("Stations", 0, "altitude", types.NewFloat(1)); err != nil {
		t.Fatal(err)
	}
}

// TestSubscriberNeverBlocksWriter: a subscriber that never reads must
// not stall the write path.
func TestSubscriberNeverBlocksWriter(t *testing.T) {
	d := seeded(t)
	_, cancel := d.Subscribe() // nobody reads the channel
	defer cancel()
	for i := 0; i < 3*maxPending; i++ {
		if err := d.UpdateTuple("Stations", i%10, "altitude", types.NewFloat(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCoalesceEventsKeepsNewestPerTable(t *testing.T) {
	evs := []Event{
		{Table: "A", Seq: 1}, {Table: "B", Seq: 2},
		{Table: "A", Seq: 3}, {Table: "C", Seq: 4}, {Table: "B", Seq: 5},
	}
	got := coalesceEvents(evs)
	if len(got) != 3 {
		t.Fatalf("coalesced to %d events: %v", len(got), got)
	}
	want := []Event{{Table: "A", Seq: 3}, {Table: "C", Seq: 4}, {Table: "B", Seq: 5}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestWatchStillSynchronous(t *testing.T) {
	d := seeded(t)
	fired := false
	d.Watch(func(table string) { fired = true })
	if err := d.UpdateTuple("Stations", 0, "altitude", types.NewFloat(5)); err != nil {
		t.Fatal(err)
	}
	// No synchronization: Watch's contract is delivery before the write
	// returns, on the writer's goroutine.
	if !fired {
		t.Fatal("watcher not fired synchronously")
	}
}

func TestLoadEmitsLoadEvents(t *testing.T) {
	src := seeded(t)
	d := seeded(t)
	b := rel.NewMemBackend()
	if err := src.SaveBackend(b); err != nil {
		t.Fatal(err)
	}
	ch, cancel := d.Subscribe()
	defer cancel()
	if err := d.LoadBackend(b); err != nil {
		t.Fatal(err)
	}
	evs := collectEvents(t, ch, 2)
	if evs[0].Kind != EventLoad || evs[1].Kind != EventLoad {
		t.Fatalf("kinds = %v %v", evs[0].Kind, evs[1].Kind)
	}
	if evs[0].Table != "LouisianaMap" || evs[1].Table != "Stations" {
		t.Fatalf("tables = %q %q", evs[0].Table, evs[1].Table)
	}
	if evs[0].Seq != evs[1].Seq {
		t.Fatalf("one load, two sequences: %d %d", evs[0].Seq, evs[1].Seq)
	}
}
