package server

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
)

// waitFor polls the client's message stream until cond holds.
func (c *testClient) waitFor(timeout time.Duration, what string, cond func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		if !c.readOne(time.Until(deadline)) {
			break
		}
	}
	c.t.Fatalf("timed out waiting for %s (frames=%d gens=%d acks=%d errs=%v)",
		what, len(c.frames), len(c.gens), len(c.acks), c.errs)
}

// An "update" op edits one field through the per-type update function
// and the optimistic CAS path: the client gets an ack, every client gets
// a fresh frame against the advanced snapshot, and the value sticks.
func TestUpdateOpCommitsAndPushes(t *testing.T) {
	_, database, addr := newTestServer(t, 8, 6, 1)
	c := attachClient(t, addr, 200, 150)
	before := c.hello.Gens["Stations"]

	c.send(ClientOp{Op: "update", Table: "Stations", Row: 0, Col: "altitude", Input: "432.5", Token: "u1"})
	c.waitFor(10*time.Second, "ack", func() bool { return len(c.acks) > 0 })
	if a := c.acks[0]; a.Op != "update" || a.Token != "u1" {
		t.Fatalf("ack = %+v", a)
	}
	c.waitFor(10*time.Second, "pushed frame", func() bool {
		n := len(c.frames)
		return n > 0 && c.frames[n-1].meta.Gens["Stations"] > before
	})
	if len(c.errs) > 0 {
		t.Fatalf("unexpected errors: %v", c.errs)
	}
	st, err := database.Table("Stations")
	if err != nil {
		t.Fatal(err)
	}
	ai := st.Schema().Index("altitude")
	if got := st.Tuple(0)[ai]; !got.Equal(types.NewFloat(432.5)) {
		t.Fatalf("altitude = %v, want 432.5", got)
	}
}

// An update losing its race with a concurrent writer surfaces over the
// wire as an ErrorMsg with Code "stale" — never a silent clobber. The
// race is made deterministic by holding the session write lock, which
// stalls the pump's snapshot advance while the direct write commits.
func TestUpdateOpStaleCodeOnWire(t *testing.T) {
	srv, database, addr := newTestServer(t, 8, 6, 1)
	c := attachClient(t, addr, 200, 150)
	sess, _ := srv.Session("weather")
	// The client's initial frame takes the session read lock; let it
	// finish first, or the op below queues behind that frame for good.
	c.waitFor(10*time.Second, "initial frame", func() bool { return len(c.frames) > 0 })

	sess.mu.Lock()
	if err := database.UpdateTuple("Stations", 0, "altitude", types.NewFloat(1)); err != nil {
		sess.mu.Unlock()
		t.Fatal(err)
	}
	// The pinned snapshot cannot advance (ApplyEvents blocks on mu), so
	// this update validates against a stale generation and must lose.
	c.send(ClientOp{Op: "update", Table: "Stations", Row: 0, Col: "altitude", Input: "2", Token: "s1"})
	c.waitFor(10*time.Second, "stale error", func() bool { return len(c.errMsgs) > 0 })
	sess.mu.Unlock()

	e := c.errMsgs[0]
	if e.Code != ErrorCodeStale || !strings.Contains(e.Error, "stale") {
		t.Fatalf("stale rejection = %+v, want code %q", e, ErrorCodeStale)
	}
	// The direct write won; the rejected input never landed.
	st, err := database.Table("Stations")
	if err != nil {
		t.Fatal(err)
	}
	ai := st.Schema().Index("altitude")
	if got := st.Tuple(0)[ai]; !got.Equal(types.NewFloat(1)) {
		t.Fatalf("altitude = %v, want the direct writer's 1", got)
	}
}

// Non-concurrency update failures report a plain error with no code.
func TestUpdateOpBadColumnNoCode(t *testing.T) {
	_, _, addr := newTestServer(t, 8, 6, 1)
	c := attachClient(t, addr, 200, 150)
	c.send(ClientOp{Op: "update", Table: "Stations", Row: 0, Col: "nope", Input: "1"})
	c.waitFor(10*time.Second, "error", func() bool { return len(c.errMsgs) > 0 })
	if c.errMsgs[0].Code != "" {
		t.Fatalf("bad-column error carries code %q", c.errMsgs[0].Code)
	}
}

// WithWorkerBudget threads a worker cap into every client frame's eval
// options; the session still renders correctly.
func TestSessionWorkerBudget(t *testing.T) {
	database, err := core.SeedDatabase(8, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(database)
	t.Cleanup(func() { srv.Close() })
	sess, err := srv.AddSession("weather", core.Figure7, WithWorkerBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if sess.workers != 1 {
		t.Fatalf("workers = %d, want 1", sess.workers)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := attachClient(t, addr, 160, 120)
	c.send(ClientOp{Op: "render", Token: "t1"})
	f := c.waitFrameToken("t1", 10*time.Second)
	if len(f.png) == 0 {
		t.Fatal("empty frame under worker budget")
	}
}

// Tuple writes now flow to sessions as deltas: after a burst of appends,
// the pushed frame reflects the final state, and a structural event
// (drop) still invalidates wholesale.
func TestApplyEventsDeltaRouting(t *testing.T) {
	_, database, addr := newTestServer(t, 8, 6, 1)
	c := attachClient(t, addr, 200, 150)
	before := c.hello.Gens["Stations"]

	st, err := database.Table("Stations")
	if err != nil {
		t.Fatal(err)
	}
	tup := make([]types.Value, len(st.Tuple(0)))
	copy(tup, st.Tuple(0))
	for i := 0; i < 10; i++ {
		if err := database.AppendTuple("Stations", tup); err != nil {
			t.Fatal(err)
		}
	}
	var finalGen int64
	c.waitFor(15*time.Second, "post-append frame", func() bool {
		n := len(c.frames)
		if n == 0 {
			return false
		}
		finalGen = c.frames[n-1].meta.Gens["Stations"]
		cur, err := database.Table("Stations")
		return err == nil && finalGen > before && finalGen == cur.Generation()
	})
	if len(c.errs) > 0 {
		t.Fatalf("errors during delta routing: %v", c.errs)
	}
}
