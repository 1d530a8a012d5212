package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/raster"
	"repro/internal/server"
	"repro/internal/types"
	"repro/internal/viewer"
)

// errServerReply marks an op the server answered with an error message;
// the connection stays usable.
var errServerReply = errors.New("server replied with an error")

// frameSeen is one frame as it arrived at a client.
type frameSeen struct {
	at   time.Time
	snap uint64
}

// checkedFrame is a served frame kept for comparison with the reference.
type checkedFrame struct {
	op  server.ClientOp
	png []byte
}

// wsClient is one user at a websocket: a connection driven in a closed
// loop from a single goroutine, which is also the only reader.
type wsClient struct {
	id      int
	ws      *server.WSConn
	script  *viewScript
	sent    int
	dead    bool           // the connection failed; no further ops
	frames  []frameSeen    // every frame read since the log was last reset
	checked []checkedFrame // the first served frames, for the oracle
}

// reply is the outcome of one op.
type reply struct {
	meta   server.FrameMeta
	png    []byte
	rtt    time.Duration
	pushed int   // frames read before the op's own
	frames int   // frames read, the op's own included
	bytes  int64 // PNG bytes of those frames
}

func dialClient(addr string, id int, seed int64, w, h int, timeout time.Duration) (*wsClient, error) {
	ws, err := server.Dial(fmt.Sprintf("ws://%s/ws?session=weather&w=%d&h=%d", addr, w, h))
	if err != nil {
		return nil, err
	}
	c := &wsClient{id: id, ws: ws, script: newViewScript(seed, id)}
	// Every client starts with a hello and an initial frame.
	if _, err := c.await(timeout, func(m *server.FrameMeta) bool { return true }); err != nil {
		ws.Close()
		return nil, fmt.Errorf("client %d: initial frame: %w", id, err)
	}
	return c, nil
}

// do sends op under a fresh token and reads until the frame echoing it.
// An op not answered within timeout closes the connection, which ends
// the read; the client is dead from then on.
func (c *wsClient) do(op server.ClientOp, timeout time.Duration) (reply, error) {
	if c.dead {
		return reply{}, fmt.Errorf("client %d: connection closed", c.id)
	}
	c.sent++
	op.Token = fmt.Sprintf("c%d-%d", c.id, c.sent)
	b, err := json.Marshal(op)
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	if err := c.ws.WriteMessage(server.OpText, b); err != nil {
		c.dead = true
		return reply{}, fmt.Errorf("client %d: send: %w", c.id, err)
	}
	r, err := c.await(timeout, func(m *server.FrameMeta) bool { return m.Token == op.Token })
	r.rtt = time.Since(start)
	return r, err
}

// await reads messages until a frame satisfying want arrives, tallying
// the frames read on the way.
func (c *wsClient) await(timeout time.Duration, want func(*server.FrameMeta) bool) (reply, error) {
	var timedOut atomic.Bool
	timer := time.AfterFunc(timeout, func() {
		timedOut.Store(true)
		c.ws.Close()
	})
	defer timer.Stop()
	var r reply
	for {
		meta, png, err := c.read()
		if errors.Is(err, errServerReply) {
			return r, err
		}
		if err != nil {
			c.dead = true
			if timedOut.Load() {
				return r, fmt.Errorf("client %d: no frame within %v", c.id, timeout)
			}
			return r, fmt.Errorf("client %d: read: %w", c.id, err)
		}
		if meta == nil {
			continue
		}
		r.frames++
		r.bytes += int64(len(png))
		if want(meta) {
			r.meta, r.png = *meta, png
			return r, nil
		}
		r.pushed++
	}
}

// read returns the next frame, nil for any other message, or
// errServerReply for an error message.
func (c *wsClient) read() (*server.FrameMeta, []byte, error) {
	op, payload, err := c.ws.ReadMessage()
	if err != nil {
		return nil, nil, err
	}
	if op != server.OpText {
		return nil, nil, fmt.Errorf("binary message outside a frame pair")
	}
	var probe struct {
		Type  string `json:"type"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(payload, &probe); err != nil {
		return nil, nil, fmt.Errorf("bad server message: %w", err)
	}
	switch probe.Type {
	case "error":
		return nil, nil, fmt.Errorf("%w: %s", errServerReply, probe.Error)
	case "frame":
	default:
		return nil, nil, nil
	}
	var meta server.FrameMeta
	if err := json.Unmarshal(payload, &meta); err != nil {
		return nil, nil, fmt.Errorf("bad frame meta: %w", err)
	}
	op2, png, err := c.ws.ReadMessage()
	if err != nil {
		return nil, nil, err
	}
	if op2 != server.OpBinary || len(png) != meta.PNGBytes {
		return nil, nil, fmt.Errorf("frame meta not followed by its PNG")
	}
	c.frames = append(c.frames, frameSeen{at: time.Now(), snap: meta.Snap})
	return &meta, png, nil
}

// served is the shared set-up of the websocket workloads: a seeded
// database behind one Figure 7 session, and its clients.
type served struct {
	cfg     config
	tr      *tracer
	db      *db.Database
	srv     *server.Server
	sess    *server.Session
	clients []*wsClient
	inject  []server.ClientOp // sent by client 0 ahead of its script
	keep    int               // served frames per client kept for the oracle
}

func (s *served) start(info *runInfo, stations, clients int) error {
	d, err := seedDatabase(s.tr, info, stations, 1, s.cfg.seed)
	if err != nil {
		return err
	}
	s.db = d
	s.srv = server.New(d)
	if s.sess, err = s.srv.AddSession("weather", core.Figure7); err != nil {
		return err
	}
	addr, err := s.srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	z := s.cfg.sizes
	for i := 0; i < clients; i++ {
		c, err := dialClient(addr, i, s.cfg.seed, z.frameW, z.frameH, opTimeout)
		if err != nil {
			return err
		}
		s.clients = append(s.clients, c)
		// One op per elevation builds each layer's render caches before
		// timing starts; users pay that once per session, not per frame.
		for _, e := range viewElevations {
			if _, err := c.do(server.ClientOp{Op: "view", X: -91.5, Y: 31, Elev: e}, opTimeout); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

func (s *served) close() {
	for _, c := range s.clients {
		c.ws.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// op runs one timed op of client c and tallies it into q.
func (s *served) op(c *wsClient, op server.ClientOp, q *phase) {
	q.attempted++
	sp := s.tr.begin(spanClientOp, 0, int64(c.id+1)<<32|int64(c.sent+1), c.id+1)
	r, err := c.do(op, opTimeout)
	s.tr.end(sp)
	q.framesRead += r.frames
	q.frameBytes += r.bytes
	if err != nil {
		q.failed++
		return
	}
	q.ops++
	q.pushed += r.pushed
	rtt := ms(r.rtt)
	render := float64(r.meta.RenderNS) / 1e6
	q.latency = append(q.latency, rtt)
	q.render = append(q.render, render)
	q.rttMinusRender = append(q.rttMinusRender, rtt-render)
	if len(c.checked) < s.keep {
		c.checked = append(c.checked, checkedFrame{op: op, png: r.png})
	}
}

// closedLoop runs every client back to back, with no think time, until
// the deadline.
func (s *served) closedLoop(p *phase, deadline time.Time) {
	parts := make([]*phase, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		parts[i] = &phase{}
		wg.Add(1)
		go func(c *wsClient, q *phase) {
			defer wg.Done()
			if c.id == 0 {
				for _, op := range s.inject {
					s.op(c, op, q)
				}
				s.inject = nil
			}
			for !c.dead && time.Now().Before(deadline) {
				s.op(c, c.script.next(), q)
			}
		}(c, parts[i])
	}
	wg.Wait()
	for _, q := range parts {
		p.merge(q)
	}
}

// finalFrames asks every client for the run's final viewport.
func (s *served) finalFrames() ([][]byte, []string) {
	var pngs [][]byte
	var failures []string
	for _, c := range s.clients {
		r, err := c.do(finalView(s.cfg.seed), opTimeout)
		if err != nil {
			failures = append(failures, fmt.Sprintf("final frame: %v", err))
			continue
		}
		pngs = append(pngs, r.png)
	}
	return pngs, failures
}

// reference renders viewports in-process through a fresh environment
// running the session's program over the same database: the oracle the
// served frames must equal byte for byte.
type reference struct {
	tr   *tracer
	info *runInfo
	v    *viewer.Viewer
	img  *raster.Image
}

func newReference(tr *tracer, info *runInfo, d *db.Database, w, h int) (*reference, error) {
	env := core.NewDetachedEnvironment(d)
	name, err := core.Figure7(env)
	if err != nil {
		return nil, err
	}
	v, err := env.Canvas(name)
	if err != nil {
		return nil, err
	}
	v.W, v.H = w, h
	return &reference{tr: tr, info: info, v: v, img: raster.NewImage(w, h)}, nil
}

func (r *reference) render(op server.ClientOp) ([]byte, error) {
	if err := r.v.PanTo(0, op.X, op.Y); err != nil {
		return nil, err
	}
	if err := r.v.SetElevation(0, op.Elev); err != nil {
		return nil, err
	}
	sp := r.tr.begin(spanRenderInto, 0, 0, 0)
	_, err := r.v.RenderInto(r.img)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return encodePNG(r.tr, r.info, r.img)
}

// encodePNG encodes img, timing the encoder for raster.png_encode_p50_ms.
func encodePNG(tr *tracer, info *runInfo, img *raster.Image) ([]byte, error) {
	var buf bytes.Buffer
	sp := tr.begin(spanWritePNG, 0, 0, 0)
	t0 := time.Now()
	err := img.WritePNG(&buf)
	info.pngEncode = append(info.pngEncode, ms(time.Since(t0)))
	tr.end(sp)
	return buf.Bytes(), err
}

// browseWorkload: two users panning and zooming one canvas, no writes.
type browseWorkload struct{ served }

func (w *browseWorkload) setup(info *runInfo) error {
	return w.start(info, w.cfg.sizes.browseStations, browseClients)
}

func (w *browseWorkload) measure(p *phase, d time.Duration) {
	w.closedLoop(p, p.start.Add(d))
	p.elapsed = time.Since(p.start)
}

func (w *browseWorkload) check(info *runInfo) []string {
	finals, failures := w.finalFrames()
	for i := 1; i < len(finals); i++ {
		if !bytes.Equal(finals[i], finals[0]) {
			failures = append(failures, fmt.Sprintf("client %d's final frame differs from client 0's", i))
		}
	}
	ref, err := newReference(w.tr, info, w.db, w.cfg.sizes.frameW, w.cfg.sizes.frameH)
	if err != nil {
		return append(failures, fmt.Sprintf("reference: %v", err))
	}
	for _, c := range w.clients {
		for k, f := range c.checked {
			if msg := compareToReference(ref, f.op, f.png); msg != "" {
				failures = append(failures, fmt.Sprintf("client %d frame %d: %s", c.id, k, msg))
			}
		}
	}
	if len(finals) > 0 {
		if msg := compareToReference(ref, finalView(w.cfg.seed), finals[0]); msg != "" {
			failures = append(failures, "final frame: "+msg)
		}
	}
	return failures
}

func compareToReference(ref *reference, op server.ClientOp, got []byte) string {
	want, err := ref.render(op)
	if err != nil {
		return fmt.Sprintf("reference render: %v", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Sprintf("served PNG (%d bytes) differs from the reference render (%d bytes) at %+v", len(got), len(want), op)
	}
	return ""
}

// liveWorkload: one user browsing while an open-loop writer updates
// station altitudes on a seeded schedule.
type liveWorkload struct {
	served
	writes  *writeScript
	written int64 // writes issued, the op id of the writer's spans
}

func (w *liveWorkload) setup(info *runInfo) error {
	w.writes = newWriteScript(w.cfg.seed, w.cfg.sizes.liveStations, w.cfg.sizes.writePeriod)
	return w.start(info, w.cfg.sizes.liveStations, 1)
}

// committed is one write as the writer saw it: when it was due and the
// commit sequence it produced.
type committed struct {
	due time.Time
	seq uint64
}

func (w *liveWorkload) measure(p *phase, d time.Duration) {
	deadline := p.start.Add(d)
	c := w.clients[0]
	c.frames = c.frames[:0]
	var wq phase
	var done []committed
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		done = w.writeLoop(&wq, p.start, deadline)
	}()
	w.closedLoop(p, deadline)
	wg.Wait()
	p.elapsed = time.Since(p.start)
	p.merge(&wq)
	if len(done) == 0 {
		return
	}
	// Let the client read the push for the last write before judging
	// freshness; the push is due because the write invalidated its view.
	last := done[len(done)-1].seq
	if !c.dead && !c.saw(last) {
		if _, err := c.await(visibleWithin, func(m *server.FrameMeta) bool { return m.Snap >= last }); err != nil {
			p.failed++
		}
	}
	for _, cw := range done {
		at, ok := c.firstFrameAt(cw.seq)
		if fresh := at.Sub(cw.due); !ok || fresh > visibleWithin {
			p.failed++
		} else {
			p.freshness = append(p.freshness, ms(fresh))
		}
	}
}

// writeLoop issues writes at their due times until the deadline. Each
// write is timed from when it was due, so a stalled writer shows as lag.
func (w *liveWorkload) writeLoop(q *phase, start, deadline time.Time) []committed {
	var out []committed
	for due := start; ; {
		wr := w.writes.next()
		if due = due.Add(wr.gap); !due.Before(deadline) {
			return out
		}
		time.Sleep(time.Until(due))
		q.writerLag = append(q.writerLag, ms(time.Since(due)))
		q.attempted++
		w.written++
		sp := w.tr.begin(spanUpdate, 0, w.written, 2)
		t0 := time.Now()
		err := w.db.UpdateTuple("Stations", wr.row, "altitude", types.NewFloat(wr.altitude))
		took := time.Since(t0)
		w.tr.end(sp)
		if err != nil {
			q.failed++
			continue
		}
		q.writes++
		q.updateUS = append(q.updateUS, float64(took.Nanoseconds())/1e3)
		// The writer is the only one, so the newest commit is its own.
		out = append(out, committed{due: due, seq: w.db.Snapshot().Seq()})
	}
}

func (c *wsClient) saw(seq uint64) bool {
	_, ok := c.firstFrameAt(seq)
	return ok
}

// firstFrameAt returns when the first frame rendered at or after commit
// seq arrived.
func (c *wsClient) firstFrameAt(seq uint64) (time.Time, bool) {
	for _, f := range c.frames {
		if f.snap >= seq {
			return f.at, true
		}
	}
	return time.Time{}, false
}

// check rejects a measured window whose writer fell behind its schedule,
// waits until the session has applied the last write, then compares the
// final frame, rendered by a session that reached the final database
// through incremental deltas, with a from-scratch evaluation of that
// database.
func (w *liveWorkload) check(info *runInfo) []string {
	var failures []string
	for _, p := range []*phase{info.reference, info.timed} {
		if p == nil {
			continue
		}
		if lag := summarize(p.writerLag).P95; lag > maxWriterLagMS {
			failures = append(failures, fmt.Sprintf("writer lag p95 %.2f ms exceeds %.0f ms: the open loop fell behind its schedule", lag, maxWriterLagMS))
		}
	}
	want := w.db.Snapshot().Seq()
	for deadline := time.Now().Add(visibleWithin); ; time.Sleep(5 * time.Millisecond) {
		if _, seq := w.sess.Generations(); seq >= want {
			break
		}
		if time.Now().After(deadline) {
			return append(failures, fmt.Sprintf("session never reached commit %d", want))
		}
	}
	finals, finalFailures := w.finalFrames()
	failures = append(failures, finalFailures...)
	if len(finals) == 0 {
		return failures
	}
	ref, err := newReference(w.tr, info, w.db, w.cfg.sizes.frameW, w.cfg.sizes.frameH)
	if err != nil {
		return append(failures, fmt.Sprintf("reference: %v", err))
	}
	if msg := compareToReference(ref, finalView(w.cfg.seed), finals[0]); msg != "" {
		failures = append(failures, "final frame against full evaluation: "+msg)
	}
	return failures
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
