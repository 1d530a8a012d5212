package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/db"
	"repro/internal/raster"
	"repro/internal/rel"
	"repro/internal/viewer"
)

// editProgram is the edit workloads' dataflow program:
//
//	Observations → restrict(temperature > T) ┐
//	Stations     → restrict(latitude > L)    ┴→ join id = station_id
//	  → setdisplay circle → setlocation longitude,latitude → viewer
//
// over Louisiana.
type editProgram struct {
	env                   *core.Environment
	temperature, latitude int // restrict box ids
	v                     *viewer.Viewer
	viewBox               int
}

func buildEditProgram(d *db.Database, temperature, latitude float64, w, h int) (*editProgram, error) {
	env := core.NewEnvironment(d)
	p := &editProgram{env: env}
	var addErr error
	add := func(kind string, params dataflow.Params) int {
		if addErr != nil {
			return 0
		}
		b, err := env.AddBox(kind, params)
		if err != nil {
			addErr = fmt.Errorf("edit program: add %s: %w", kind, err)
			return 0
		}
		return b.ID
	}
	st := add("table", dataflow.Params{"name": "Stations"})
	p.latitude = add("restrict", dataflow.Params{"pred": latitudePred(latitude)})
	ob := add("table", dataflow.Params{"name": "Observations"})
	p.temperature = add("restrict", dataflow.Params{"pred": temperaturePred(temperature)})
	join := add("join", dataflow.Params{"pred": "id = station_id", "strategy": "hash"})
	disp := add("setdisplay", dataflow.Params{"name": "display", "spec": "circle r=0.05 color=blue", "active": "true"})
	loc := add("setlocation", dataflow.Params{"attrs": "longitude,latitude"})
	if addErr != nil {
		return nil, addErr
	}
	for _, e := range [][4]int{
		{st, 0, p.latitude, 0}, {ob, 0, p.temperature, 0},
		{p.latitude, 0, join, 0}, {p.temperature, 0, join, 1},
		{join, 0, disp, 0}, {disp, 0, loc, 0},
	} {
		if err := env.Connect(e[0], e[1], e[2], e[3]); err != nil {
			return nil, fmt.Errorf("edit program: %w", err)
		}
	}
	v, err := env.AddViewer("edit", loc, 0, w, h)
	if err != nil {
		return nil, err
	}
	if err := v.PanTo(0, -91.5, 31.0); err != nil {
		return nil, err
	}
	if err := v.SetElevation(0, 2.2); err != nil {
		return nil, err
	}
	p.v = v
	p.viewBox = v.Source.(viewer.BoxSource).BoxID
	return p, nil
}

// editWorkload: one user editing a restrict predicate and waiting for the
// canvas to redraw, in process, with no server and no PNG. With spill
// set the tables are reloaded chunk-backed from segment files under a
// memory quota a quarter of their size.
type editWorkload struct {
	cfg    config
	tr     *tracer
	spill  bool
	db     *db.Database
	prog   *editProgram
	img    *raster.Image
	script *editScript
	dir    string // segment files (spill only)
	quota  int64
	peak   int64 // chunk-cache high water across the measured windows
	nextOp int64
}

func (w *editWorkload) setup(info *runInfo) error {
	z := w.cfg.sizes
	d, err := seedDatabase(w.tr, info, z.editStations, editObsPerStation, w.cfg.seed)
	if err != nil {
		return err
	}
	if w.spill {
		if d, err = w.spillTables(info, d); err != nil {
			return err
		}
	}
	w.db = d
	w.script = newEditScript(w.cfg.seed)
	if w.prog, err = buildEditProgram(d, initialTemperature, initialLatitude, z.frameW, z.frameH); err != nil {
		return err
	}
	w.img = raster.NewImage(z.frameW, z.frameH)
	// The first frame evaluates the whole program; each timed edit then
	// pays for what its own change invalidates.
	if _, err := w.prog.v.RenderInto(w.img); err != nil {
		return fmt.Errorf("first frame: %w", err)
	}
	return nil
}

// spillTables writes d through a FileBackend, sets the chunk quota from
// the segments' measured chunk bytes, and returns d reloaded
// chunk-backed under that quota.
func (w *editWorkload) spillTables(info *runInfo, d *db.Database) (*db.Database, error) {
	w.dir = filepath.Join(w.cfg.workDir, fmt.Sprintf("spill-%d-%d", os.Getpid(), len(info.setupS)))
	fb, err := rel.NewFileBackend(w.dir)
	if err != nil {
		return nil, err
	}
	sp := w.tr.begin(spanSave, 0, 0, 0)
	t0 := time.Now()
	err = d.SaveBackend(fb)
	info.saveS = append(info.saveS, time.Since(t0).Seconds())
	w.tr.end(sp)
	if err != nil {
		return nil, err
	}
	total, largest, err := segmentChunkBytes(fb, d)
	if err != nil {
		return nil, err
	}
	w.quota = max(total/4, largest*3/2)
	rel.SetMemoryQuota(w.quota)
	rel.DropResidentChunks()

	loaded := db.New()
	sp = w.tr.begin(spanLoad, 0, 0, 0)
	t0 = time.Now()
	err = loaded.LoadBackend(fb)
	info.loadS = append(info.loadS, time.Since(t0).Seconds())
	w.tr.end(sp)
	return loaded, err
}

// segmentChunkBytes sums and maximises the decoded chunk sizes of every
// segment SaveBackend wrote; segments are named t000, t001, ... in sorted
// table-name order.
func segmentChunkBytes(fb *rel.FileBackend, d *db.Database) (total, largest int64, err error) {
	for i, name := range d.TableNames() {
		t, err := d.Table(name)
		if err != nil {
			return 0, 0, err
		}
		src, err := fb.OpenSegment(fmt.Sprintf("t%03d", i), t.Schema())
		if err != nil {
			return 0, 0, err
		}
		for ci := 0; ci < src.NumChunks(); ci++ {
			ch, err := src.ReadChunk(ci)
			if err != nil {
				return 0, 0, err
			}
			total += ch.Bytes()
			largest = max(largest, ch.Bytes())
		}
	}
	return total, largest, nil
}

func (w *editWorkload) measure(p *phase, d time.Duration) {
	deadline := p.start.Add(d)
	if w.spill {
		rel.ResetChunkCacheStats()
	}
	ctx := context.Background()
	env := w.prog.env
	for time.Now().Before(deadline) {
		e := w.script.next()
		box, pred := w.prog.latitude, latitudePred(e.bound)
		if e.temperature {
			box, pred = w.prog.temperature, temperaturePred(e.bound)
		}
		p.attempted++
		w.nextOp++
		op := w.tr.begin(spanEditOp, 0, w.nextOp, 1)
		sp := w.tr.begin(spanSetParams, op, w.nextOp, 1)
		t0 := time.Now()
		err := env.SetParams(box, dataflow.Params{"pred": pred})
		t1 := time.Now()
		w.tr.end(sp)
		if err == nil {
			sp = w.tr.begin(spanEval, op, w.nextOp, 1)
			_, err = env.Eval.Eval(ctx, dataflow.Request{Box: w.prog.viewBox, Port: 0, Input: true})
			w.tr.end(sp)
		}
		t2 := time.Now()
		if err == nil {
			sp = w.tr.begin(spanRenderInto, op, w.nextOp, 1)
			_, err = w.prog.v.RenderInto(w.img)
			w.tr.end(sp)
		}
		t3 := time.Now()
		w.tr.end(op)
		if err != nil {
			p.failed++
			continue
		}
		p.ops++
		p.latency = append(p.latency, ms(t3.Sub(t0)))
		p.setParamsUS = append(p.setParamsUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		p.eval = append(p.eval, ms(t2.Sub(t1)))
		p.render = append(p.render, ms(t3.Sub(t2)))
	}
	p.elapsed = time.Since(p.start)
	if w.spill {
		p.chunkPeak = rel.ChunkCacheStats().Peak
		w.peak = max(w.peak, p.chunkPeak)
	}
}

// check returns both restricts to their initial bounds, redraws, and
// compares the frame with a cold environment built at those bounds over
// resident tables. For edit_spill those tables are seeded afresh, so the
// chunk-backed run must draw exactly what edit draws at the same seed.
func (w *editWorkload) check(info *runInfo) []string {
	var failures []string
	if w.spill && w.peak > w.quota {
		failures = append(failures, fmt.Sprintf("chunk cache peak %d bytes exceeds the quota of %d", w.peak, w.quota))
	}
	for _, e := range []struct {
		box  int
		pred string
	}{
		{w.prog.temperature, temperaturePred(initialTemperature)},
		{w.prog.latitude, latitudePred(initialLatitude)},
	} {
		if err := w.prog.env.SetParams(e.box, dataflow.Params{"pred": e.pred}); err != nil {
			return append(failures, fmt.Sprintf("restoring the initial bounds: %v", err))
		}
	}
	if _, err := w.prog.v.RenderInto(w.img); err != nil {
		return append(failures, fmt.Sprintf("final frame: %v", err))
	}
	resident := w.db
	if w.spill {
		z := w.cfg.sizes
		d, err := core.SeedDatabase(z.editStations, editObsPerStation, w.cfg.seed)
		if err != nil {
			return append(failures, fmt.Sprintf("reseeding: %v", err))
		}
		resident = d
	}
	cold, err := buildEditProgram(resident, initialTemperature, initialLatitude, w.cfg.sizes.frameW, w.cfg.sizes.frameH)
	if err != nil {
		return append(failures, fmt.Sprintf("cold program: %v", err))
	}
	img := raster.NewImage(w.cfg.sizes.frameW, w.cfg.sizes.frameH)
	if _, err := cold.v.RenderInto(img); err != nil {
		return append(failures, fmt.Sprintf("cold render: %v", err))
	}
	want, err := encodePNG(w.tr, info, img)
	if err != nil {
		return append(failures, err.Error())
	}
	got, err := encodePNG(w.tr, info, w.img)
	if err != nil {
		return append(failures, err.Error())
	}
	if !bytes.Equal(got, want) {
		failures = append(failures, "final frame differs from a cold environment at the initial bounds")
	}
	return failures
}

func (w *editWorkload) close() {
	if w.spill {
		rel.SetMemoryQuota(rel.DefaultMemoryQuota)
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
