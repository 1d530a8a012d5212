// Command tioga-render renders a saved Tioga-2 program headlessly: it
// loads a database directory (written by the shell's savedb command),
// loads a named program from it, attaches a viewer to the requested box
// output, and writes the canvas as PNG, PPM, or ASCII.
//
// Usage:
//
//	tioga-render -db dir -program name [-box id] [-port 0]
//	             [-o out.png] [-w 640] [-h 480]
//	             [-x cx] [-y cy] [-elev e] [-ascii]
//	             [-trace trace.json] [-stats]
//
// Without -box, the input edge of the program's first viewer box (or the
// output of its last sink) is rendered.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/viewer"
)

func main() {
	dbPath := flag.String("db", "", "database directory written by savedb (required)")
	program := flag.String("program", "", "saved program name (required)")
	boxID := flag.Int("box", 0, "box whose output to view (default: first viewer's input)")
	port := flag.Int("port", 0, "output port of -box")
	out := flag.String("o", "canvas.png", "output file (.png or .ppm)")
	w := flag.Int("w", 640, "canvas width")
	h := flag.Int("h", 480, "canvas height")
	cx := flag.Float64("x", 0, "pan center x")
	cy := flag.Float64("y", 0, "pan center y")
	elev := flag.Float64("elev", 100, "elevation")
	ascii := flag.Bool("ascii", false, "print ASCII to stdout instead of writing a file")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the render to this file")
	stats := flag.Bool("stats", false, "print an obs metrics snapshot (JSON) to stderr after rendering")
	telemetry := flag.String("telemetry", "", "serve /snapshot, /metrics, /trace, and pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *tracePath != "" || *stats {
		obs.SetEnabled(true)
	}
	if *telemetry != "" {
		obs.SetEnabled(true)
		srv, terr := export.Start(*telemetry)
		if terr != nil {
			fmt.Fprintln(os.Stderr, "tioga-render:", terr)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry -> http://%s/\n", srv.Addr)
	}
	if *tracePath != "" {
		obs.StartTracing()
	}
	err := run(*dbPath, *program, *boxID, *port, *out, *w, *h, *cx, *cy, *elev, *ascii)
	if *tracePath != "" {
		obs.StopTracing()
		if werr := obs.WriteTraceFile(*tracePath); werr != nil && err == nil {
			err = werr
		} else if werr == nil {
			fmt.Fprintf(os.Stderr, "trace -> %s (load in chrome://tracing or ui.perfetto.dev)\n", *tracePath)
		}
	}
	if *stats {
		if data, jerr := obs.SnapshotJSON(); jerr == nil {
			fmt.Fprintln(os.Stderr, string(data))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tioga-render:", err)
		os.Exit(1)
	}
}

func run(dbPath, program string, boxID, port int, out string, w, h int, cx, cy, elev float64, ascii bool) error {
	if dbPath == "" || program == "" {
		return fmt.Errorf("-db and -program are required")
	}
	database, err := db.LoadDir(dbPath)
	if err != nil {
		return err
	}
	data, err := database.LoadProgram(program)
	if err != nil {
		return err
	}
	g, err := dataflow.Unmarshal(dataflow.NewRegistry(), data)
	if err != nil {
		return err
	}
	ev := dataflow.NewEvaluator(g, database)

	// Resolve the viewing target.
	var src viewer.Source
	if boxID != 0 {
		src = viewer.BoxSource{Eval: ev, BoxID: boxID, Port: port, Output: true}
	} else {
		target := 0
		for _, b := range g.Boxes() {
			if b.Kind == "viewer" {
				target = b.ID
				break
			}
		}
		if target == 0 {
			sinks := g.Sinks()
			if len(sinks) == 0 {
				return fmt.Errorf("program has no sink to view")
			}
			src = viewer.BoxSource{Eval: ev, BoxID: sinks[len(sinks)-1].ID, Port: 0, Output: true}
		} else {
			src = viewer.BoxSource{Eval: ev, BoxID: target, Port: 0}
		}
	}

	v := viewer.New(program, src, w, h)
	if err := v.PanTo(0, cx, cy); err != nil {
		return err
	}
	if err := v.SetElevation(0, elev); err != nil {
		return err
	}
	img, stats, err := v.Render()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rendered: %d tuples seen, %d culled, %d displays, %d drawables\n",
		stats.TuplesSeen, stats.TuplesCulled, stats.DisplaysEvaled, stats.DrawablesDrawn)

	if ascii {
		fmt.Print(img.ASCII(100))
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(out, ".ppm") {
		if err := img.WritePPM(f); err != nil {
			return err
		}
	} else {
		if err := img.WritePNG(f); err != nil {
			return err
		}
	}
	return f.Close()
}
