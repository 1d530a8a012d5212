package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/display"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/viewer"
)

// shell interprets one command per line against an environment. It is the
// textual encoding of the paper's direct-manipulation surface: every
// command corresponds to a menu operation or a canvas gesture.
type shell struct {
	env *core.Environment
	out io.Writer
	nav *viewer.Navigator

	tracePath string // where "trace off" writes the collected trace
}

func newShell(env *core.Environment, out io.Writer) *shell {
	// The shell is an interactive introspection surface, so metric
	// recording is on by default; tracing stays off until "trace on".
	obs.SetEnabled(true)
	return &shell{env: env, out: out}
}

func (s *shell) printf(format string, args ...interface{}) {
	fmt.Fprintf(s.out, format, args...)
}

// Execute runs one command line, returning true to quit.
func (s *shell) Execute(line string) bool {
	fieldsQ := splitQuoted(line)
	if len(fieldsQ) == 0 {
		return false
	}
	cmd, args := fieldsQ[0], fieldsQ[1:]
	if cmd == "quit" || cmd == "exit" {
		return true
	}
	if err := s.dispatch(cmd, args); err != nil {
		s.printf("error: %v\n", err)
	}
	return false
}

// splitQuoted splits on spaces, honoring single quotes, so predicates
// like 'state = ”LA”' survive as one argument.
func splitQuoted(line string) []string {
	var out []string
	var cur strings.Builder
	inQ := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '\'':
			inQ = !inQ
			cur.WriteByte(c)
		case c == ' ' && !inQ:
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteByte(c)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// parseParams turns key=value arguments into Params; quoted values lose
// their outer quotes.
func parseParams(args []string) dataflow.Params {
	p := dataflow.Params{}
	for _, a := range args {
		if eq := strings.IndexByte(a, '='); eq > 0 {
			v := a[eq+1:]
			if len(v) >= 2 && v[0] == '\'' && v[len(v)-1] == '\'' {
				v = v[1 : len(v)-1]
			}
			p[a[:eq]] = v
		}
	}
	return p
}

// parseRef parses "box.port" (port defaults to 0).
func parseRef(s string) (box, port int, err error) {
	parts := strings.SplitN(s, ".", 2)
	box, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("bad box reference %q", s)
	}
	if len(parts) == 2 {
		port, err = strconv.Atoi(parts[1])
		if err != nil {
			return 0, 0, fmt.Errorf("bad port in %q", s)
		}
	}
	return box, port, nil
}

func (s *shell) dispatch(cmd string, args []string) error {
	switch cmd {
	case "help":
		s.help()
		return nil
	case "tables":
		for _, n := range s.env.Tables() {
			t, err := s.env.DB.Table(n)
			if err != nil {
				return err
			}
			s.printf("  %s %s [%d tuples]\n", n, t.Schema(), t.Len())
		}
		return nil
	case "boxes":
		kinds := s.env.BoxKinds()
		sort.Strings(kinds)
		for _, k := range kinds {
			kind, err := s.env.Registry.Kind(k)
			if err != nil {
				continue
			}
			s.printf("  %-16s %s\n", k, kind.Doc)
		}
		return nil
	case "programs":
		for _, n := range s.env.DB.ProgramNames() {
			s.printf("  %s\n", n)
		}
		for _, n := range s.env.DB.DefNames() {
			s.printf("  %s (encapsulated box)\n", n)
		}
		return nil
	case "show":
		return s.show()
	case "check":
		return s.check()
	case "add":
		return s.add(args)
	case "connect":
		return s.connect(args)
	case "disconnect":
		if len(args) != 1 {
			return fmt.Errorf("usage: disconnect <box>.<inport>")
		}
		b, p, err := parseRef(args[0])
		if err != nil {
			return err
		}
		return s.env.Disconnect(b, p)
	case "delete":
		if len(args) != 1 {
			return fmt.Errorf("usage: delete <box>")
		}
		id, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		return s.env.DeleteBox(id)
	case "replace":
		if len(args) < 2 {
			return fmt.Errorf("usage: replace <box> <kind> [k=v ...]")
		}
		id, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		_, err = s.env.ReplaceBox(id, args[1], parseParams(args[2:]))
		return err
	case "params":
		if len(args) < 2 {
			return fmt.Errorf("usage: params <box> k=v ...")
		}
		id, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		b, err := s.env.Program.Box(id)
		if err != nil {
			return err
		}
		np := b.Params.Clone()
		for k, v := range parseParams(args[1:]) {
			np[k] = v
		}
		return s.env.SetParams(id, np)
	case "t":
		if len(args) != 1 {
			return fmt.Errorf("usage: t <box>.<inport>")
		}
		b, p, err := parseRef(args[0])
		if err != nil {
			return err
		}
		tb, err := s.env.InsertT(b, p)
		if err != nil {
			return err
		}
		s.printf("T box [%d]; output 1 is free\n", tb.ID)
		return nil
	case "apply":
		return s.apply(args)
	case "applysel":
		// Apply an R->R operation to a selected relation inside the
		// composite/group on an edge (the Section 2 prompt).
		if len(args) < 4 {
			return fmt.Errorf("usage: applysel <from>.<port> <kind> <member> <layer> [k=v ...]")
		}
		fb, fp, err := parseRef(args[0])
		if err != nil {
			return err
		}
		member, err := strconv.Atoi(args[2])
		if err != nil {
			return fmt.Errorf("bad member %q", args[2])
		}
		layer, err := strconv.Atoi(args[3])
		if err != nil {
			return fmt.Errorf("bad layer %q", args[3])
		}
		b, err := s.env.ApplyToSelection(fb, fp, args[1], parseParams(args[4:]), member, layer)
		if err != nil {
			return err
		}
		s.printf("box [%d] %s applied to member %d layer %d\n", b.ID, b.Kind, member, layer)
		return nil
	case "viewer":
		return s.viewer(args)
	case "render":
		return s.render(args)
	case "ascii":
		return s.ascii(args)
	case "pan", "panto", "elev", "zoom", "slider":
		return s.navigate(cmd, args)
	case "elevmap":
		return s.elevmap(args)
	case "descend":
		return s.descend(args)
	case "back":
		if s.nav == nil {
			return fmt.Errorf("no navigation yet")
		}
		if err := s.nav.GoBack(); err != nil {
			return err
		}
		cur, _ := s.nav.Current()
		s.printf("back on %s\n", cur.Name)
		return nil
	case "mirror":
		return s.mirror(args)
	case "hits":
		return s.hits(args)
	case "update":
		return s.update(args)
	case "save":
		if len(args) != 1 {
			return fmt.Errorf("usage: save <program>")
		}
		return s.env.SaveProgram(args[0])
	case "load":
		if len(args) != 1 {
			return fmt.Errorf("usage: load <program>")
		}
		_, err := s.env.LoadProgram(args[0])
		return err
	case "addprog":
		if len(args) != 1 {
			return fmt.Errorf("usage: addprog <program>")
		}
		_, err := s.env.AddProgram(args[0])
		return err
	case "new":
		return s.env.NewProgram()
	case "encapsulate":
		return s.encapsulate(args)
	case "instantiate":
		return s.instantiate(args)
	case "undo":
		return s.env.Undo()
	case "savedb":
		if len(args) != 1 {
			return fmt.Errorf("usage: savedb <file>")
		}
		return s.env.DB.SaveFile(args[0])
	case "savesession":
		if len(args) != 1 {
			return fmt.Errorf("usage: savesession <name>")
		}
		return s.env.SaveSession(args[0])
	case "loadsession":
		if len(args) != 1 {
			return fmt.Errorf("usage: loadsession <name>")
		}
		if err := s.env.LoadSession(args[0]); err != nil {
			return err
		}
		s.nav = s.env.Nav
		return nil
	case "magnify":
		return s.magnify(args)
	case "progpng":
		if len(args) != 1 {
			return fmt.Errorf("usage: progpng <file.png>")
		}
		img, err := s.env.RenderProgram()
		if err != nil {
			return err
		}
		f, err := os.Create(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		if err := img.WritePNG(f); err != nil {
			return err
		}
		s.printf("program window -> %s\n", args[0])
		return f.Close()
	case "figures":
		return s.figures()
	case "eval":
		return s.evalCmd(args)
	case "stats":
		return s.stats()
	case "trace":
		return s.trace(args)
	case "flight":
		return s.flight(args)
	case "histo":
		return s.histo(args)
	}
	return fmt.Errorf("unknown command %q (try help)", cmd)
}

// magnify creates a magnifying glass over a canvas: a zoomed clone of the
// viewer slaved into a screen rectangle (Section 7.2).
func (s *shell) magnify(args []string) error {
	if len(args) != 6 {
		return fmt.Errorf("usage: magnify <canvas> <x0> <y0> <x1> <y1> <factor>")
	}
	v, err := s.env.Canvas(args[0])
	if err != nil {
		return err
	}
	nums := make([]float64, 5)
	for i, a := range args[1:] {
		if nums[i], err = strconv.ParseFloat(a, 64); err != nil {
			return fmt.Errorf("bad number %q", a)
		}
	}
	rect := geom.R(nums[0], nums[1], nums[2], nums[3])
	if _, err := v.Magnify(args[0]+"-lens", rect, nums[4]); err != nil {
		return err
	}
	s.printf("magnifier at %s with factor %gx (slaved)\n", rect, nums[4])
	return nil
}

func (s *shell) help() {
	s.printf(`program window (Figure 2):
  show                         list boxes and edges
  add table name=T             Add Table
  add <kind> k=v ...           add any box (see: boxes)
  connect a.p b.q              wire output a.p to input b.q
  disconnect b.q | delete b    remove edge / box (legality rules apply)
  replace b <kind> k=v        Replace Box
  params b k=v ...             edit box parameters (re-renders lazily)
  t b.q                        insert a T box on the edge into b.q
  apply R [C G ...]            Apply Box menu for selected edge types
  applysel a.p kind m l k=v    apply an R op to relation (m,l) of a C/G edge
  encapsulate name b1,b2 [hole=b3,b4]   define a new box (with holes)
  instantiate name [kind:k=v ...]       expand it, plugging hole fillers
  check                        static checker: every diagnostic, coded and located
  new | save name | load name | addprog name | undo

canvases (Sections 2, 5-7):
  viewer canvas b.p [w h]      attach a viewer (any edge is viewable)
  render canvas [file.png]     render to PNG (default canvas.png)
  ascii canvas [cols]          terminal rendering
  pan canvas [m] dx dy | panto canvas [m] x y
  elev canvas [m] e | zoom canvas [m] factor
  slider canvas [m] d lo hi    slider dimension range
  elevmap canvas [m]           show the elevation map
  descend e | back | mirror [file.png]   wormhole navigation
  hits canvas                  screen objects from the last render
  update canvas x y col value  Section 8 update at a screen position

database:
  magnify canvas x0 y0 x1 y1 f magnifying glass: zoomed slaved clone

database and sessions:
  tables | boxes | programs | savedb file | figures | quit
  savesession name | loadsession name   canvases + positions + program

observability:
  eval b.p [serial|workers N] [timeout D]   demand a box output, show work profile
  stats                        counters, render cache hit rates, latency, errors
  trace on [file] | trace off  collect spans; off writes Chrome JSON
  flight [file.json]           flight recorder: last spans, or dump Chrome JSON
  flight budget <dur|off>      arm slow-frame watchdog on every canvas
  histo <metric>               ASCII latency histogram (e.g. render.frame_ns)
`)
}

// check runs the static program checker (internal/check) over the
// current program and prints every diagnostic — the same analysis
// tioga-vet applies to serialized programs, aimed at the program being
// edited.
func (s *shell) check() error {
	diags := check.Program(s.env.Program)
	if len(diags) == 0 {
		s.printf("ok: no diagnostics\n")
		return nil
	}
	errs := 0
	for _, d := range diags {
		if d.Severity == check.Error {
			errs++
		}
		s.printf("  %s\n", d)
	}
	s.printf("%d diagnostic(s), %d error(s)\n", len(diags), errs)
	return nil
}

func (s *shell) show() error {
	for _, b := range s.env.Program.Boxes() {
		ports := ""
		if len(b.In) > 0 || len(b.Out) > 0 {
			ins := make([]string, len(b.In))
			for i, p := range b.In {
				ins[i] = p.String()
			}
			outs := make([]string, len(b.Out))
			for i, p := range b.Out {
				outs[i] = p.String()
			}
			ports = fmt.Sprintf(" (%s -> %s)", strings.Join(ins, ","), strings.Join(outs, ","))
		}
		s.printf("  [%d] %-14s %s%s\n", b.ID, b.Kind, b.Params, ports)
	}
	for _, e := range s.env.Program.Edges() {
		s.printf("  edge %s\n", e)
	}
	for _, c := range s.env.CanvasNames() {
		s.printf("  canvas %s\n", c)
	}
	return nil
}

func (s *shell) add(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: add <kind> [k=v ...]")
	}
	b, err := s.env.AddBox(args[0], parseParams(args[1:]))
	if err != nil {
		return err
	}
	s.printf("box [%d] %s\n", b.ID, b.Kind)
	return nil
}

func (s *shell) connect(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: connect <from>.<port> <to>.<port>")
	}
	fb, fp, err := parseRef(args[0])
	if err != nil {
		return err
	}
	tb, tp, err := parseRef(args[1])
	if err != nil {
		return err
	}
	return s.env.Connect(fb, fp, tb, tp)
}

func (s *shell) apply(args []string) error {
	var sel []dataflow.PortType
	for _, a := range args {
		switch a {
		case "R":
			sel = append(sel, dataflow.RType)
		case "C":
			sel = append(sel, dataflow.CType)
		case "G":
			sel = append(sel, dataflow.GType)
		default:
			return fmt.Errorf("unknown edge type %q (want R, C, or G)", a)
		}
	}
	for _, k := range s.env.ApplyBox(sel) {
		s.printf("  %s\n", k)
	}
	return nil
}

func (s *shell) viewer(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: viewer <canvas> <box>.<port> [w h]")
	}
	b, p, err := parseRef(args[1])
	if err != nil {
		return err
	}
	w, h := 640, 480
	if len(args) >= 4 {
		if w, err = strconv.Atoi(args[2]); err != nil {
			return err
		}
		if h, err = strconv.Atoi(args[3]); err != nil {
			return err
		}
	}
	if _, err := s.env.AddViewer(args[0], b, p, w, h); err != nil {
		return err
	}
	if s.nav == nil {
		s.nav = s.env.Nav
	}
	s.printf("canvas %q attached to box %d output %d\n", args[0], b, p)
	return nil
}

func (s *shell) render(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: render <canvas> [file.png]")
	}
	v, err := s.env.Canvas(args[0])
	if err != nil {
		return err
	}
	img, stats, err := v.Render()
	if err != nil {
		return err
	}
	path := args[0] + ".png"
	if len(args) >= 2 {
		path = args[1]
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := img.WritePNG(f); err != nil {
		return err
	}
	s.printf("%s: %d displays, %d drawables, %d culled -> %s\n",
		args[0], stats.DisplaysEvaled, stats.DrawablesDrawn, stats.TuplesCulled, path)
	return f.Close()
}

func (s *shell) ascii(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: ascii <canvas> [cols]")
	}
	v, err := s.env.Canvas(args[0])
	if err != nil {
		return err
	}
	cols := 100
	if len(args) >= 2 {
		if cols, err = strconv.Atoi(args[1]); err != nil {
			return err
		}
	}
	img, _, err := v.Render()
	if err != nil {
		return err
	}
	s.printf("%s", img.ASCII(cols))
	return nil
}

// navigate parses "cmd canvas [member] nums..." and applies the motion.
func (s *shell) navigate(cmd string, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: %s <canvas> [member] <numbers...>", cmd)
	}
	v, err := s.env.Canvas(args[0])
	if err != nil {
		return err
	}
	rest := args[1:]
	member := 0
	// A leading integer that leaves enough numbers behind is a member
	// index.
	need := map[string]int{"pan": 2, "panto": 2, "elev": 1, "zoom": 1, "slider": 3}[cmd]
	if len(rest) > need {
		if m, err := strconv.Atoi(rest[0]); err == nil {
			member = m
			rest = rest[1:]
		}
	}
	nums := make([]float64, len(rest))
	for i, r := range rest {
		if nums[i], err = strconv.ParseFloat(r, 64); err != nil {
			return fmt.Errorf("bad number %q", r)
		}
	}
	switch cmd {
	case "pan":
		return v.Pan(member, nums[0], nums[1])
	case "panto":
		return v.PanTo(member, nums[0], nums[1])
	case "elev":
		return v.SetElevation(member, nums[0])
	case "zoom":
		return v.Zoom(member, nums[0])
	case "slider":
		return v.SetSlider(member, int(nums[0]), nums[1], nums[2])
	}
	return nil
}

func (s *shell) elevmap(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: elevmap <canvas> [member]")
	}
	v, err := s.env.Canvas(args[0])
	if err != nil {
		return err
	}
	member := 0
	if len(args) >= 2 {
		if member, err = strconv.Atoi(args[1]); err != nil {
			return err
		}
	}
	em, err := v.ElevationMap(member)
	if err != nil {
		return err
	}
	for i, e := range em {
		s.printf("  layer %d (drawn %d): %-28s %s\n", i, e.Order, e.Label, e.Range)
	}
	return nil
}

func (s *shell) descend(args []string) error {
	if s.nav == nil {
		s.nav = s.env.Nav
	}
	if s.nav == nil {
		return fmt.Errorf("no canvases yet")
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: descend <elevation>")
	}
	e, err := strconv.ParseFloat(args[0], 64)
	if err != nil {
		return err
	}
	passed, err := s.nav.Descend(e)
	if err != nil {
		return err
	}
	cur, _ := s.nav.Current()
	if passed {
		s.printf("passed through a wormhole; now on %s\n", cur.Name)
	} else {
		s.printf("on %s\n", cur.Name)
	}
	return nil
}

func (s *shell) mirror(args []string) error {
	if s.nav == nil {
		return fmt.Errorf("no navigation yet")
	}
	img, err := s.nav.RenderMirror(320, 240)
	if err != nil {
		return err
	}
	if img == nil {
		s.printf("no travel history; the mirror is empty\n")
		return nil
	}
	if len(args) >= 1 {
		f, err := os.Create(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		if err := img.WritePNG(f); err != nil {
			return err
		}
		s.printf("mirror -> %s\n", args[0])
		return f.Close()
	}
	s.printf("%s", img.ASCII(80))
	return nil
}

func (s *shell) hits(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: hits <canvas>")
	}
	v, err := s.env.Canvas(args[0])
	if err != nil {
		return err
	}
	hits := v.Hits()
	if len(hits) == 0 {
		s.printf("no hits; render first\n")
		return nil
	}
	for i, h := range hits {
		if i >= 20 {
			s.printf("  ... %d more\n", len(hits)-20)
			break
		}
		kind := "tuple"
		if h.Wormhole != nil {
			kind = "wormhole -> " + h.Wormhole.DestCanvas
		}
		s.printf("  %s row %d of %s at %s\n", kind, h.Row, h.Ext.Label, h.Screen)
	}
	return nil
}

func (s *shell) update(args []string) error {
	if len(args) != 5 {
		return fmt.Errorf("usage: update <canvas> <x> <y> <column> <value>")
	}
	x, err := strconv.ParseFloat(args[1], 64)
	if err != nil {
		return err
	}
	y, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return err
	}
	val := strings.Trim(args[4], "'")
	return s.env.UpdateAt(args[0], x, y, args[3], val)
}

func (s *shell) encapsulate(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: encapsulate <name> <box,box,...> [hole=box,box]")
	}
	region, err := parseIntList(args[1])
	if err != nil {
		return err
	}
	var holes [][]int
	for _, a := range args[2:] {
		if rest, ok := strings.CutPrefix(a, "hole="); ok {
			h, err := parseIntList(rest)
			if err != nil {
				return err
			}
			holes = append(holes, h)
		}
	}
	def, err := s.env.Encapsulate(args[0], region, holes)
	if err != nil {
		return err
	}
	s.printf("encapsulated %q: %d boxes, %d inputs, %d outputs, %d holes\n",
		def.Name, len(def.Boxes), len(def.Inputs), len(def.Outputs), len(def.Holes))
	return nil
}

func (s *shell) instantiate(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: instantiate <name> [kind:k=v,k=v ...]")
	}
	var fillers []dataflow.Filler
	for _, a := range args[1:] {
		parts := strings.SplitN(a, ":", 2)
		f := dataflow.Filler{Kind: parts[0], Params: dataflow.Params{}}
		if len(parts) == 2 {
			for _, kv := range strings.Split(parts[1], ",") {
				if eq := strings.IndexByte(kv, '='); eq > 0 {
					f.Params[kv[:eq]] = strings.Trim(kv[eq+1:], "'")
				}
			}
		}
		fillers = append(fillers, f)
	}
	inst, err := s.env.AddEncapsulated(args[0], fillers)
	if err != nil {
		return err
	}
	s.printf("instantiated: boxes %v; inputs %v; outputs %v\n", inst.BoxIDs, inst.Inputs, inst.Outputs)
	return nil
}

func (s *shell) figures() error {
	builders := []struct {
		name  string
		build func(*core.Environment) (string, error)
	}{
		{"figure1", core.Figure1},
		{"figure4", core.Figure4},
		{"figure7", core.Figure7},
		{"figure10", core.Figure10},
		{"figure11", core.Figure11},
	}
	for _, b := range builders {
		canvas, err := b.build(s.env)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		s.printf("%s -> canvas %q\n", b.name, canvas)
	}
	if mapC, destC, nav, err := core.Figure8(s.env); err == nil {
		s.nav = nav
		s.printf("figure8 -> canvases %q and %q (use descend/back/mirror)\n", mapC, destC)
	} else {
		return fmt.Errorf("figure8: %w", err)
	}
	if canvas, _, err := core.Figure9(s.env); err == nil {
		s.printf("figure9 -> canvas %q\n", canvas)
	} else {
		return fmt.Errorf("figure9: %w", err)
	}
	return nil
}

// evalCmd demands a box output through the cancellable Eval API and
// prints the value summary plus the request's work profile.
func (s *shell) evalCmd(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: eval <box>.<port> [serial | workers N] [timeout D]")
	}
	b, p, err := parseRef(args[0])
	if err != nil {
		return err
	}
	opts := []dataflow.EvalOption{dataflow.WithLabel("shell")}
	var timeout time.Duration
	for i := 1; i < len(args); i++ {
		switch args[i] {
		case "serial":
			opts = append(opts, dataflow.WithWorkers(1))
		case "workers":
			if i+1 >= len(args) {
				return fmt.Errorf("workers needs a count")
			}
			n, err := strconv.Atoi(args[i+1])
			if err != nil {
				return fmt.Errorf("bad worker count %q", args[i+1])
			}
			opts = append(opts, dataflow.WithWorkers(n))
			i++
		case "timeout":
			if i+1 >= len(args) {
				return fmt.Errorf("timeout needs a duration (e.g. 500ms)")
			}
			d, err := time.ParseDuration(args[i+1])
			if err != nil {
				return fmt.Errorf("bad timeout %q", args[i+1])
			}
			timeout = d
			i++
		default:
			return fmt.Errorf("unknown eval option %q (want serial, workers N, or timeout D)", args[i])
		}
	}
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()
	start := time.Now()
	res, err := s.env.EvalOutput(ctx, b, p, opts...)
	elapsed := time.Since(start)
	if err != nil {
		var de *dataflow.Error
		if errors.As(err, &de) {
			return fmt.Errorf("box %d (%s) failed during %s: %w", de.Box, de.Kind, de.Op, de.Err)
		}
		return err
	}
	s.printf("box %d.%d -> %s in %s\n", b, p, describeValue(res.Value), elapsed.Round(time.Microsecond))
	s.printf("  fires %d, cache hits %d, coalesced %d, waves %d\n",
		res.Fires, res.CacheHits, res.Coalesced, res.Waves)
	return nil
}

// describeValue summarizes a demanded value for eval output.
func describeValue(v dataflow.Value) string {
	switch d := v.(type) {
	case *display.Extended:
		return fmt.Sprintf("R %q (%d tuples)", d.Label, d.Rel.Len())
	case *display.Composite:
		return fmt.Sprintf("C (%d layers)", len(d.Layers))
	case *display.Group:
		return fmt.Sprintf("G (%d members)", len(d.Members))
	default:
		return fmt.Sprintf("%v", v)
	}
}

// stats prints every nonzero counter, latency summary, and sampled
// error from the process-wide obs registry, plus each canvas's render
// cache counters. The cache counters live on the viewers themselves, so
// they are available even when obs instrumentation is disabled.
func (s *shell) stats() error {
	for _, name := range s.env.CanvasNames() {
		v, err := s.env.Canvas(name)
		if err != nil {
			continue
		}
		s.printf("canvas %-10s %s\n", name, v.CacheStats())
	}
	s.printf("query engine: compile=%s scan_workers=%d\n",
		onOff(!rel.CompileDisabled()), rel.ScanWorkers())
	snap := obs.TakeSnapshot()
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 && len(s.env.CanvasNames()) == 0 {
		s.printf("no counters yet; run a command first\n")
	}
	for _, n := range names {
		s.printf("  %-28s %s\n", n, obs.FormatCount(snap.Counters[n]))
	}
	hnames := make([]string, 0, len(snap.Histograms))
	for n := range snap.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := snap.Histograms[n]
		s.printf("  %-28s count %s  p50 %s  p95 %s  p99 %s  max %s\n",
			n, obs.FormatCount(h.Count),
			formatNS(h.P50NS), formatNS(h.P95NS), formatNS(h.P99NS), formatNS(h.MaxNS))
	}
	enames := make([]string, 0, len(snap.Errors))
	for n := range snap.Errors {
		enames = append(enames, n)
	}
	sort.Strings(enames)
	for _, n := range enames {
		s.printf("  %s: %d error(s), first distinct:\n", n, snap.Counters[n])
		for _, msg := range snap.Errors[n] {
			s.printf("    %s\n", msg)
		}
	}
	return nil
}

// onOff renders a boolean knob state.
func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

// formatNS renders a nanosecond latency with a human unit.
func formatNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// trace starts/stops span collection; "trace off" writes the Chrome
// trace-event JSON to the path given at "trace on" (default trace.json).
func (s *shell) trace(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: trace on [file.json] | trace off")
	}
	switch args[0] {
	case "on":
		s.tracePath = "trace.json"
		if len(args) >= 2 {
			s.tracePath = args[1]
		}
		obs.StartTracing()
		s.printf("tracing on; \"trace off\" writes %s\n", s.tracePath)
		return nil
	case "off":
		if !obs.Tracing() {
			return fmt.Errorf("tracing is not on")
		}
		obs.StopTracing()
		path := s.tracePath
		if path == "" {
			path = "trace.json"
		}
		if err := obs.WriteTraceFile(path); err != nil {
			return err
		}
		s.printf("trace -> %s (load in chrome://tracing or ui.perfetto.dev)\n", path)
		return nil
	}
	return fmt.Errorf("usage: trace on [file.json] | trace off")
}

// flight inspects the always-on flight recorder. With no arguments it
// prints the buffer occupancy, the causal span tree of the most recent
// trace, and any slow frames the watchdog captured; with a filename it
// dumps the whole buffer as Chrome trace-event JSON; "flight budget
// <dur>" arms the slow-frame watchdog on every canvas ("off" disarms).
func (s *shell) flight(args []string) error {
	if len(args) >= 1 && args[0] == "budget" {
		if len(args) != 2 {
			return fmt.Errorf("usage: flight budget <duration|off>")
		}
		var budget time.Duration
		if args[1] != "off" {
			d, err := time.ParseDuration(args[1])
			if err != nil || d <= 0 {
				return fmt.Errorf("flight budget: bad duration %q (try 16ms)", args[1])
			}
			budget = d
		}
		for _, name := range s.env.CanvasNames() {
			if v, err := s.env.Canvas(name); err == nil {
				v.FrameBudget = budget
			}
		}
		if budget == 0 {
			s.printf("slow-frame watchdog off\n")
		} else {
			s.printf("slow-frame watchdog armed: frames over %v keep their span tree (see flight)\n", budget)
		}
		return nil
	}
	if len(args) > 1 {
		return fmt.Errorf("usage: flight [file.json] | flight budget <duration|off>")
	}
	events := obs.DumpFlight()
	if len(args) == 1 {
		if err := obs.WriteFlightFile(args[0], events); err != nil {
			return err
		}
		s.printf("flight (%d spans) -> %s (load in chrome://tracing or ui.perfetto.dev)\n", len(events), args[0])
		return nil
	}
	s.printf("flight recorder: %d spans buffered (capacity %d)\n", len(events), obs.DefaultFlight().Capacity())
	var last uint64 // events arrive oldest-first, so the final id is newest
	for _, ev := range events {
		if ev.TraceID != 0 {
			last = ev.TraceID
		}
	}
	if last != 0 {
		span := obs.FilterTrace(events, last)
		label := ""
		for _, ev := range span {
			if ev.Label != "" {
				label = " (" + ev.Label + ")"
				break
			}
		}
		s.printf("most recent trace %d%s, %d spans:\n%s", last, label, len(span),
			obs.FormatSpanTree(obs.BuildSpanTree(events, last)))
	}
	for _, name := range s.env.CanvasNames() {
		v, err := s.env.Canvas(name)
		if err != nil {
			continue
		}
		for _, sf := range v.SlowFrames() {
			s.printf("slow frame on %s: frame %d took %v (trace %d, %d spans)\n",
				name, sf.Frame, sf.Elapsed, sf.TraceID, len(sf.Spans))
		}
	}
	return nil
}

// histo prints one latency histogram as ASCII bars.
func (s *shell) histo(args []string) error {
	if len(args) != 1 {
		names := obs.HistogramNames()
		sort.Strings(names)
		if len(names) == 0 {
			return fmt.Errorf("usage: histo <metric> (no histograms recorded yet)")
		}
		return fmt.Errorf("usage: histo <metric>; recorded: %s", strings.Join(names, ", "))
	}
	h, ok := obs.LookupHistogram(args[0])
	if !ok {
		return fmt.Errorf("no histogram %q (try: stats)", args[0])
	}
	s.printf("%s", h.Render())
	return nil
}

// parseIntList parses "1,2,3" into ints.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad box id %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
