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
	"text/tabwriter"
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
	fields := splitQuoted(line)
	if len(fields) == 0 {
		return false
	}
	c := lookup(fields[0])
	if c == nil {
		s.printf("error: unknown command %q (try help)\n", fields[0])
		return false
	}
	if c.run == nil {
		return true
	}
	args := fields[1:]
	var err error
	if len(args) < c.minArgs || (c.maxArgs > 0 && len(args) > c.maxArgs) {
		err = usageError{}
	} else {
		err = c.run(s, args)
	}
	var ue usageError
	if errors.As(err, &ue) {
		err = fmt.Errorf("usage: %s%s", c.usage(), ue.hint)
	}
	if err != nil {
		s.printf("error: %v\n", err)
	}
	return false
}

// command is one row of the shell's command table. Help and every usage
// error are generated from the table, so a command's syntax is written
// once.
type command struct {
	name    string
	section string // the help heading it is listed under
	args    string // argument syntax, as help and usage errors print it
	doc     string
	minArgs int
	maxArgs int                                 // 0: no limit
	run     func(s *shell, args []string) error // nil quits the shell
}

// usage is the command's name followed by its argument syntax.
func (c *command) usage() string { return strings.TrimSpace(c.name + " " + c.args) }

// usageError reports a malformed command line. Execute prints it as the
// command's usage from the table, followed by hint.
type usageError struct{ hint string }

func (e usageError) Error() string { return "usage" + e.hint }

// Help sections.
const (
	secProgram  = "program window (Figure 2)"
	secCanvas   = "canvases (Sections 2, 5-7)"
	secDatabase = "database and sessions"
	secObs      = "observability"
)

// commands is the command table, in help order. init fills it because
// the help handler reads it.
var commands []command

func init() {
	commands = []command{
		{"show", secProgram, "", "list boxes, edges and canvases", 0, 0, (*shell).show},
		{"add", secProgram, "<kind> [k=v ...]", "add any box (see boxes); add table name=T is Add Table", 1, 0, (*shell).add},
		{"connect", secProgram, "<from>.<port> <to>.<port>", "wire an output to an input", 2, 2, (*shell).connect},
		{"disconnect", secProgram, "<box>.<inport>", "remove the edge into an input (legality rules apply)", 1, 1, (*shell).disconnect},
		{"delete", secProgram, "<box>", "remove a box (legality rules apply)", 1, 1, (*shell).deleteBox},
		{"replace", secProgram, "<box> <kind> [k=v ...]", "Replace Box", 2, 0, (*shell).replace},
		{"params", secProgram, "<box> k=v ...", "edit box parameters (re-renders lazily)", 2, 0, (*shell).params},
		{"t", secProgram, "<box>.<inport>", "insert a T box on the edge into an input", 1, 1, (*shell).insertT},
		{"apply", secProgram, "[R|C|G ...]", "Apply Box menu for the selected edge types", 0, 0, (*shell).apply},
		{"applysel", secProgram, "<from>.<port> <kind> <member> <layer> [k=v ...]", "apply an R op to one relation of a C/G edge", 4, 0, (*shell).applySel},
		{"encapsulate", secProgram, "<name> <box,box,...> [hole=box,box]", "define a new box (with holes)", 2, 0, (*shell).encapsulate},
		{"instantiate", secProgram, "<name> [kind:k=v,k=v ...]", "expand it, plugging hole fillers", 1, 0, (*shell).instantiate},
		{"check", secProgram, "", "static checker: every diagnostic, coded and located", 0, 0, (*shell).check},
		{"new", secProgram, "", "New Program: erase the program window", 0, 0, func(s *shell, _ []string) error { return s.env.NewProgram() }},
		{"save", secProgram, "<program>", "Save Program", 1, 1, func(s *shell, a []string) error { return s.env.SaveProgram(a[0]) }},
		{"load", secProgram, "<program>", "Load Program: New Program, then Add Program", 1, 1, (*shell).load},
		{"addprog", secProgram, "<program>", "Add Program: merge a saved program into this one", 1, 1, (*shell).addProgram},
		{"undo", secProgram, "", "reverse the last operation", 0, 0, func(s *shell, _ []string) error { return s.env.Undo() }},
		{"progpng", secProgram, "<file.png>", "render the program window", 1, 1, (*shell).progpng},

		{"viewer", secCanvas, "<canvas> <box>.<port> [w h]", "attach a viewer (any edge is viewable)", 2, 0, (*shell).viewer},
		{"render", secCanvas, "<canvas> [file.png]", "render to PNG (default <canvas>.png)", 1, 0, (*shell).render},
		{"ascii", secCanvas, "<canvas> [cols]", "terminal rendering", 1, 0, (*shell).ascii},
		{"pan", secCanvas, "<canvas> [member] <dx> <dy>", "move the view by an offset", 3, 0, motion(2, func(v *viewer.Viewer, m int, n []float64) error {
			return v.Pan(m, n[0], n[1])
		})},
		{"panto", secCanvas, "<canvas> [member] <x> <y>", "center the view on a point", 3, 0, motion(2, func(v *viewer.Viewer, m int, n []float64) error {
			return v.PanTo(m, n[0], n[1])
		})},
		{"elev", secCanvas, "<canvas> [member] <elevation>", "set the elevation", 2, 0, motion(1, func(v *viewer.Viewer, m int, n []float64) error {
			return v.SetElevation(m, n[0])
		})},
		{"zoom", secCanvas, "<canvas> [member] <factor>", "multiply the elevation", 2, 0, motion(1, func(v *viewer.Viewer, m int, n []float64) error {
			return v.Zoom(m, n[0])
		})},
		{"slider", secCanvas, "<canvas> [member] <dim> <lo> <hi>", "slider dimension range", 4, 0, motion(3, func(v *viewer.Viewer, m int, n []float64) error {
			return v.SetSlider(m, int(n[0]), n[1], n[2])
		})},
		{"elevmap", secCanvas, "<canvas> [member]", "show the elevation map", 1, 0, (*shell).elevmap},
		{"descend", secCanvas, "<elevation>", "wormhole navigation: descend toward the canvas", 1, 1, (*shell).descend},
		{"back", secCanvas, "", "go back through the last wormhole", 0, 0, (*shell).back},
		{"mirror", secCanvas, "[file.png]", "rear view mirror of the travel history", 0, 0, (*shell).mirror},
		{"hits", secCanvas, "<canvas>", "screen objects from the last render", 1, 1, (*shell).hits},
		{"update", secCanvas, "<canvas> <x> <y> <column> <value>", "Section 8 update at a screen position", 5, 5, (*shell).update},
		{"magnify", secCanvas, "<canvas> <x0> <y0> <x1> <y1> <factor>", "magnifying glass: zoomed slaved clone", 6, 6, (*shell).magnify},

		{"tables", secDatabase, "", "the menu of all tables", 0, 0, (*shell).tables},
		{"boxes", secDatabase, "", "the menu of all box kinds", 0, 0, (*shell).boxes},
		{"programs", secDatabase, "", "saved programs and encapsulated boxes", 0, 0, (*shell).programs},
		{"savedb", secDatabase, "<dir>", "save the database into a directory (tioga -db <dir> loads it)", 1, 1, (*shell).savedb},
		{"savesession", secDatabase, "<name>", "save canvases, positions and the program", 1, 1, func(s *shell, a []string) error { return s.env.SaveSession(a[0]) }},
		{"loadsession", secDatabase, "<name>", "restore a saved session", 1, 1, (*shell).loadSession},
		{"figures", secDatabase, "", "build the paper's figures", 0, 0, (*shell).figures},
		{"help", secDatabase, "", "this list", 0, 0, (*shell).help},
		{"quit", secDatabase, "", "leave the shell", 0, 0, nil},
		{"exit", secDatabase, "", "leave the shell", 0, 0, nil},

		{"eval", secObs, "<box>.<port> [serial | workers N] [timeout D]", "demand a box output, show work profile", 1, 0, (*shell).evalCmd},
		{"stats", secObs, "", "counters, render cache hit rates, latency, errors", 0, 0, (*shell).stats},
		{"trace", secObs, "on [file.json] | off", "collect spans; off writes Chrome JSON", 1, 0, (*shell).trace},
		{"flight", secObs, "[file.json] | budget <duration|off>", "flight recorder: last spans or a Chrome JSON dump; budget arms the slow-frame watchdog", 0, 0, (*shell).flight},
		{"histo", secObs, "<metric>", "ASCII latency histogram (e.g. render.frame_ns)", 0, 0, (*shell).histo},
	}
}

// lookup finds a command by name, or returns nil.
func lookup(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

// help prints the command table under its section headings.
func (s *shell) help(_ []string) error {
	tw := tabwriter.NewWriter(s.out, 0, 0, 2, ' ', 0)
	for i, c := range commands {
		if i == 0 || c.section != commands[i-1].section {
			if i > 0 {
				fmt.Fprintln(tw)
			}
			fmt.Fprintf(tw, "%s:\n", c.section)
		}
		fmt.Fprintf(tw, "  %s\t%s\n", c.usage(), c.doc)
	}
	return tw.Flush()
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

func (s *shell) tables(_ []string) error {
	for _, n := range s.env.Tables() {
		t, err := s.env.DB.Table(n)
		if err != nil {
			return err
		}
		s.printf("  %s %s [%d tuples]\n", n, t.Schema(), t.Len())
	}
	return nil
}

func (s *shell) boxes(_ []string) error {
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
}

func (s *shell) programs(_ []string) error {
	for _, n := range s.env.DB.ProgramNames() {
		s.printf("  %s\n", n)
	}
	for _, n := range s.env.DB.DefNames() {
		s.printf("  %s (encapsulated box)\n", n)
	}
	return nil
}

func (s *shell) disconnect(args []string) error {
	b, p, err := parseRef(args[0])
	if err != nil {
		return err
	}
	return s.env.Disconnect(b, p)
}

func (s *shell) deleteBox(args []string) error {
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	return s.env.DeleteBox(id)
}

func (s *shell) replace(args []string) error {
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	_, err = s.env.ReplaceBox(id, args[1], parseParams(args[2:]))
	return err
}

func (s *shell) params(args []string) error {
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
}

func (s *shell) insertT(args []string) error {
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
}

// applySel applies an R->R operation to a selected relation inside the
// composite/group on an edge (the Section 2 prompt).
func (s *shell) applySel(args []string) error {
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
}

func (s *shell) load(args []string) error {
	_, err := s.env.LoadProgram(args[0])
	return err
}

func (s *shell) addProgram(args []string) error {
	_, err := s.env.AddProgram(args[0])
	return err
}

func (s *shell) progpng(args []string) error {
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
}

func (s *shell) back(_ []string) error {
	if s.nav == nil {
		return fmt.Errorf("no navigation yet")
	}
	if err := s.nav.GoBack(); err != nil {
		return err
	}
	cur, _ := s.nav.Current()
	s.printf("back on %s\n", cur.Name)
	return nil
}

// savedb writes the database into a rel.FileBackend directory, creating
// it if needed.
func (s *shell) savedb(args []string) error {
	b, err := rel.NewFileBackend(args[0])
	if err != nil {
		return err
	}
	return s.env.DB.SaveBackend(b)
}

func (s *shell) loadSession(args []string) error {
	if err := s.env.LoadSession(args[0]); err != nil {
		return err
	}
	s.nav = s.env.Nav
	return nil
}

// magnify creates a magnifying glass over a canvas: a zoomed clone of the
// viewer slaved into a screen rectangle (Section 7.2).
func (s *shell) magnify(args []string) error {
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

// check runs the static program checker (internal/check) over the
// current program and prints every diagnostic — the same analysis
// tioga-vet applies to serialized programs, aimed at the program being
// edited.
func (s *shell) check(_ []string) error {
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

func (s *shell) show(_ []string) error {
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
	b, err := s.env.AddBox(args[0], parseParams(args[1:]))
	if err != nil {
		return err
	}
	s.printf("box [%d] %s\n", b.ID, b.Kind)
	return nil
}

func (s *shell) connect(args []string) error {
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

// motion returns the handler of a navigation command whose arguments
// are "<canvas> [member] <numbers...>" with n numbers. A leading integer
// that leaves n numbers behind is a member index.
func motion(n int, move func(v *viewer.Viewer, member int, nums []float64) error) func(*shell, []string) error {
	return func(s *shell, args []string) error {
		v, err := s.env.Canvas(args[0])
		if err != nil {
			return err
		}
		rest, member := args[1:], 0
		if len(rest) > n {
			if m, err := strconv.Atoi(rest[0]); err == nil {
				member, rest = m, rest[1:]
			}
		}
		nums := make([]float64, len(rest))
		for i, r := range rest {
			if nums[i], err = strconv.ParseFloat(r, 64); err != nil {
				return fmt.Errorf("bad number %q", r)
			}
		}
		return move(v, member, nums)
	}
}

func (s *shell) elevmap(args []string) error {
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

func (s *shell) figures(_ []string) error {
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
func (s *shell) stats(_ []string) error {
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
	return usageError{}
}

// flight inspects the always-on flight recorder. With no arguments it
// prints the buffer occupancy, the causal span tree of the most recent
// trace, and any slow frames the watchdog captured; with a filename it
// dumps the whole buffer as Chrome trace-event JSON; "flight budget
// <dur>" arms the slow-frame watchdog on every canvas ("off" disarms).
func (s *shell) flight(args []string) error {
	if len(args) >= 1 && args[0] == "budget" {
		if len(args) != 2 {
			return usageError{}
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
		return usageError{}
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
			return usageError{" (no histograms recorded yet)"}
		}
		return usageError{"; recorded: " + strings.Join(names, ", ")}
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
