// Package tioga is a from-scratch Go implementation of Tioga-2, the
// direct-manipulation database visualization environment of Aiken, Chen,
// Stonebraker, and Woodruff (ICDE 1996). It provides:
//
//   - an object-relational substrate with stored and computed attributes
//     and the database operations Project, Restrict, Sample, and Join;
//   - a typed boxes-and-arrows dataflow language with lazy, memoized
//     evaluation, multi-output boxes, T boxes, and Encapsulate with holes;
//   - the displayable types R (extended relations with location and
//     display attributes), C (composites/overlays), and G (groups), with
//     the type equivalences and operator lifting of the paper's Section 2;
//   - viewers with pan, zoom (elevation), slider dimensions, viewport and
//     elevation-range culling, elevation maps, wormholes, rear view
//     mirrors, slaving, magnifying glasses, Stitch, and Replicate;
//   - tuple-level updates through per-type update functions (Section 8);
//   - a software rasterizer in place of the 1996 X11 display.
//
// The central type is Environment: one Tioga-2 session over a Database.
// Programs are built by the undoable operation catalog (AddTable, AddBox,
// Connect, InsertT, Encapsulate, ...) exactly as the paper's menus do,
// and viewers attached with AddViewer render any edge of the program.
//
// A minimal session:
//
//	db, _ := tioga.SeedDatabase(400, 132, 42)
//	env := tioga.NewEnvironment(db)
//	tb, _ := env.AddTable("Stations")
//	rb, _ := env.AddBox("restrict", tioga.Params{"pred": "state = 'LA'"})
//	_ = env.Connect(tb.ID, 0, rb.ID, 0)
//	v, _ := env.AddViewer("Louisiana", rb.ID, 0, 640, 480)
//	img, _, _ := v.Render()
//	_ = img.WritePNG(w)
//
// The builders Figure1 through Figure11 reproduce the paper's figures
// end-to-end; see EXPERIMENTS.md for the reproduction log.
package tioga

import (
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/db"
	"repro/internal/display"
	"repro/internal/draw"
	"repro/internal/expr"
	"repro/internal/geom"
	"repro/internal/raster"
	"repro/internal/rel"
	"repro/internal/types"
	"repro/internal/viewer"
	"repro/internal/workload"
)

// Environment is one Tioga-2 session: the program window, the database,
// the evaluator, and the canvas universe. See core.Environment.
type Environment = core.Environment

// Database is the POSTGRES stand-in: tables, saved programs and
// encapsulated box definitions, and the Section 8 update path.
type Database = db.Database

// Params configures a box (predicates, display specs, probabilities...).
type Params = dataflow.Params

// Box is one node of a boxes-and-arrows program.
type Box = dataflow.Box

// PortType is a box port's type: R, C, G, or a scalar.
type PortType = dataflow.PortType

// Graph is a boxes-and-arrows program.
type Graph = dataflow.Graph

// Filler plugs a hole of an encapsulated box definition.
type Filler = dataflow.Filler

// EvalRequest names what Evaluator.Eval evaluates: a box output, or the
// edge feeding a box input when Input is set.
type EvalRequest = dataflow.Request

// EvalResult carries a demanded value plus the request's work profile
// (fires, cache hits, coalesced firings, wavefront depth).
type EvalResult = dataflow.Result

// EvalOption configures one evaluation request.
type EvalOption = dataflow.EvalOption

// EvalError is the typed evaluation error: failing box, port, kind, and
// the wrapped cause (test with errors.Is / errors.As).
type EvalError = dataflow.Error

// Evaluation request options, re-exported from internal/dataflow.
var (
	// WithWorkers bounds concurrent box firings within one request.
	WithWorkers = dataflow.WithWorkers
	// WithEvalLabel names the request in traces and results.
	WithEvalLabel = dataflow.WithLabel
)

// Query fast-path knobs, process-wide. Both return the previous setting.
// The defaults — kernels on, scan workers auto — are what benchmarks
// and production use; the setters exist for ablation (measuring one
// layer of the fast path at a time) and for pinning deterministic serial
// execution in tests.
var (
	// SetExprCompileDisabled turns the columnar predicate kernels off,
	// so scans and joins evaluate every row with the tree-walking
	// interpreter: the differential oracle.
	SetExprCompileDisabled = rel.SetCompileDisabled
	// SetScanWorkers bounds parallel scan workers (0 = GOMAXPROCS).
	SetScanWorkers = rel.SetScanWorkers
)

// Viewer renders displayables to a framebuffer with pan/zoom/sliders.
type Viewer = viewer.Viewer

// Navigator tracks the user's position across canvases and wormholes and
// renders rear view mirrors.
type Navigator = viewer.Navigator

// Space is the canvas registry wormholes resolve against.
type Space = viewer.Space

// Magnifier is a viewer placed inside another viewer (Section 7.2).
type Magnifier = viewer.Magnifier

// RenderStats reports culling and evaluation work done by one render.
type RenderStats = viewer.RenderStats

// Hit is a screen object resolved from a click: the tuple behind it and,
// for wormholes, the destination.
type Hit = viewer.Hit

// Image is the software framebuffer with PPM/PNG/ASCII back ends.
type Image = raster.Image

// Relation is an object-relational table with stored and computed
// attributes.
type Relation = rel.Relation

// Schema describes a relation's stored columns.
type Schema = rel.Schema

// Column is one stored attribute.
type Column = rel.Column

// Value is a dynamically typed scalar of the substrate.
type Value = types.Value

// Kind identifies an atomic column type.
type Kind = types.Kind

// Extended is the displayable type R: a relation plus location and
// display attributes.
type Extended = display.Extended

// Composite is the displayable type C: overlaid relations in one space.
type Composite = display.Composite

// Group is the displayable type G: composites in a side-by-side,
// vertical, or tabular layout.
type Group = display.Group

// Drawable is a primitive screen object (point, line, rect, circle,
// polygon, text, or wormhole viewer).
type Drawable = draw.Drawable

// Color is an RGBA color.
type Color = draw.Color

// Point is a canvas-space point.
type Point = geom.Point

// Rect is a canvas- or screen-space rectangle.
type Rect = geom.Rect

// Atomic type kinds.
const (
	Int   = types.Int
	Float = types.Float
	Text  = types.Text
	Bool  = types.Bool
	Date  = types.Date
)

// Displayable port types for Connect/ApplyBox calls.
var (
	RType = dataflow.RType
	CType = dataflow.CType
	GType = dataflow.GType
)

// NewEnvironment creates a session over a database.
func NewEnvironment(d *Database) *Environment { return core.NewEnvironment(d) }

// NewDatabase returns an empty database.
func NewDatabase() *Database { return db.New() }

// SeedDatabase loads the synthetic Louisiana weather example data
// (Stations, Observations, LouisianaMap, Sales) at the given scale.
func SeedDatabase(stations, perStation int, seed int64) (*Database, error) {
	return core.SeedDatabase(stations, perStation, seed)
}

// NewSeededEnvironment is SeedDatabase plus a fresh environment.
func NewSeededEnvironment(stations, perStation int, seed int64) (*Environment, error) {
	return core.NewSeededEnvironment(stations, perStation, seed)
}

// Displayable is any value a viewer can render: R, C, or G.
type Displayable = display.Displayable

// DisplayFunc computes one tuple's display list (build with
// ParseDisplaySpec or the combinators in internal/draw).
type DisplayFunc = draw.Func

// NamedDisplay is one display attribute: a name and its function.
type NamedDisplay = display.NamedDisplay

// ExtendedSpec describes a displayable R to build directly, for library
// use outside a dataflow program. Label, Rel, LocAttrs, and Display are
// required; Extra adds the alternative representations of Section 5.1
// after the distinguished display attribute.
type ExtendedSpec struct {
	Label    string
	Rel      *Relation
	LocAttrs []string // >= 2 numeric attributes: x, y, then sliders
	Display  DisplayFunc
	Extra    []NamedDisplay
}

// Build validates the spec and constructs the extended relation.
func (s ExtendedSpec) Build() (*Extended, error) {
	displays := append([]NamedDisplay{{Name: "display", Fn: s.Display}}, s.Extra...)
	return display.NewExtended(s.Label, s.Rel, s.LocAttrs, displays)
}

// ViewerSpec describes a standalone viewer over a fixed displayable.
// Name and D are required; zero-valued fields take the viewer defaults
// (640x480, white background, parallel display evaluation off).
type ViewerSpec struct {
	Name string
	D    Displayable
	W, H int
	// Parallel evaluates display functions across CPUs for large visible
	// batches; output stays byte-identical.
	Parallel bool
	// Background overrides the canvas clear color when non-zero.
	Background Color
}

// Build constructs the viewer.
func (s ViewerSpec) Build() *Viewer {
	w, h := s.W, s.H
	if w <= 0 {
		w = 640
	}
	if h <= 0 {
		h = 480
	}
	v := viewer.New(s.Name, viewer.DirectSource{D: s.D}, w, h)
	v.Parallel = s.Parallel
	if s.Background != (Color{}) {
		v.Background = s.Background
	}
	return v
}

// Slave ties two viewer members together, maintaining their relative
// offset (Section 7.1).
func Slave(a *Viewer, am int, b *Viewer, bm int) error {
	return viewer.Slave(a, am, b, bm)
}

// Unslave removes the slaving link between two viewer members.
func Unslave(a *Viewer, am int, b *Viewer, bm int) {
	viewer.Unslave(a, am, b, bm)
}

// ParseExpr compiles a predicate or attribute definition in the substrate
// expression language.
func ParseExpr(src string) (expr.Node, error) { return expr.Parse(src) }

// ParseDisplaySpec compiles a display specification (see
// internal/draw.ParseSpec for the grammar) into a display function.
func ParseDisplaySpec(spec string) (draw.Func, error) { return draw.ParseSpec(spec) }

// LiftParams builds the parameters for a liftc/liftg box applying an
// R -> R operation to one relation of a composite or group (Section 2).
func LiftParams(kind string, inner Params, member, layer int) Params {
	return dataflow.LiftParams(kind, inner, member, layer)
}

// Workload generators, re-exported for examples and benches.
var (
	GenStations     = workload.Stations
	GenObservations = workload.Observations
	GenLouisianaMap = workload.LouisianaMap
	GenSales        = workload.Sales
)

// Figure builders reproducing the paper's figures; see DESIGN.md for the
// experiment index.
var (
	Figure1  = core.Figure1
	Figure4  = core.Figure4
	Figure7  = core.Figure7
	Figure8  = core.Figure8
	Figure9  = core.Figure9
	Figure10 = core.Figure10
	Figure11 = core.Figure11
)
