// Package viewer implements Tioga-2 viewers (Section 2): translation of
// displayable types into screen output. A viewer over an n-dimensional
// displayable has an (n+1)-dimensional position — pan coordinates plus an
// elevation — renders the x and y dimensions onto a 2-D canvas, exposes
// the remaining dimensions as sliders, and filters (culls) tuples to the
// slider ranges, the visible real estate, and each relation's elevation
// range before rendering. The package also implements the drill-down
// machinery of Section 6 (elevation maps, wormholes, rear view mirrors)
// and the multi-visualization features of Section 7 (slaving, magnifying
// glasses, stitch layouts).
package viewer

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/dataflow"
	"repro/internal/display"
	"repro/internal/draw"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Source yields the displayable a viewer renders. Viewers attached to a
// dataflow program use BoxSource; tests and examples may use
// DirectSource.
type Source interface {
	Get() (display.Displayable, error)
}

// ContextSource is implemented by sources that can resolve under a
// request context, so demands they issue attribute to the render
// request that caused them (causal tracing) and honor its cancellation.
// Render entry points use it when available and fall back to Get.
type ContextSource interface {
	GetCtx(ctx context.Context) (display.Displayable, error)
}

// getDisplayable resolves src under the render request's context when
// the source supports it.
func getDisplayable(ctx context.Context, src Source) (display.Displayable, error) {
	if cs, ok := src.(ContextSource); ok {
		return cs.GetCtx(ctx)
	}
	return src.Get()
}

// DirectSource wraps a fixed displayable.
type DirectSource struct {
	D display.Displayable
}

// Get implements Source.
func (s DirectSource) Get() (display.Displayable, error) {
	if s.D == nil {
		return nil, fmt.Errorf("viewer: empty source")
	}
	return s.D, nil
}

// BoxSource demands the input of a viewer box in a dataflow program —
// lazy evaluation happens here, and because any edge can feed a viewer
// box, "it is easy to instrument a program to understand how it is
// working" (Section 10). With Output set it demands output Port of the
// box itself instead, which is how headless tools view an arbitrary
// box. The demand goes through the cancellable Eval API: Options
// configure it (worker count, serial fallback, trace label) and Ctx,
// when non-nil, lets a render abandon a long evaluation.
type BoxSource struct {
	Eval    *dataflow.Evaluator
	BoxID   int
	Port    int
	Output  bool
	Options []dataflow.EvalOption
	Ctx     context.Context // nil means context.Background()
}

// Get implements Source.
func (s BoxSource) Get() (display.Displayable, error) {
	return s.demand(sourceCtx(s.Ctx))
}

// GetCtx implements ContextSource: the demand runs under the source's
// own context (cancellation stays with whoever configured it) but
// adopts the render request's trace identity, so the eval.demand span
// parents under the frame that issued it.
func (s BoxSource) GetCtx(ctx context.Context) (display.Displayable, error) {
	return s.demand(obs.AdoptTrace(sourceCtx(s.Ctx), ctx))
}

func (s BoxSource) demand(ctx context.Context) (display.Displayable, error) {
	res, err := s.Eval.Eval(ctx,
		dataflow.Request{Box: s.BoxID, Port: s.Port, Input: !s.Output}, s.Options...)
	if err != nil {
		return nil, err
	}
	d, ok := res.Value.(display.Displayable)
	if !ok {
		if s.Output {
			return nil, fmt.Errorf("viewer: box %d output %d is not displayable (%T)", s.BoxID, s.Port, res.Value)
		}
		return nil, fmt.Errorf("viewer: box %d input is not displayable (%T)", s.BoxID, res.Value)
	}
	return d, nil
}

// sourceCtx defaults a source's context.
func sourceCtx(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// ViewState is the position of a viewer within one group member's viewing
// space: the pan center in the x/y dimensions, the elevation, and one
// range per slider dimension. Larger elevations see more canvas: at
// elevation e the visible canvas half-height is e (so zooming toward
// e = 0 converges on a point, which is what makes wormhole pass-through
// well defined).
type ViewState struct {
	Center    geom.Point
	Elevation float64
	Sliders   []geom.Range // ranges for location dimensions 2..n-1
}

// Visible returns the canvas rectangle visible at this state for a
// viewport with the given aspect ratio (width/height).
func (s ViewState) Visible(aspect float64) geom.Rect {
	h := math.Abs(s.Elevation) // negative elevations view the underside
	if h == 0 {
		h = 1e-6
	}
	w := h * aspect
	return geom.R(s.Center.X-w, s.Center.Y-h, s.Center.X+w, s.Center.Y+h)
}

// Clone deep-copies the state.
func (s ViewState) Clone() ViewState {
	out := s
	out.Sliders = append([]geom.Range(nil), s.Sliders...)
	return out
}

// Hit records where one tuple (or one wormhole) landed on the screen, for
// click resolution: updates (Section 8) and wormhole traversal (Section
// 6.2).
type Hit struct {
	Screen   geom.Rect // screen-pixel bounds
	Member   int       // group member index
	Layer    int       // layer within the composite
	Row      int       // tuple row within the layer's relation
	Ext      *display.Extended
	Wormhole *draw.Viewer // non-nil when the drawable is a wormhole
}

// Viewer renders a displayable to a framebuffer and maintains per-member
// view state. The zero value is not usable; construct with New.
type Viewer struct {
	Name   string
	Source Source
	W, H   int

	// Background is the canvas clear color.
	Background draw.Color
	// CullMargin widens the visibility window (in canvas units) so that
	// tuples whose location is just off-screen but whose drawables reach
	// in are still rendered.
	CullMargin float64
	// MaxWormholeDepth bounds recursive rendering of wormhole and
	// magnifier interiors.
	MaxWormholeDepth int
	// DisableWormholeCache turns off the cross-frame wormhole interior
	// cache, for ablation benchmarks and determinism baselines.
	DisableWormholeCache bool
	// DisableSpatialIndex forces pass-1 culling back to the per-frame
	// linear scan regardless of relation size.
	DisableSpatialIndex bool
	// DisableDisplayMemo turns off the cross-frame display-list memo, so
	// every visible tuple's display function re-evaluates each frame.
	DisableDisplayMemo bool
	// SpatialThreshold is the relation size at which pass-1 culling
	// switches from the linear scan to the grid index (0 = default).
	SpatialThreshold int
	// DisplayMemoCap bounds the display-list memo entry count
	// (0 = default).
	DisplayMemoCap int
	// Parallel evaluates display functions across CPUs for large visible
	// batches; painting stays serial so output is byte-identical.
	Parallel bool
	// Iconified viewers render nothing; group window operations gang
	// members together (Section 7.3).
	Iconified bool
	// FrameBudget arms the slow-frame watchdog: a render taking longer
	// than the budget is counted under render.slow_frames and its span
	// tree is captured from the flight recorder into SlowFrames(). Zero
	// disables the watchdog.
	FrameBudget time.Duration

	space  *Space // canvas registry for wormhole interiors; may be nil
	states []ViewState

	// Elevation map overrides (Section 6.1): direct manipulation of a
	// composite's ranges and drawing order without editing the program.
	rangeOverride map[[2]int]geom.Range
	orderOverride map[int][]int

	magnifiers []*Magnifier
	slaves     slaveSet

	// Cross-frame render caches (see cache.go). All are keyed on
	// display.Gen generation stamps, so they never serve stale state;
	// frame is a monotonic render counter driving LRU recency, and
	// overrideStamp changes whenever the viewer-local elevation-map
	// overrides do (they affect wormhole interiors rendered *from* this
	// viewer as a destination).
	memo          *displayMemo
	grids         map[display.Gen]*gridEntry
	whCache       map[wormholeKey]*whEntry
	frame         int64
	overrideStamp int64
	cacheStats    CacheStats
	scratch       []*renderScratch

	// slowFrames retains the most recent over-budget frames captured by
	// the watchdog (see FrameBudget), newest last.
	slowFrames []SlowFrame

	hits []Hit
}

// SlowFrame is one frame the watchdog caught over FrameBudget: its
// frame counter, trace id, wall-clock latency, and the frame's span
// events recovered from the flight recorder (empty when recording was
// off for the frame).
type SlowFrame struct {
	Frame   int64
	TraceID uint64
	Elapsed time.Duration
	Spans   []obs.SpanEvent
}

// maxSlowFrames bounds the watchdog's retained frames.
const maxSlowFrames = 4

// SlowFrames returns the retained over-budget frames, oldest first.
func (v *Viewer) SlowFrames() []SlowFrame {
	return append([]SlowFrame(nil), v.slowFrames...)
}

// noteSlowFrame records one over-budget frame: counted process-wide and
// captured locally with its span tree pulled from the flight recorder.
func (v *Viewer) noteSlowFrame(tc *obs.TraceContext, elapsed time.Duration) {
	obs.Inc(obs.RenderSlowFrames)
	sf := SlowFrame{Frame: v.frame, Elapsed: elapsed}
	if tc != nil {
		sf.TraceID = tc.TraceID
		sf.Spans = obs.FilterTrace(obs.DumpFlight(), tc.TraceID)
	}
	v.slowFrames = append(v.slowFrames, sf)
	if len(v.slowFrames) > maxSlowFrames {
		v.slowFrames = append(v.slowFrames[:0], v.slowFrames[len(v.slowFrames)-maxSlowFrames:]...)
	}
}

// renderScratch holds the pass-1 row/location buffers for one renderMember
// activation. Buffers are pooled on the viewer and reused across frames,
// so steady-state pans allocate nothing in pass 1: capacity learned on
// one frame carries to the next. A pool (rather than a single pair) is
// needed because wormholes whose destination is their own canvas re-enter
// renderMember on the same viewer.
type renderScratch struct {
	rows  []int
	locs  []geom.Point
	cand  []int32 // spatial query candidate buffer
	parts []int   // memo-miss indices for evalDisplays
}

// acquireScratch pops a pooled scratch (or makes one), reset to length 0.
func (v *Viewer) acquireScratch() *renderScratch {
	if n := len(v.scratch); n > 0 {
		s := v.scratch[n-1]
		v.scratch = v.scratch[:n-1]
		s.rows, s.locs, s.cand, s.parts = s.rows[:0], s.locs[:0], s.cand[:0], s.parts[:0]
		return s
	}
	return &renderScratch{}
}

// releaseScratch returns a scratch to the pool, keeping its capacity.
func (v *Viewer) releaseScratch(s *renderScratch) {
	v.scratch = append(v.scratch, s)
}

// New constructs a viewer of the given pixel size over a source.
func New(name string, src Source, w, h int) *Viewer {
	return &Viewer{
		Name:             name,
		Source:           src,
		W:                w,
		H:                h,
		Background:       draw.White,
		CullMargin:       20,
		MaxWormholeDepth: 2,
		rangeOverride:    make(map[[2]int]geom.Range),
		orderOverride:    make(map[int][]int),
	}
}

// SetSpace attaches the canvas registry used to resolve wormhole
// destinations.
func (v *Viewer) SetSpace(s *Space) { v.space = s }

// ensureStates sizes the per-member state slice to the group, defaulting
// each new member to a wide view over everything.
func (v *Viewer) ensureStates(g *display.Group) {
	for len(v.states) < len(g.Members) {
		i := len(v.states)
		st := ViewState{Elevation: 100}
		dim := g.Members[i].Dim()
		for d := 2; d < dim; d++ {
			st.Sliders = append(st.Sliders, geom.Rg(math.Inf(-1), math.Inf(1)))
		}
		v.states = append(v.states, st)
	}
	// Sliders may also need widening if the member dimension grew.
	for i := range v.states {
		if i >= len(g.Members) {
			break
		}
		dim := g.Members[i].Dim()
		for len(v.states[i].Sliders) < dim-2 {
			v.states[i].Sliders = append(v.states[i].Sliders, geom.Rg(math.Inf(-1), math.Inf(1)))
		}
	}
}

// States returns copies of all member view states (for session
// persistence).
func (v *Viewer) States() []ViewState {
	out := make([]ViewState, len(v.states))
	for i, st := range v.states {
		out[i] = st.Clone()
	}
	return out
}

// SetStates replaces the member view states (session restore).
func (v *Viewer) SetStates(states []ViewState) {
	v.states = make([]ViewState, len(states))
	for i, st := range states {
		v.states[i] = st.Clone()
	}
}

// State returns a pointer to the view state for group member i, creating
// states as needed by consulting the source.
func (v *Viewer) State(i int) (*ViewState, error) {
	d, err := v.Source.Get()
	if err != nil {
		return nil, err
	}
	g := display.Promote(d)
	v.ensureStates(g)
	if i < 0 || i >= len(v.states) {
		return nil, fmt.Errorf("viewer %s: no group member %d", v.Name, i)
	}
	return &v.states[i], nil
}

// Pan shifts member m by (dx, dy) in canvas units.
func (v *Viewer) Pan(m int, dx, dy float64) error {
	st, err := v.State(m)
	if err != nil {
		return err
	}
	st.Center = st.Center.Add(geom.Pt(dx, dy))
	v.propagateSlaves(m)
	return nil
}

// PanTo centers member m at (x, y).
func (v *Viewer) PanTo(m int, x, y float64) error {
	st, err := v.State(m)
	if err != nil {
		return err
	}
	st.Center = geom.Pt(x, y)
	v.propagateSlaves(m)
	return nil
}

// Zoom multiplies member m's elevation by factor (factor < 1 zooms in,
// "moving the user closer to the data").
func (v *Viewer) Zoom(m int, factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("viewer %s: zoom factor must be positive", v.Name)
	}
	st, err := v.State(m)
	if err != nil {
		return err
	}
	st.Elevation *= factor
	v.propagateSlaves(m)
	return nil
}

// SetElevation sets member m's elevation directly (the elevation control,
// the dashed line through the elevation map).
func (v *Viewer) SetElevation(m int, e float64) error {
	st, err := v.State(m)
	if err != nil {
		return err
	}
	st.Elevation = e
	v.propagateSlaves(m)
	return nil
}

// SetSlider sets the visible range of slider dimension d (0-based over
// location dimensions 2..n-1) of member m — "by setting the range of
// altitude values that are visible using the slider, the user can see any
// appropriate subset of the stations" (Section 5.1).
func (v *Viewer) SetSlider(m, d int, lo, hi float64) error {
	st, err := v.State(m)
	if err != nil {
		return err
	}
	if d < 0 || d >= len(st.Sliders) {
		return fmt.Errorf("viewer %s: member %d has no slider %d", v.Name, m, d)
	}
	st.Sliders[d] = geom.Rg(lo, hi)
	return nil
}

// Hits returns hit-test records from the most recent Render, top-most
// drawn first (so the first containing hit is the visually top object).
func (v *Viewer) Hits() []Hit {
	out := make([]Hit, len(v.hits))
	// Reverse: later drawn = on top.
	for i, h := range v.hits {
		out[len(v.hits)-1-i] = h
	}
	return out
}

// HitAt resolves the top-most hit containing the screen point (x, y).
func (v *Viewer) HitAt(x, y float64) (Hit, bool) {
	for _, h := range v.Hits() {
		if h.Screen.ContainsClosed(geom.Pt(x, y)) {
			return h, true
		}
	}
	return Hit{}, false
}

// --- elevation map ------------------------------------------------------

// ElevationEntry describes one bar of the elevation map: a layer's label,
// its effective elevation range, and its position in the drawing order.
type ElevationEntry struct {
	Label string
	Range geom.Range
	Order int // 0 = drawn first (bottom)
}

// ElevationMap returns the bar-chart model for group member m: "a
// bar-chart display of the maximum/minimum elevations and drawing order
// of all elements of a composite on the current canvas" (Section 6.1).
// For a group, the map covers one member at a time; the caller cycles m.
func (v *Viewer) ElevationMap(m int) ([]ElevationEntry, error) {
	d, err := v.Source.Get()
	if err != nil {
		return nil, err
	}
	g := display.Promote(d)
	if m < 0 || m >= len(g.Members) {
		return nil, fmt.Errorf("viewer %s: no group member %d", v.Name, m)
	}
	c := g.Members[m]
	order := v.layerOrder(m, len(c.Layers))
	entries := make([]ElevationEntry, len(c.Layers))
	for pos, li := range order {
		entries[li] = ElevationEntry{
			Label: c.Layers[li].Ext.Label,
			Range: v.effectiveRange(m, li, c.Layers[li].Ext.ElevRange),
			Order: pos,
		}
	}
	return entries, nil
}

// SetLayerRange overrides the elevation range of layer l of member m —
// direct manipulation of the elevation map.
func (v *Viewer) SetLayerRange(m, l int, lo, hi float64) {
	v.rangeOverride[[2]int{m, l}] = geom.Rg(lo, hi)
	v.overrideStamp++
}

// ClearLayerRange removes an override.
func (v *Viewer) ClearLayerRange(m, l int) {
	delete(v.rangeOverride, [2]int{m, l})
	v.overrideStamp++
}

// ShuffleLayer moves layer l of member m to the top of the drawing order,
// the viewer-local equivalent of the Shuffle command.
func (v *Viewer) ShuffleLayer(m, l, layerCount int) error {
	order := v.layerOrder(m, layerCount)
	pos := -1
	for i, li := range order {
		if li == l {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("viewer %s: member %d has no layer %d", v.Name, m, l)
	}
	order = append(append(order[:pos:pos], order[pos+1:]...), l)
	v.orderOverride[m] = order
	v.overrideStamp++
	return nil
}

func (v *Viewer) layerOrder(m, n int) []int {
	if order, ok := v.orderOverride[m]; ok && len(order) == n {
		return append([]int(nil), order...)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func (v *Viewer) effectiveRange(m, l int, base geom.Range) geom.Range {
	if r, ok := v.rangeOverride[[2]int{m, l}]; ok {
		return r
	}
	return base
}

// --- magnifying glasses ---------------------------------------------------

// Magnifier is a viewer placed inside another viewer (Section 7.2). The
// inner viewer renders into ScreenRect of the outer canvas, typically at
// a lower elevation (magnified) or with a swapped display attribute
// (Figure 9's precipitation lens).
type Magnifier struct {
	Inner      *Viewer
	ScreenRect geom.Rect
}

// AddMagnifier installs a magnifying glass. The inner viewer must have
// the same dimensionality as the outer; this is checked lazily at render
// (sources may not be evaluable yet).
func (v *Viewer) AddMagnifier(inner *Viewer, screenRect geom.Rect) *Magnifier {
	m := &Magnifier{Inner: inner, ScreenRect: screenRect}
	v.magnifiers = append(v.magnifiers, m)
	return m
}

// RemoveMagnifier deletes a magnifying glass.
func (v *Viewer) RemoveMagnifier(m *Magnifier) {
	for i, x := range v.magnifiers {
		if x == m {
			v.magnifiers = append(v.magnifiers[:i], v.magnifiers[i+1:]...)
			return
		}
	}
}

// Magnifiers returns the installed magnifying glasses.
func (v *Viewer) Magnifiers() []*Magnifier { return v.magnifiers }
