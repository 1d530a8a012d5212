package dataflow

import (
	"errors"
	"fmt"
	"sort"
)

// Box is one node of a boxes-and-arrows program: a primitive procedure
// with typed inputs and outputs. Boxes are created from registered kinds
// (see Registry); Params carry the box's serializable configuration (the
// Restrict predicate, the Sample probability, display specifications, and
// so on).
type Box struct {
	ID     int
	Kind   string
	Label  string
	Params Params
	In     []PortType
	Out    []PortType
}

// Edge connects output port FromPort of box From to input port ToPort of
// box To.
type Edge struct {
	From, FromPort int
	To, ToPort     int
}

// String implements fmt.Stringer.
func (e Edge) String() string {
	return fmt.Sprintf("%d.%d->%d.%d", e.From, e.FromPort, e.To, e.ToPort)
}

// Graph is a boxes-and-arrows program. Structural mutations bump per-box
// versions so evaluators can invalidate memoized results precisely;
// "there is no distinction between constructing a program, modifying an
// existing program, and using an existing program" (principle 2), so the
// graph is always runnable.
type Graph struct {
	registry *Registry
	boxes    map[int]*Box
	edges    map[int]map[int]Edge // edges[to][toPort]
	nextID   int
	// version[id] is the value of the global clock when box id last
	// changed. The clock is global so staleness stamps are comparable
	// across boxes: a box's memo entry is valid iff it was computed at a
	// stamp >= the max version along its transitive inputs.
	version map[int]int64
	clock   int64
}

// NewGraph returns an empty program over the given box registry.
func NewGraph(reg *Registry) *Graph {
	return &Graph{
		registry: reg,
		boxes:    make(map[int]*Box),
		edges:    make(map[int]map[int]Edge),
		version:  make(map[int]int64),
		nextID:   1,
	}
}

// Registry returns the box registry the graph resolves kinds against.
func (g *Graph) Registry() *Registry { return g.registry }

// Boxes returns all boxes sorted by ID.
func (g *Graph) Boxes() []*Box {
	out := make([]*Box, 0, len(g.boxes))
	for _, b := range g.boxes {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Box returns the box with the given ID.
func (g *Graph) Box(id int) (*Box, error) {
	b, ok := g.boxes[id]
	if !ok {
		return nil, fmt.Errorf("dataflow: no box %d: %w", id, ErrNoSuchBox)
	}
	return b, nil
}

// Edges returns all edges in deterministic order.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, ports := range g.edges {
		for _, e := range ports {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.To != b.To {
			return a.To < b.To
		}
		return a.ToPort < b.ToPort
	})
	return out
}

// Version returns the box's mutation counter, used by evaluators for
// cache invalidation.
func (g *Graph) Version(id int) int64 { return g.version[id] }

// Clock returns the graph's global mutation clock: it advances on every
// structural or parameter change anywhere in the program, so a cached
// judgment about the graph (the evaluator's pre-flight validation memo)
// is valid exactly as long as Clock is unchanged.
func (g *Graph) Clock() int64 { return g.clock }

func (g *Graph) bump(id int) {
	g.clock++
	g.version[id] = g.clock
}

// AddBox instantiates a registered box kind with the given parameters and
// adds it to the program, returning the new box. Port types are derived
// from the kind and parameters.
func (g *Graph) AddBox(kind string, params Params) (*Box, error) {
	k, err := g.registry.Kind(kind)
	if err != nil {
		return nil, err
	}
	if params == nil {
		params = Params{}
	}
	in, out, err := k.Ports(params)
	if err != nil {
		if !errors.Is(err, ErrBadParam) {
			err = fmt.Errorf("%w: %v", ErrBadParam, err)
		}
		return nil, fmt.Errorf("dataflow: %s: %w", kind, err)
	}
	b := &Box{
		ID:     g.nextID,
		Kind:   kind,
		Label:  kind,
		Params: params.Clone(),
		In:     in,
		Out:    out,
	}
	g.nextID++
	g.boxes[b.ID] = b
	g.bump(b.ID)
	return b, nil
}

// SetParams replaces a box's parameters, re-deriving its port types. The
// new ports must be type-equal to the old ones if any port is connected;
// otherwise arbitrary reshaping is allowed. This is the engine beneath
// "inspect, delete, and replace boxes as necessary to fix the program" at
// the parameter level (changing a Restrict predicate re-fires downstream).
func (g *Graph) SetParams(id int, params Params) error {
	b, err := g.Box(id)
	if err != nil {
		return err
	}
	k, err := g.registry.Kind(b.Kind)
	if err != nil {
		return err
	}
	in, out, err := k.Ports(params)
	if err != nil {
		return fmt.Errorf("dataflow: %s: %w", b.Kind, err)
	}
	if g.anyConnected(id) {
		if len(in) != len(b.In) || len(out) != len(b.Out) {
			return fmt.Errorf("dataflow: cannot reshape connected box %d (%s): %w", id, b.Kind, ErrBoxConnected)
		}
		for i := range in {
			if !in[i].Equal(b.In[i]) {
				return fmt.Errorf("dataflow: new params change input %d type of connected box %d: %w", i, id, ErrBoxConnected)
			}
		}
		for i := range out {
			if !out[i].Equal(b.Out[i]) {
				return fmt.Errorf("dataflow: new params change output %d type of connected box %d: %w", i, id, ErrBoxConnected)
			}
		}
	}
	b.Params = params.Clone()
	b.In, b.Out = in, out
	g.bump(id)
	return nil
}

func (g *Graph) anyConnected(id int) bool {
	if len(g.edges[id]) > 0 {
		return true
	}
	for _, ports := range g.edges {
		for _, e := range ports {
			if e.From == id {
				return true
			}
		}
	}
	return false
}

// SetLabel renames a box in the program window.
func (g *Graph) SetLabel(id int, label string) error {
	b, err := g.Box(id)
	if err != nil {
		return err
	}
	b.Label = label
	return nil
}

// Connect adds an edge from output (from, fromPort) to input (to, toPort).
// It enforces port existence, type compatibility (with R->C->G promotion),
// single-edge-per-input, and acyclicity.
func (g *Graph) Connect(from, fromPort, to, toPort int) error {
	fb, err := g.Box(from)
	if err != nil {
		return err
	}
	tb, err := g.Box(to)
	if err != nil {
		return err
	}
	if fromPort < 0 || fromPort >= len(fb.Out) {
		return fmt.Errorf("dataflow: box %d (%s) has no output %d: %w", from, fb.Kind, fromPort, ErrNoSuchPort)
	}
	if toPort < 0 || toPort >= len(tb.In) {
		return fmt.Errorf("dataflow: box %d (%s) has no input %d: %w", to, tb.Kind, toPort, ErrNoSuchPort)
	}
	if !Compatible(fb.Out[fromPort], tb.In[toPort]) {
		return fmt.Errorf("dataflow: type error: cannot connect %s output of %s to %s input of %s: %w",
			fb.Out[fromPort], fb.Kind, tb.In[toPort], tb.Kind, ErrPortType)
	}
	if _, taken := g.edges[to][toPort]; taken {
		return fmt.Errorf("dataflow: input %d of box %d (%s) is already connected: %w", toPort, to, tb.Kind, ErrDuplicateInput)
	}
	if from == to || g.reaches(to, from) {
		return fmt.Errorf("dataflow: connecting %d->%d would create a cycle: %w", from, to, ErrCycle)
	}
	if g.edges[to] == nil {
		g.edges[to] = make(map[int]Edge)
	}
	g.edges[to][toPort] = Edge{From: from, FromPort: fromPort, To: to, ToPort: toPort}
	g.bump(to)
	return nil
}

// Disconnect removes the edge feeding input (to, toPort).
func (g *Graph) Disconnect(to, toPort int) error {
	if _, ok := g.edges[to][toPort]; !ok {
		return fmt.Errorf("dataflow: input %d of box %d is not connected: %w", toPort, to, ErrUnconnected)
	}
	delete(g.edges[to], toPort)
	g.bump(to)
	return nil
}

// InputEdge returns the edge feeding input (to, toPort), if any.
func (g *Graph) InputEdge(to, toPort int) (Edge, bool) {
	e, ok := g.edges[to][toPort]
	return e, ok
}

// OutputEdges returns the edges leaving box from, in deterministic order.
func (g *Graph) OutputEdges(from int) []Edge {
	var out []Edge
	for _, ports := range g.edges {
		for _, e := range ports {
			if e.From == from {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.FromPort != b.FromPort {
			return a.FromPort < b.FromPort
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.ToPort < b.ToPort
	})
	return out
}

// reaches reports whether box b is reachable from box a along edges.
func (g *Graph) reaches(a, b int) bool {
	seen := map[int]bool{}
	var walk func(int) bool
	walk = func(id int) bool {
		if id == b {
			return true
		}
		if seen[id] {
			return false
		}
		seen[id] = true
		for _, e := range g.OutputEdges(id) {
			if walk(e.To) {
				return true
			}
		}
		return false
	}
	return walk(a)
}

// DeleteBox removes a box under the legality rules of Section 4.1:
// "A box may be deleted if (1) it has no outputs connected to other boxes
// ..., or (2) it has a single input and output of the same type (in which
// case the system connects the deleted box's predecessor to its
// successor)." Rule (2) may leave multiple successors; all are re-wired to
// the predecessor. These rules preserve "everything is always
// visualizable": no input is ever left dangling.
func (g *Graph) DeleteBox(id int) error {
	b, err := g.Box(id)
	if err != nil {
		return err
	}
	outs := g.OutputEdges(id)

	if len(outs) == 0 {
		// Rule 1: nothing downstream depends on this box.
		for port := range g.edges[id] {
			delete(g.edges[id], port)
		}
		delete(g.edges, id)
		delete(g.boxes, id)
		return nil
	}

	// Rule 2: splice.
	if len(b.In) != 1 || len(b.Out) != 1 || !b.In[0].Equal(b.Out[0]) {
		return fmt.Errorf("dataflow: cannot delete box %d (%s): it has connected outputs and is not a single in/out pass-through of one type: %w", id, b.Kind, ErrBoxConnected)
	}
	pred, ok := g.InputEdge(id, 0)
	if !ok {
		return fmt.Errorf("dataflow: cannot delete box %d (%s): connected outputs but no predecessor to splice: %w", id, b.Kind, ErrBoxConnected)
	}
	for _, e := range outs {
		delete(g.edges[e.To], e.ToPort)
		g.edges[e.To][e.ToPort] = Edge{From: pred.From, FromPort: pred.FromPort, To: e.To, ToPort: e.ToPort}
		g.bump(e.To)
	}
	delete(g.edges, id)
	delete(g.boxes, id)
	return nil
}

// ReplaceBox swaps box id for a new box of a different kind with exactly
// compatible (equal) port types, keeping all connections (Section 4.1's
// Replace Box).
func (g *Graph) ReplaceBox(id int, kind string, params Params) (*Box, error) {
	old, err := g.Box(id)
	if err != nil {
		return nil, err
	}
	k, err := g.registry.Kind(kind)
	if err != nil {
		return nil, err
	}
	if params == nil {
		params = Params{}
	}
	in, out, err := k.Ports(params)
	if err != nil {
		if !errors.Is(err, ErrBadParam) {
			err = fmt.Errorf("%w: %v", ErrBadParam, err)
		}
		return nil, fmt.Errorf("dataflow: %s: %w", kind, err)
	}
	if len(in) != len(old.In) || len(out) != len(old.Out) {
		return nil, fmt.Errorf("dataflow: replace: %s has %d/%d ports, %s has %d/%d: %w",
			old.Kind, len(old.In), len(old.Out), kind, len(in), len(out), ErrPortType)
	}
	for i := range in {
		if !in[i].Equal(old.In[i]) {
			return nil, fmt.Errorf("dataflow: replace: input %d type mismatch (%s vs %s): %w", i, old.In[i], in[i], ErrPortType)
		}
	}
	for i := range out {
		if !out[i].Equal(old.Out[i]) {
			return nil, fmt.Errorf("dataflow: replace: output %d type mismatch (%s vs %s): %w", i, old.Out[i], out[i], ErrPortType)
		}
	}
	old.Kind = kind
	old.Label = kind
	old.Params = params.Clone()
	old.In, old.Out = in, out
	g.bump(id)
	return old, nil
}

// InsertT inserts a T box on the edge feeding input (to, toPort): "A T box
// simply passes its input unchanged to both outputs, and allows another
// box, for example a viewer, to be connected" (Section 4.1). The second
// output of the returned T box is free.
func (g *Graph) InsertT(to, toPort int) (*Box, error) {
	e, ok := g.InputEdge(to, toPort)
	if !ok {
		return nil, fmt.Errorf("dataflow: no edge into input %d of box %d: %w", toPort, to, ErrUnconnected)
	}
	fb, err := g.Box(e.From)
	if err != nil {
		return nil, err
	}
	pt := fb.Out[e.FromPort]
	t, err := g.AddBox("t", Params{"type": pt.String()})
	if err != nil {
		return nil, err
	}
	if err := g.Disconnect(to, toPort); err != nil {
		return nil, err
	}
	if err := g.Connect(e.From, e.FromPort, t.ID, 0); err != nil {
		return nil, err
	}
	if err := g.Connect(t.ID, 0, to, toPort); err != nil {
		return nil, err
	}
	return t, nil
}

// MatchingKinds implements the Apply Box menu (Section 4.1): given the
// types of selected output edges, it returns registered kinds whose
// inputs could take them (every selected type must be acceptable by a
// distinct input, in order).
func (g *Graph) MatchingKinds(selected []PortType) []string {
	var out []string
	for _, name := range g.registry.Names() {
		k, err := g.registry.Kind(name)
		if err != nil {
			continue
		}
		in, _, err := k.Ports(k.ExampleParams)
		if err != nil {
			continue
		}
		if len(in) < len(selected) {
			continue
		}
		ok := true
		for i, s := range selected {
			if !Compatible(s, in[i]) {
				ok = false
				break
			}
		}
		if ok && len(selected) > 0 {
			out = append(out, name)
		}
	}
	return out
}

// Clear removes every box and edge (New Program).
func (g *Graph) Clear() {
	g.boxes = make(map[int]*Box)
	g.edges = make(map[int]map[int]Edge)
	g.version = make(map[int]int64)
	g.nextID = 1
}

// Sinks returns boxes with no outgoing edges, sorted by ID — typically
// the viewers.
func (g *Graph) Sinks() []*Box {
	var out []*Box
	for _, b := range g.Boxes() {
		if len(g.OutputEdges(b.ID)) == 0 {
			out = append(out, b)
		}
	}
	return out
}
