package dataflow

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Programs, like everything in Tioga-2, live in the database (Save
// Program, Section 4.1). This file defines the wire format: box kinds,
// labels, parameters, and edges; port shapes are re-derived from the
// registry on load so a program saved under one registry loads under any
// registry providing the same kinds.

type boxJSON struct {
	ID     int    `json:"id"`
	Kind   string `json:"kind"`
	Label  string `json:"label,omitempty"`
	Params Params `json:"params,omitempty"`
}

type programJSON struct {
	Boxes []boxJSON `json:"boxes"`
	Edges []Edge    `json:"edges"`
}

// Marshal serializes a program.
func Marshal(g *Graph) ([]byte, error) {
	var pj programJSON
	for _, b := range g.Boxes() {
		pj.Boxes = append(pj.Boxes, boxJSON{ID: b.ID, Kind: b.Kind, Label: b.Label, Params: b.Params})
	}
	pj.Edges = g.Edges()
	return json.MarshalIndent(pj, "", "  ")
}

// Unmarshal rebuilds a program against a registry. Box IDs are preserved
// so saved references (for example a viewer attached to box 7) remain
// valid.
//
// The load is validating: structural corruption — cycles, dangling or
// duplicate edges, port type mismatches, unknown kinds, bad parameters —
// is rejected here with every diagnostic aggregated into one error
// (test with errors.Is against the sentinels), instead of deferring the
// failure to the first Eval that happens to demand the corrupt region.
// Unconnected inputs are tolerated: a saved program under construction
// stays loadable and editable.
func Unmarshal(reg *Registry, data []byte) (*Graph, error) {
	g, diags, err := UnmarshalPermissive(reg, data)
	if err != nil {
		return nil, err
	}
	for _, d := range ValidateGraph(g) {
		if errors.Is(d, ErrUnconnected) {
			continue
		}
		diags = append(diags, d)
	}
	if err := diags.AsError(); err != nil {
		return nil, fmt.Errorf("dataflow: corrupt program: %w", err)
	}
	return g, nil
}

// UnmarshalPermissive rebuilds a program without rejecting structural
// corruption: boxes with unknown kinds keep empty port shapes, and edges
// are wired exactly as stored, bypassing Connect's type, cycle, and
// single-edge rules. The returned Diagnostics report problems only the
// loader can see (duplicate box ids, duplicate input edges); everything
// else is left for ValidateGraph / internal/check, which is the point:
// tioga-vet must be able to load a corrupt program in order to diagnose
// it. The error is non-nil only for undecodable JSON.
func UnmarshalPermissive(reg *Registry, data []byte) (*Graph, Diagnostics, error) {
	var pj programJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return nil, nil, fmt.Errorf("dataflow: bad program data: %w", err)
	}
	g := NewGraph(reg)
	var diags Diagnostics
	for _, bj := range pj.Boxes {
		if _, dup := g.boxes[bj.ID]; dup {
			diags = append(diags, evalErr("load", bj.ID, bj.Kind,
				fmt.Errorf("duplicate box id %d in program", bj.ID)))
			continue
		}
		params := bj.Params
		if params == nil {
			params = Params{}
		}
		var in, out []PortType
		if k, err := reg.Kind(bj.Kind); err == nil {
			// Port derivation errors surface as ErrBadParam in validation;
			// the box is kept with empty shapes so the rest of the program
			// still loads and gets checked.
			in, out, _ = k.Ports(params)
		}
		label := bj.Label
		if label == "" {
			label = bj.Kind
		}
		g.boxes[bj.ID] = &Box{ID: bj.ID, Kind: bj.Kind, Label: label, Params: params.Clone(), In: in, Out: out}
		g.bump(bj.ID)
		if bj.ID >= g.nextID {
			g.nextID = bj.ID + 1
		}
	}
	for _, e := range pj.Edges {
		if _, taken := g.edges[e.To][e.ToPort]; taken {
			diags = append(diags, evalPortErr("load", e.To, e.ToPort, "",
				fmt.Errorf("%w: %s", ErrDuplicateInput, e)))
			continue
		}
		if g.edges[e.To] == nil {
			g.edges[e.To] = make(map[int]Edge)
		}
		g.edges[e.To][e.ToPort] = e
		if _, ok := g.boxes[e.To]; ok {
			g.bump(e.To)
		}
	}
	return g, diags, nil
}

// Restore replaces g's contents in place from serialized data, keeping
// the Graph object (and thus any viewers holding references to it) alive.
// Box IDs are preserved; versions are bumped so evaluators recompute.
// This is the engine of the environment's undo button: snapshot before a
// mutating operation, Restore to undo.
func Restore(g *Graph, data []byte) error {
	loaded, err := Unmarshal(g.registry, data)
	if err != nil {
		return err
	}
	// Preserve monotone versions across the restore so memo entries from
	// the pre-undo world can never be mistaken for fresh.
	versions := g.version
	g.boxes = loaded.boxes
	g.edges = loaded.edges
	g.nextID = loaded.nextID
	g.version = versions
	for id := range g.boxes {
		g.bump(id)
	}
	return nil
}

// Touch bumps a box's version, forcing re-evaluation on next demand. The
// environment calls it when an external dependency changes (for example a
// base-table update behind a table box).
func (g *Graph) Touch(id int) {
	if _, ok := g.boxes[id]; ok {
		g.bump(id)
	}
}

// Merge adds a saved program's boxes and edges into an existing graph
// with fresh IDs (Add Program, Section 4.1). It returns the mapping from
// the saved program's IDs to the new ones.
func Merge(g *Graph, data []byte) (map[int]int, error) {
	var pj programJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return nil, fmt.Errorf("dataflow: bad program data: %w", err)
	}
	mapping := make(map[int]int, len(pj.Boxes))
	var added []int
	rollback := func() {
		for i := len(added) - 1; i >= 0; i-- {
			for _, e := range g.OutputEdges(added[i]) {
				_ = g.Disconnect(e.To, e.ToPort)
			}
			_ = g.DeleteBox(added[i])
		}
	}
	for _, bj := range pj.Boxes {
		b, err := g.AddBox(bj.Kind, bj.Params)
		if err != nil {
			rollback()
			return nil, fmt.Errorf("dataflow: add program: %w", err)
		}
		if bj.Label != "" {
			b.Label = bj.Label
		}
		mapping[bj.ID] = b.ID
		added = append(added, b.ID)
	}
	for _, e := range pj.Edges {
		if err := g.Connect(mapping[e.From], e.FromPort, mapping[e.To], e.ToPort); err != nil {
			rollback()
			return nil, fmt.Errorf("dataflow: add program: %w", err)
		}
	}
	return mapping, nil
}

// MarshalDef serializes an encapsulated box definition.
func MarshalDef(def *EncapDef) ([]byte, error) {
	return json.MarshalIndent(defToJSON(def), "", "  ")
}

// UnmarshalDef rebuilds an encapsulated box definition.
func UnmarshalDef(data []byte) (*EncapDef, error) {
	var dj defJSON
	if err := json.Unmarshal(data, &dj); err != nil {
		return nil, fmt.Errorf("dataflow: bad encapsulation data: %w", err)
	}
	return defFromJSON(&dj)
}

type holeJSON struct {
	In  []string `json:"in,omitempty"`
	Out []string `json:"out,omitempty"`
}

type defJSON struct {
	Name    string        `json:"name"`
	Boxes   []boxSpecJSON `json:"boxes"`
	Edges   []Edge        `json:"edges,omitempty"`
	Inputs  []PortRef     `json:"inputs,omitempty"`
	Outputs []PortRef     `json:"outputs,omitempty"`
	Holes   []holeJSON    `json:"holes,omitempty"`
}

type boxSpecJSON struct {
	Kind   string `json:"kind,omitempty"`
	Label  string `json:"label,omitempty"`
	Params Params `json:"params,omitempty"`
	Hole   int    `json:"hole"`
}

func defToJSON(def *EncapDef) *defJSON {
	dj := &defJSON{Name: def.Name, Edges: def.Edges, Inputs: def.Inputs, Outputs: def.Outputs}
	for _, b := range def.Boxes {
		dj.Boxes = append(dj.Boxes, boxSpecJSON{Kind: b.Kind, Label: b.Label, Params: b.Params, Hole: b.Hole})
	}
	for _, h := range def.Holes {
		var hj holeJSON
		for _, t := range h.In {
			hj.In = append(hj.In, t.String())
		}
		for _, t := range h.Out {
			hj.Out = append(hj.Out, t.String())
		}
		dj.Holes = append(dj.Holes, hj)
	}
	return dj
}

func defFromJSON(dj *defJSON) (*EncapDef, error) {
	def := &EncapDef{Name: dj.Name, Edges: dj.Edges, Inputs: dj.Inputs, Outputs: dj.Outputs}
	for _, b := range dj.Boxes {
		def.Boxes = append(def.Boxes, BoxSpec{Kind: b.Kind, Label: b.Label, Params: b.Params, Hole: b.Hole})
	}
	for i, hj := range dj.Holes {
		var h HoleSpec
		var err error
		if h.In, err = parsePortTypes(hj.In); err == nil {
			h.Out, err = parsePortTypes(hj.Out)
		}
		if err != nil {
			return nil, fmt.Errorf("dataflow: hole %d: %w: %v", i, ErrBadRegion, err)
		}
		def.Holes = append(def.Holes, h)
	}
	return def, nil
}

func parsePortTypes(ss []string) ([]PortType, error) {
	var out []PortType
	for _, s := range ss {
		t, err := parsePortType(s)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
