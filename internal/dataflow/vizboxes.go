package dataflow

import (
	"fmt"

	"repro/internal/display"
	"repro/internal/expr"
	"repro/internal/geom"
	"repro/internal/rel"
	"repro/internal/types"
)

// registerVizBoxes installs the drill-down primitives of Figure 6
// (Set Range, Overlay, Shuffle) and the group operations of Section 7
// (Stitch, Replicate).
func registerVizBoxes(r *Registry) {
	r.MustRegister(&Kind{
		Name:          "setrange",
		Doc:           "Set Range: the minimum and maximum elevations at which the relation's display is defined (Section 6.1). Negative elevations put the display on the canvas underside, visible in rear view mirrors.",
		ExampleParams: Params{"lo": "0", "hi": "100"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			lo, err := p.Float("lo", 0)
			if err != nil {
				return nil, err
			}
			hi, err := p.Float("hi", 0)
			if err != nil {
				return nil, err
			}
			if lo > hi {
				return nil, fmt.Errorf("setrange: lo %g > hi %g", lo, hi)
			}
			out := e.Clone()
			out.ElevRange = geom.Rg(lo, hi)
			return []Value{out}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "overlay",
		Doc:           "Overlay: superimpose the second composite onto the first with an optional n-dimensional 'offset' (Section 6.1). Dimension mismatches are legal; lower-dimensional components are invariant in the extra dimensions.",
		ExampleParams: Params{},
		Ports:         fixedPorts([]PortType{CType, CType}, []PortType{CType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			base, err := asComposite(in[0])
			if err != nil {
				return nil, err
			}
			top, err := asComposite(in[1])
			if err != nil {
				return nil, err
			}
			offset, err := p.Floats("offset")
			if err != nil {
				return nil, err
			}
			out := base.Clone()
			out.Overlay(top, offset) // mismatch warning is advisory; surfaced by the ops layer
			return []Value{out}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "shuffle",
		Doc:           "Shuffle: move the relation at 'layer' to the top of the composite's drawing order (Section 6.1).",
		ExampleParams: Params{"layer": "0"},
		Ports:         fixedPorts([]PortType{CType}, []PortType{CType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			c, err := asComposite(in[0])
			if err != nil {
				return nil, err
			}
			layer, err := p.Int("layer", 0)
			if err != nil {
				return nil, err
			}
			out := c.Clone()
			if err := out.Shuffle(layer); err != nil {
				return nil, err
			}
			return []Value{out}, nil
		},
	})

	// maxStitch bounds a stitch's input ports, so a stored program cannot
	// make its loader allocate without limit. Figure 10 stitches 2.
	const maxStitch = 256
	r.MustRegister(&Kind{
		Name:          "stitch",
		Doc:           "Stitch: combine 'n' composites into a group laid out 'layout' (horizontal, vertical, or tabular with 'cols') (Section 7.3).",
		ExampleParams: Params{"n": "2"},
		Ports: func(p Params) ([]PortType, []PortType, error) {
			n, err := p.Int("n", 2)
			if err != nil {
				return nil, nil, err
			}
			if n < 1 || n > maxStitch {
				return nil, nil, fmt.Errorf("%w: stitch needs 1 <= n <= %d, got %d", ErrBadParam, maxStitch, n)
			}
			ins := make([]PortType, n)
			for i := range ins {
				ins[i] = CType
			}
			return ins, []PortType{GType}, nil
		},
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			layout, cols, err := parseLayout(p)
			if err != nil {
				return nil, err
			}
			members := make([]*display.Composite, len(in))
			for i, v := range in {
				c, err := asComposite(v)
				if err != nil {
					return nil, err
				}
				members[i] = c
			}
			g, err := display.NewGroup(p.Str("label", "stitched"), layout, cols, members...)
			if err != nil {
				return nil, err
			}
			return []Value{g}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "replicate",
		Doc:           "Replicate: partition the input relation by ';'-separated predicates in 'preds' and/or the distinct values of enumerated attribute 'attr', then stitch the replicas into a group (Section 7.4).",
		ExampleParams: Params{"preds": "true"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{GType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			hsrcs := splitPreds(p.Str("preds", ""))
			vattr := p.Str("attr", "")
			if len(hsrcs) == 0 && vattr == "" {
				return nil, fmt.Errorf("replicate needs preds= and/or attr=")
			}

			// Expand the enumerated attribute to equality predicates.
			var vsrcs []string
			if vattr != "" {
				vals, err := rel.DistinctValues(e.Rel, vattr)
				if err != nil {
					return nil, err
				}
				k, _ := e.Rel.AttrKind(vattr)
				for _, v := range vals {
					vsrcs = append(vsrcs, fmt.Sprintf("%s = %s", vattr, literal(k, v)))
				}
				if len(vsrcs) == 0 {
					return nil, fmt.Errorf("replicate: attribute %q has no values to enumerate", vattr)
				}
			}

			// Cross the two partition dimensions: tabular with the
			// horizontal predicates as columns (the paper's salary x
			// department example).
			var cells []string
			cols := 0
			switch {
			case len(hsrcs) > 0 && len(vsrcs) > 0:
				cols = len(hsrcs)
				for _, v := range vsrcs {
					for _, h := range hsrcs {
						cells = append(cells, fmt.Sprintf("(%s) and (%s)", h, v))
					}
				}
			case len(hsrcs) > 0:
				cells = hsrcs
			default:
				cells = vsrcs
			}

			preds := make([]expr.Node, len(cells))
			for i, s := range cells {
				preds[i], err = expr.Parse(s)
				if err != nil {
					return nil, fmt.Errorf("replicate predicate %q: %w", s, err)
				}
			}
			parts, err := rel.Partition(e.Rel, preds)
			if err != nil {
				return nil, err
			}
			members := make([]*display.Composite, len(parts))
			for i, part := range parts {
				pe := rederive(e, part)
				pe.Label = fmt.Sprintf("%s[%s]", e.Label, cells[i])
				members[i] = display.FromR(pe)
			}

			layout, userCols, err := parseLayout(p)
			if err != nil {
				return nil, err
			}
			if cols > 0 {
				layout, userCols = display.Tabular, cols
			}
			g, err := display.NewGroup(e.Label+" replicated", layout, userCols, members...)
			if err != nil {
				return nil, err
			}
			return []Value{g}, nil
		},
	})
}

func parseLayout(p Params) (display.Layout, int, error) {
	cols, err := p.Int("cols", 0)
	if err != nil {
		return 0, 0, err
	}
	switch p.Str("layout", "horizontal") {
	case "horizontal":
		return display.Horizontal, cols, nil
	case "vertical":
		return display.Vertical, cols, nil
	case "tabular":
		if cols <= 0 {
			return 0, 0, fmt.Errorf("tabular layout needs cols=")
		}
		return display.Tabular, cols, nil
	}
	return 0, 0, fmt.Errorf("unknown layout %q", p.Str("layout", ""))
}

// literal renders a value as expression source of the given kind.
func literal(k types.Kind, v types.Value) string {
	switch k {
	case types.Text:
		return "'" + v.String() + "'"
	case types.Date:
		y, m, d := v.YMD()
		return fmt.Sprintf("date(%d, %d, %d)", y, m, d)
	default:
		return v.String()
	}
}
