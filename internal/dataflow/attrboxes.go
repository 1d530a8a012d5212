package dataflow

import (
	"fmt"

	"repro/internal/display"
	"repro/internal/draw"
	"repro/internal/expr"
	"repro/internal/geom"
	"repro/internal/rel"
)

// registerAttrBoxes installs the location and display attribute
// operations of Figure 5: Add/Remove/Set/Swap/Scale/Translate Attribute
// and Combine Displays, plus the visualization-metadata boxes that
// designate location attributes and define display attributes from
// display specifications.
func registerAttrBoxes(r *Registry) {
	r.MustRegister(&Kind{
		Name:          "addattr",
		Doc:           "Add Attribute: add a computed attribute 'name' defined by expression 'def' (Figure 5).",
		ExampleParams: Params{"name": "a", "def": "0"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			name, err := p.Need("name")
			if err != nil {
				return nil, err
			}
			src, err := p.Need("def")
			if err != nil {
				return nil, err
			}
			def, err := expr.Parse(src)
			if err != nil {
				return nil, err
			}
			nr := e.Rel.CowClone()
			if err := nr.AddComputed(name, def); err != nil {
				return nil, err
			}
			return []Value{withRelation(e, nr)}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "removeattr",
		Doc:           "Remove Attribute: drop attribute 'name'; x, y, and display cannot be removed (Figure 5).",
		ExampleParams: Params{"name": "a"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			name, err := p.Need("name")
			if err != nil {
				return nil, err
			}
			// Guard rail: the x and y location attributes are required for
			// a valid visualization.
			for i, la := range e.LocAttrs {
				if la == name && i < 2 {
					return nil, fmt.Errorf("cannot remove attribute %q: it is the %s location attribute",
						name, []string{"x", "y"}[i])
				}
			}
			var nr *rel.Relation
			if e.Rel.Schema().Has(name) {
				nr, err = rel.DropColumn(e.Rel, name)
			} else {
				nr = e.Rel.CowClone()
				err = nr.RemoveComputed(name)
			}
			if err != nil {
				return nil, err
			}
			out := withRelation(e, nr)
			// Drop the attribute from slider dimensions if present.
			var locs []string
			for _, la := range out.LocAttrs {
				if la != name {
					locs = append(locs, la)
				}
			}
			out.LocAttrs = locs
			return []Value{out}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "setattr",
		Doc:           "Set Attribute: change the definition of attribute 'name' to expression 'def' (Figure 5).",
		ExampleParams: Params{"name": "a", "def": "0"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			name, err := p.Need("name")
			if err != nil {
				return nil, err
			}
			src, err := p.Need("def")
			if err != nil {
				return nil, err
			}
			def, err := expr.Parse(src)
			if err != nil {
				return nil, err
			}
			var nr *rel.Relation
			if e.Rel.Schema().Has(name) {
				nr, err = rel.MapColumn(e.Rel, name, def)
			} else {
				nr = e.Rel.CowClone()
				err = nr.SetComputed(name, def)
			}
			if err != nil {
				return nil, err
			}
			return []Value{withRelation(e, nr)}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "swapattr",
		Doc:           "Swap Attributes: interchange two attributes of the same type — two locations rotate the canvas; two displays change the visualization (Figure 5).",
		ExampleParams: Params{"a": "x", "b": "y"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			a, err := p.Need("a")
			if err != nil {
				return nil, err
			}
			b, err := p.Need("b")
			if err != nil {
				return nil, err
			}
			out := e.Clone()
			// Display attributes first: swapping display with an
			// alternative changes the visualization (Figure 9).
			if out.DisplayIndex(a) >= 0 && out.DisplayIndex(b) >= 0 {
				if err := out.SwapDisplays(a, b); err != nil {
					return nil, err
				}
				return []Value{out}, nil
			}
			// Location attributes: rotate the canvas.
			if contains(out.LocAttrs, a) && contains(out.LocAttrs, b) {
				if err := out.SwapLocations(a, b); err != nil {
					return nil, err
				}
				return []Value{out}, nil
			}
			// Stored columns of the same type.
			if e.Rel.Schema().Has(a) && e.Rel.Schema().Has(b) {
				nr, err := rel.SwapColumns(e.Rel, a, b)
				if err != nil {
					return nil, err
				}
				return []Value{withRelation(e, nr)}, nil
			}
			return nil, fmt.Errorf("cannot swap %q and %q: not both locations, both displays, or both stored columns", a, b)
		},
	})

	scaleTranslate := func(name, opName, op string) *Kind {
		return &Kind{
			Name:          name,
			Doc:           fmt.Sprintf("%s Attribute: %s numeric attribute 'name' by 'by' (Figure 5); a shorthand Set Attribute.", opName, opName),
			ExampleParams: Params{"name": "a", "by": "1"},
			Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
			Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
				e, err := asExtended(in[0])
				if err != nil {
					return nil, err
				}
				attr, err := p.Need("name")
				if err != nil {
					return nil, err
				}
				byStr, err := p.Need("by")
				if err != nil {
					return nil, err
				}
				k, ok := e.Rel.AttrKind(attr)
				if !ok {
					return nil, fmt.Errorf("no attribute %q", attr)
				}
				if !k.Numeric() {
					return nil, fmt.Errorf("%s is defined only for numeric attributes; %q is %s", opName, attr, k)
				}
				byExpr, err := expr.Parse(byStr)
				if err != nil {
					return nil, err
				}
				var nr *rel.Relation
				if e.Rel.Schema().Has(attr) {
					// Stored column: materialize attr op by; the
					// self-reference reads the old stored value.
					def := &expr.Binary{Op: op, L: &expr.Ref{Name: attr}, R: byExpr}
					nr, err = rel.MapColumn(e.Rel, attr, def)
				} else {
					// Computed attribute: substitute the old definition
					// to avoid a self-referential method.
					var old expr.Node
					for _, c := range e.Rel.Computed() {
						if c.Name == attr {
							old = c.Expr
							break
						}
					}
					if old == nil {
						return nil, fmt.Errorf("no computed attribute %q", attr)
					}
					nr = e.Rel.CowClone()
					err = nr.SetComputed(attr, &expr.Binary{Op: op, L: old, R: byExpr})
				}
				if err != nil {
					return nil, err
				}
				return []Value{withRelation(e, nr)}, nil
			},
		}
	}
	r.MustRegister(scaleTranslate("scaleattr", "Scale", "*"))
	r.MustRegister(scaleTranslate("translateattr", "Translate", "+"))

	r.MustRegister(&Kind{
		Name:          "setlocation",
		Doc:           "Set the location attributes: 'attrs' lists numeric attributes, x and y first, the rest slider dimensions (Section 5.1).",
		ExampleParams: Params{"attrs": "x,y"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			attrs := p.List("attrs")
			if len(attrs) < 2 {
				return nil, fmt.Errorf("setlocation needs at least x and y attributes")
			}
			out, err := display.NewExtended(e.Label, e.Rel, attrs, e.Displays)
			if err != nil {
				return nil, err
			}
			out.ElevRange = e.ElevRange
			return []Value{out}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "setdisplay",
		Doc:           "Define or replace display attribute 'name' from display spec 'spec'; 'active=true' makes it the display attribute.",
		ExampleParams: Params{"name": "display", "spec": "circle r=2"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			name, err := p.Need("name")
			if err != nil {
				return nil, err
			}
			spec, err := p.Need("spec")
			if err != nil {
				return nil, err
			}
			fn, err := draw.ParseSpec(spec)
			if err != nil {
				return nil, err
			}
			active, err := p.Bool("active", false)
			if err != nil {
				return nil, err
			}
			out := e.Clone()
			if i := out.DisplayIndex(name); i >= 0 {
				out.Displays[i].Fn = fn
			} else {
				out.Displays = append(out.Displays, display.NamedDisplay{Name: name, Fn: fn})
			}
			if active {
				if err := out.SwapDisplays(out.Displays[0].Name, name); err != nil {
					return nil, err
				}
			}
			return []Value{out}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "removedisplay",
		Doc:           "Remove an alternative display attribute; the active display cannot be removed (Figure 5's guard on 'display').",
		ExampleParams: Params{"name": "alt"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			name, err := p.Need("name")
			if err != nil {
				return nil, err
			}
			i := e.DisplayIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("no display attribute %q", name)
			}
			if i == 0 {
				return nil, fmt.Errorf("cannot remove the active display attribute %q", name)
			}
			out := e.Clone()
			out.Displays = append(out.Displays[:i:i], out.Displays[i+1:]...)
			return []Value{out}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "combinedisplays",
		Doc:           "Combine Displays: overlay display 'b' onto display 'a' at offset (dx, dy) producing display 'name' (Figure 5); used in Figure 4 for circle + station name.",
		ExampleParams: Params{"a": "display", "b": "alt", "name": "combined"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			aName, err := p.Need("a")
			if err != nil {
				return nil, err
			}
			bName, err := p.Need("b")
			if err != nil {
				return nil, err
			}
			newName := p.Str("name", aName+"+"+bName)
			dx, err := p.Float("dx", 0)
			if err != nil {
				return nil, err
			}
			dy, err := p.Float("dy", 0)
			if err != nil {
				return nil, err
			}
			ai, bi := e.DisplayIndex(aName), e.DisplayIndex(bName)
			if ai < 0 {
				return nil, fmt.Errorf("no display attribute %q", aName)
			}
			if bi < 0 {
				return nil, fmt.Errorf("no display attribute %q", bName)
			}
			active, err := p.Bool("active", true)
			if err != nil {
				return nil, err
			}
			fn := draw.CombineFuncs(e.Displays[ai].Fn, e.Displays[bi].Fn, geom.Pt(dx, dy))
			out := e.Clone()
			if i := out.DisplayIndex(newName); i >= 0 {
				out.Displays[i].Fn = fn
			} else {
				out.Displays = append(out.Displays, display.NamedDisplay{Name: newName, Fn: fn})
			}
			if active {
				if err := out.SwapDisplays(out.Displays[0].Name, newName); err != nil {
					return nil, err
				}
			}
			return []Value{out}, nil
		},
	})
}

// withRelation rebinds an extended relation to a new underlying relation,
// keeping visualization metadata when it remains valid.
func withRelation(e *display.Extended, nr *rel.Relation) *display.Extended {
	if e.SeqLayout {
		// The default display enumerates attributes, which may have
		// changed; rebuild it.
		return display.NewDefaultExtended(e.Label, nr, 80)
	}
	out := e.Clone()
	out.Rel = nr
	return out
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
