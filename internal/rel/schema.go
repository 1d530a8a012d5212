// Package rel implements the relational half of the Tioga-2 substrate: an
// object-relational table model with stored attributes and computed
// ("method") attributes defined by expressions, the database operations of
// Figure 3 (Project, Restrict, Sample, Join), and the attribute operations
// of Figure 5 (Add/Remove/Set/Swap/Scale/Translate Attribute). The
// visualization-specific designation of location and display attributes
// lives one layer up, in internal/display.
package rel

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Column is one stored attribute: a name and an atomic type.
type Column struct {
	Name string
	Kind types.Kind
}

// Schema is an ordered list of stored columns. Schemas are immutable after
// construction; operators derive new schemas.
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a schema, rejecting duplicate or empty column names
// and kinds outside types.Int..types.Date.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("rel: column %d has empty name", i)
		}
		if c.Kind < types.Int || c.Kind > types.Date {
			return nil, fmt.Errorf("rel: column %q has invalid type %s", c.Name, c.Kind)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("rel: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for fixtures.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of stored columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns the i'th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the named column exists.
func (s *Schema) Has(name string) bool { return s.Index(name) >= 0 }

// KindOf returns the type of the named column.
func (s *Schema) KindOf(name string) (types.Kind, bool) {
	i := s.Index(name)
	if i < 0 {
		return types.Invalid, false
	}
	return s.cols[i].Kind, true
}

// String renders the schema as "(name type, ...)".
func (s *Schema) String() string {
	parts := make([]string, len(s.cols))
	for i, c := range s.cols {
		parts[i] = c.Name + " " + c.Kind.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Equal reports whether two schemas have identical columns in order. Edge
// type compatibility in the dataflow graph reduces to schema equality for
// relation-typed ports.
func (s *Schema) Equal(t *Schema) bool {
	if s == nil || t == nil {
		return s == t
	}
	if len(s.cols) != len(t.cols) {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != t.cols[i] {
			return false
		}
	}
	return true
}

// project returns the schema restricted to the named columns, in the given
// order.
func (s *Schema) project(names []string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i := s.Index(n)
		if i < 0 {
			return nil, fmt.Errorf("rel: project: no column %q in %s", n, s)
		}
		cols = append(cols, s.cols[i])
	}
	return NewSchema(cols...)
}
