package schema

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/relation"
)

// Program is one design's F ∪ I ∪ N compiled to tuple positions: the one
// evaluator of its constraints, which alone decides what a null means to
// each. The engine's write plan and replay run its per-tuple checks; whole
// states are folded over a row source, in two halves: per-tuple checks and
// FDs relation by relation (CheckRows), and INDs (CheckINDs). The Satisfied
// methods are the reference the tests compare it against.
type Program struct {
	Rels   []*RelCheck // one per relation-scheme, in declaration order
	INDs   []*INDCheck // in schema order
	byName map[string]*RelCheck
}

// RelCheck is one relation's compiled constraints, as positions in scheme
// attribute order: NNA ascending, the rest in schema order. Hdr is the empty
// relation they were resolved against; never add tuples to it.
type RelCheck struct {
	Name  string
	Hdr   *relation.Relation
	NNA   []int
	Nulls []NullCheck
	FDs   []FDCheck
	Out   []*INDCheck // the INDs whose left side it is
}

// FDCheck is the functional dependency Text as LHS and RHS positions.
type FDCheck struct {
	LHS, RHS []int
	Text     string
}

// INDCheck is one inclusion dependency resolved to positions: a left tuple
// at LeftPos references a right one at RightPos when the two encode alike.
// ProbePos is LeftPos in the referenced primary key's order when the
// dependency is key-based (so it encodes that key), LeftPos otherwise.
type INDCheck struct {
	IND                         IND
	Text                        string // IND.String(), the Constraint of a violation
	KeyBased                    bool
	LeftPos, RightPos, ProbePos []int
}

// nullKind discriminates the paper's §3 null constraints.
type nullKind uint8

const (
	nullExistence nullKind = iota + 1 // Y ⊑ Z
	nullSync                          // NS(Y)
	partNull                          // PN(Y1, …, Ym)
	totalEquality                     // Y =⊥ Z
)

// NullCheck is one §3 null constraint compiled to positions. It decides
// exactly what the constraint's Satisfied method decides on the one-row
// relation holding the tuple.
type NullCheck struct {
	kind       nullKind
	y, z       []int   // existence: Y, Z; sync: Y; total equality: Y, Z pairwise (equal length, schema-validated)
	sets       [][]int // part-null
	Constraint NullConstraint
	Text       string // fmt.Sprint(Constraint), the Constraint of a violation
}

// OK reports whether tup satisfies the constraint.
func (c *NullCheck) OK(tup relation.Tuple) bool {
	switch c.kind {
	case nullExistence:
		return !tup.TotalAt(c.y) || tup.TotalAt(c.z)
	case nullSync:
		nulls := 0
		for _, p := range c.y {
			if tup[p].IsNull() {
				nulls++
			}
		}
		return nulls == 0 || nulls == len(c.y)
	case partNull:
		for _, set := range c.sets {
			if tup.TotalAt(set) {
				return true
			}
		}
		return false
	default: // totalEquality
		if !tup.TotalAt(c.y) || !tup.TotalAt(c.z) {
			return true
		}
		for i, p := range c.y {
			if !tup[p].Equal(tup[c.z[i]]) {
				return false
			}
		}
		return true
	}
}

// compileNull resolves a null constraint's attribute lists against hdr.
func compileNull(nc NullConstraint, hdr *relation.Relation) (NullCheck, error) {
	c := NullCheck{Constraint: nc, Text: fmt.Sprint(nc)}
	switch nc := nc.(type) {
	case NullExistence:
		c.kind, c.y, c.z = nullExistence, hdr.Positions(nc.Y), hdr.Positions(nc.Z)
	case NullSync:
		c.kind, c.y = nullSync, hdr.Positions(nc.Y)
	case PartNull:
		c.kind = partNull
		for _, set := range nc.Sets {
			c.sets = append(c.sets, hdr.Positions(set))
		}
	case TotalEquality:
		c.kind, c.y, c.z = totalEquality, hdr.Positions(nc.Y), hdr.Positions(nc.Z)
	default:
		return c, fmt.Errorf("schema: no evaluator for null constraint %s (%T)", nc, nc)
	}
	return c, nil
}

// Compile compiles the constraints of s, which must be valid (Validate).
func Compile(s *Schema) (*Program, error) {
	p := &Program{byName: make(map[string]*RelCheck, len(s.Relations))}
	for _, rs := range s.Relations {
		rc := &RelCheck{Name: rs.Name, Hdr: relation.New(rs.AttrNames()...)}
		nna := s.NNAAttrs(rs.Name)
		for i, a := range rs.Attrs {
			if nna[a.Name] {
				rc.NNA = append(rc.NNA, i)
			}
		}
		p.Rels = append(p.Rels, rc)
		p.byName[rs.Name] = rc
	}
	for _, fd := range s.FDs {
		rc := p.byName[fd.Scheme]
		rc.FDs = append(rc.FDs, FDCheck{LHS: rc.Hdr.Positions(fd.LHS), RHS: rc.Hdr.Positions(fd.RHS), Text: fd.String()})
	}
	for _, nc := range s.Nulls {
		if ne, ok := nc.(NullExistence); ok && ne.IsNNA() {
			continue // NNA positions
		}
		rc := p.byName[nc.SchemeName()]
		c, err := compileNull(nc, rc.Hdr)
		if err != nil {
			return nil, err
		}
		rc.Nulls = append(rc.Nulls, c)
	}
	for _, ind := range s.INDs {
		c := &INDCheck{IND: ind, Text: ind.String(), KeyBased: ind.KeyBased(s),
			LeftPos:  p.byName[ind.Left].Hdr.Positions(ind.LeftAttrs),
			RightPos: p.byName[ind.Right].Hdr.Positions(ind.RightAttrs),
		}
		if c.ProbePos = c.LeftPos; c.KeyBased {
			c.ProbePos = make([]int, len(c.LeftPos))
			for i, ka := range s.Scheme(ind.Right).PrimaryKey {
				c.ProbePos[i] = c.LeftPos[slices.Index(ind.RightAttrs, ka)]
			}
		}
		p.INDs = append(p.INDs, c)
		p.byName[ind.Left].Out = append(p.byName[ind.Left].Out, c)
	}
	return p, nil
}

// Rel returns the named relation's entry, or nil.
func (p *Program) Rel(name string) *RelCheck { return p.byName[name] }

// Procedural counts the constraints outside the declarative subset of
// Props. 5.1 and 5.2 (NOT NULL, PRIMARY KEY, key-based FOREIGN KEY): the §3
// null constraints other than NNA and the non-key-based dependencies, each a
// SYBASE trigger or an INGRES rule that fires once per insert.
func (p *Program) Procedural() int {
	n := 0
	for _, rc := range p.Rels {
		n += rc.InsertCounts().TriggerFirings
	}
	return n
}

// Counts are the engine's constraint-maintenance counters for one operation.
type Counts struct {
	DeclarativeChecks, TriggerFirings, IndexLookups int
}

// InsertCounts is what the engine counts for an accepted insert into the
// relation of a tuple total on every left side of Out: one declarative check
// per attribute's NOT NULL, one for the primary key and one per key-based
// dependency; one trigger firing per §3 null constraint and per other
// dependency; one index probe for the key and one per dependency.
func (rc *RelCheck) InsertCounts() Counts {
	c := Counts{DeclarativeChecks: rc.Hdr.Arity() + 1, TriggerFirings: len(rc.Nulls), IndexLookups: 1 + len(rc.Out)}
	for _, ic := range rc.Out {
		if ic.KeyBased {
			c.DeclarativeChecks++
		} else {
			c.TriggerFirings++
		}
	}
	return c
}

// Broken returns the first of the relation's NNA and §3 null constraints tup
// breaks, in the paper's notation, or "" if none: the per-tuple check.
func (rc *RelCheck) Broken(tup relation.Tuple) string {
	for _, p := range rc.NNA {
		if tup[p].IsNull() {
			return NNA(rc.Name, rc.Hdr.Attrs()[p]).String()
		}
	}
	for i := range rc.Nulls {
		if !rc.Nulls[i].OK(tup) {
			return rc.Nulls[i].Text
		}
	}
	return ""
}

// Rows is a row source: it calls yield with each row of the named relation,
// in its scheme's attribute order, until yield returns false.
type Rows func(name string, yield func(relation.Tuple) bool)

// Check folds both halves over rows: nil, or the first violation of the
// first kind violated in the order FD, IND, null constraint.
func (p *Program) Check(rows Rows) error {
	fd, null := p.rowHalf(rows)
	return cmp.Or(fd, p.CheckINDs(rows), null)
}

// CheckRows folds the row half over rows: all one partition of a state can
// be checked against on its own.
func (p *Program) CheckRows(rows Rows) error { return cmp.Or(p.rowHalf(rows)) }

// rowHalf returns the first FD and the first per-tuple violation. Rows whose
// FD left sides encode alike (nulls identical) must be Identical on its
// right side: FD Satisfied, and the DBMS behaviour of section 5.1.
func (p *Program) rowHalf(rows Rows) (fd, null error) {
	var buf []byte
	for _, rc := range p.Rels {
		seen := make(map[string]relation.Tuple) // FD index, then left side → first row
		rows(rc.Name, func(tup relation.Tuple) bool {
			if c := rc.Broken(tup); c != "" && null == nil {
				null = fmt.Errorf("null constraint violated: %s", c)
			}
			for i, f := range rc.FDs {
				buf = tup.AppendKeyAt(binary.AppendUvarint(buf[:0], uint64(i)), f.LHS)
				if prev, ok := seen[string(buf)]; !ok {
					seen[string(buf)] = tup
				} else if !prev.IdenticalAt(tup, f.RHS) {
					fd = fmt.Errorf("FD violated: %s", f.Text)
					return false
				}
			}
			return true
		})
		if fd != nil {
			return fd, nil
		}
	}
	return nil, null
}

// CheckINDs folds the IND half over rows: π↓ of each dependency's left side
// (a null there exempts the row) must lie in π↓ of its right side, as IND
// Satisfied decides. A relation is read once for all its dependencies.
func (p *Program) CheckINDs(rows Rows) error {
	var buf []byte
	refs := make(map[*INDCheck]map[string]bool, len(p.INDs))
	for _, c := range p.INDs {
		refs[c] = make(map[string]bool)
		rows(c.IND.Right, func(tup relation.Tuple) bool {
			if tup.TotalAt(c.RightPos) {
				buf = tup.AppendKeyAt(buf[:0], c.RightPos)
				refs[c][string(buf)] = true
			}
			return true
		})
	}
	var dangling *INDCheck
	for _, rc := range p.Rels {
		rows(rc.Name, func(tup relation.Tuple) bool {
			for _, c := range rc.Out {
				if !tup.TotalAt(c.LeftPos) {
					continue
				}
				if buf = tup.AppendKeyAt(buf[:0], c.LeftPos); !refs[c][string(buf)] {
					dangling = c
					return false
				}
			}
			return true
		})
		if dangling != nil {
			return fmt.Errorf("IND violated: %s", dangling.Text)
		}
	}
	return nil
}
