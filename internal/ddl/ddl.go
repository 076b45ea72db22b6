// Package ddl generates schema definitions (DDL) for relational schemas of
// the form (R, F ∪ I ∪ N), in the style of the SDT tool the paper describes
// in section 6, for three dialect families discussed in section 5.1:
//
//   - DB2 (declarative-only): supports PRIMARY KEY, NOT NULL, and key-based
//     FOREIGN KEY constraints. Non-key-based inclusion dependencies and
//     general null constraints are *not maintainable*; Generate returns an
//     error listing them, exactly the situation Prop. 5.1/5.2 characterize.
//   - SYBASE 4.0: unsupported constraints are compiled to CREATE TRIGGER
//     bodies (Transact-SQL style).
//   - INGRES 6.3: unsupported constraints are compiled to CREATE RULE
//     statements invoking checking procedures.
//
// Which constraints are procedural is read off the compiled program
// (schema.Compile): its §3 null constraints and non-key-based dependencies.
//
// Output is deterministic: tables in schema order, then declarative
// constraints, then procedural objects.
package ddl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/schema"
)

// Dialect selects the target system family.
type Dialect int

// The supported dialects.
const (
	DB2 Dialect = iota
	Sybase
	Ingres
)

// String returns the dialect name.
func (d Dialect) String() string {
	switch d {
	case DB2:
		return "db2"
	case Sybase:
		return "sybase"
	case Ingres:
		return "ingres"
	default:
		return fmt.Sprintf("dialect(%d)", int(d))
	}
}

// ParseDialect resolves a dialect name.
func ParseDialect(name string) (Dialect, error) {
	switch strings.ToLower(name) {
	case "db2":
		return DB2, nil
	case "sybase":
		return Sybase, nil
	case "ingres":
		return Ingres, nil
	default:
		return 0, fmt.Errorf("ddl: unknown dialect %q (want db2, sybase, or ingres)", name)
	}
}

// Options configure generation.
type Options struct {
	Dialect Dialect
	// TypeMap maps domain names to SQL types; unmapped domains fall back to
	// VARCHAR(64).
	TypeMap map[string]string
}

func (o Options) sqlType(domain string) string {
	if t, ok := o.TypeMap[domain]; ok {
		return t
	}
	return "VARCHAR(64)"
}

// UnsupportedError reports constraints the dialect cannot maintain.
type UnsupportedError struct {
	Dialect Dialect
	Items   []string
}

// Error implements error.
func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("ddl: %s cannot maintain %d constraint(s):\n  %s",
		e.Dialect, len(e.Items), strings.Join(e.Items, "\n  "))
}

// Generate emits the DDL for the schema under the options. For DB2, an
// *UnsupportedError is returned when the schema carries constraints outside
// the declarative subset (the generated DDL for the supported part is still
// returned alongside the error).
func Generate(s *schema.Schema, opts Options) (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	p, err := schema.Compile(s)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- Schema definition generated for %s\n", opts.Dialect)
	fmt.Fprintf(&b, "-- %d relation(s), %d inclusion dependencies, %d null constraints\n\n",
		len(s.Relations), len(s.INDs), len(s.Nulls))

	for _, rs := range s.Relations {
		writeTable(&b, s, rs, opts)
	}
	writeForeignKeys(&b, p)

	switch opts.Dialect {
	case DB2:
		var procedural []string
		for _, rc := range p.Rels {
			for _, nc := range rc.Nulls {
				procedural = append(procedural, "null constraint "+nc.Text)
			}
			for _, c := range rc.Out {
				if !c.KeyBased {
					procedural = append(procedural, "inclusion dependency "+c.Text)
				}
			}
		}
		if len(procedural) > 0 {
			sort.Strings(procedural)
			return b.String(), &UnsupportedError{Dialect: DB2, Items: procedural}
		}
	case Sybase:
		writeSybaseTriggers(&b, p)
	case Ingres:
		writeIngresRules(&b, p)
	}
	return b.String(), nil
}

func writeTable(b *strings.Builder, s *schema.Schema, rs *schema.RelationScheme, opts Options) {
	nna := s.NNAAttrs(rs.Name)
	fmt.Fprintf(b, "CREATE TABLE %s (\n", sqlName(rs.Name))
	for _, a := range rs.Attrs {
		fmt.Fprintf(b, "    %-24s %s", sqlName(a.Name), opts.sqlType(a.Domain))
		if nna[a.Name] {
			b.WriteString(" NOT NULL")
		} else {
			b.WriteString(" NULL")
		}
		b.WriteString(",\n")
	}
	fmt.Fprintf(b, "    PRIMARY KEY (%s)\n", sqlNameList(rs.PrimaryKey))
	b.WriteString(");\n")
	for _, ck := range rs.CandidateKeys {
		nullable := false
		for _, a := range ck {
			if !nna[a] {
				nullable = true
			}
		}
		if nullable {
			// Keys allowed to be null cannot be maintained as UNIQUE by
			// systems that consider all nulls identical (section 5.1); emit
			// a comment instead of a constraint.
			fmt.Fprintf(b, "-- WARNING: candidate key (%s) of %s allows nulls and cannot be\n",
				sqlNameList(ck), sqlName(rs.Name))
			fmt.Fprintf(b, "-- maintained declaratively (all null values are considered identical).\n")
		} else {
			fmt.Fprintf(b, "ALTER TABLE %s ADD UNIQUE (%s);\n", sqlName(rs.Name), sqlNameList(ck))
		}
	}
	b.WriteString("\n")
}

func writeForeignKeys(b *strings.Builder, p *schema.Program) {
	wrote := false
	for _, c := range p.INDs {
		if !c.KeyBased {
			continue
		}
		fmt.Fprintf(b, "ALTER TABLE %s ADD FOREIGN KEY (%s) REFERENCES %s (%s);\n",
			sqlName(c.IND.Left), sqlNameList(c.IND.LeftAttrs),
			sqlName(c.IND.Right), sqlNameList(c.IND.RightAttrs))
		wrote = true
	}
	if wrote {
		b.WriteString("\n")
	}
}

// sqlName converts the paper's dotted attribute names to identifier-safe
// names (O.C.NR → O_C_NR) and quotes nothing else.
func sqlName(name string) string {
	return strings.NewReplacer(".", "_", "'", "p", "+", "p", " ", "_").Replace(name)
}

func sqlNameList(names []string) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = sqlName(n)
	}
	return strings.Join(out, ", ")
}
