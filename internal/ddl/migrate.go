package ddl

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// MigrationSQL emits the data-migration script for a merge: its compiled
// core.Mapping, the paper's state mapping η (Definition 4.1) with the μ
// projections of any removals, printed as SQL. The merged table is populated
// from the member tables by a chain of outer joins on the (renamed) primary
// keys, and the member tables are dropped:
//
//	INSERT INTO COURSE2 (...)
//	SELECT ... FROM COURSE k
//	LEFT OUTER JOIN OFFER m1 ON m1.O_C_NR = k.C_NR
//	LEFT OUTER JOIN TEACH m2 ON m2.T_C_NR = k.C_NR ...
//
// Because the key-relation covers every member's key values (Prop. 3.1),
// left outer joins from it realize the paper's full outer-equi-join exactly;
// for a synthetic key-relation the key universe is materialized first as a
// UNION of the members' key projections.
func MigrationSQL(m *core.MergedScheme) string {
	mp := m.Mapping()
	attrs := m.Schema.Scheme(m.Name).AttrNames()
	var b strings.Builder
	fmt.Fprintf(&b, "-- Migration for Merge(%s) → %s\n", strings.Join(m.MemberNames(), ", "), sqlName(m.Name))
	fmt.Fprintf(&b, "-- Realizes the state mapping η of Definition 4.1")
	if n := len(mp.Removed); n > 0 {
		fmt.Fprintf(&b, " (with %d removal projection(s) composed in)", n)
	}
	b.WriteString("\n\n")

	// The driving table: the key-relation, or a key universe materialized
	// from every driver.
	driver, from := "k", sqlName(m.KeyRelation)+" k"
	if m.Synthetic {
		driver, from = "kk", sqlName(m.Name)+"_keys kk"
		b.WriteString("-- Synthetic key-relation: materialize the key universe first.\n")
		fmt.Fprintf(&b, "CREATE TABLE %s_keys (%s);\n", sqlName(m.Name), sqlNameList(m.Km))
		for _, d := range mp.Drivers {
			fmt.Fprintf(&b, "INSERT INTO %s_keys SELECT DISTINCT %s FROM %s;\n",
				sqlName(m.Name), sqlNameList(m.Members[d].Key), sqlName(m.Members[d].Name))
		}
		b.WriteString("\n")
	}

	// The key-relation is k, every other member m1, m2, … in merge order.
	alias, joined := make([]string, len(m.Members)), 0
	for i, mb := range m.Members {
		if alias[i] = "k"; mb.Name != m.KeyRelation {
			joined++
			alias[i] = fmt.Sprintf("m%d", joined)
		}
	}
	// One column per merged position, taken from its η source.
	var cols, exprs []string
	for p, src := range mp.Cols {
		table := driver // a synthetic Km attribute
		if src.Member >= 0 {
			table = alias[src.Member]
		}
		cols = append(cols, sqlName(attrs[p]))
		exprs = append(exprs, table+"."+sqlName(attrs[p]))
	}

	fmt.Fprintf(&b, "INSERT INTO %s (%s)\nSELECT %s\nFROM %s\n", sqlName(m.Name),
		strings.Join(cols, ", "), strings.Join(exprs, ", "), from)
	for i, mb := range m.Members {
		if alias[i] == "k" {
			continue
		}
		var conds []string
		for j, kp := range mp.Parts[i].Key {
			conds = append(conds, fmt.Sprintf("%s.%s = %s.%s",
				alias[i], sqlName(mb.Attrs[kp]), driver, sqlName(attrs[mp.Km[j]])))
		}
		fmt.Fprintf(&b, "LEFT OUTER JOIN %s %s ON %s\n", sqlName(mb.Name), alias[i], strings.Join(conds, " AND "))
	}
	b.WriteString(";\n\n")

	if m.Synthetic {
		fmt.Fprintf(&b, "DROP TABLE %s_keys;\n", sqlName(m.Name))
	}
	for _, mb := range m.Members {
		fmt.Fprintf(&b, "DROP TABLE %s;\n", sqlName(mb.Name))
	}
	return b.String()
}
