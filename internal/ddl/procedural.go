package ddl

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/schema"
)

// violationCondition is a SQL condition over the inserted/updated row that
// is TRUE when the program's §3 null constraint nc (never an NNA) is
// VIOLATED.
func violationCondition(nc schema.NullConstraint, row string) string {
	anyOf := func(conds []string) string { return "(" + strings.Join(conds, " OR ") + ")" }
	switch c := nc.(type) {
	case schema.NullExistence: // Y total and Z not total.
		return strings.Join(append(nullTests(c.Y, row, "NOT NULL"), anyOf(nullTests(c.Z, row, "NULL"))), " AND ")
	case schema.NullSync: // Partly null: some attribute null and some non-null.
		return anyOf(nullTests(c.Y, row, "NULL")) + " AND " + anyOf(nullTests(c.Y, row, "NOT NULL"))
	case schema.PartNull: // Every set has some null attribute.
		sets := make([]string, len(c.Sets))
		for i, set := range c.Sets {
			sets[i] = anyOf(nullTests(set, row, "NULL"))
		}
		return strings.Join(sets, " AND ")
	}
	// Total equality: both sides total and some pair differs.
	te := nc.(schema.TotalEquality)
	diff := make([]string, len(te.Y))
	for i := range te.Y {
		diff[i] = fmt.Sprintf("%s.%s <> %s.%s", row, sqlName(te.Y[i]), row, sqlName(te.Z[i]))
	}
	return notNullCondition(slices.Concat(te.Y, te.Z), row) + " AND " + anyOf(diff)
}

// writeSybaseTriggers emits Transact-SQL style triggers (SYBASE 4.0) for
// every procedural constraint of the program: one insert/update trigger per
// relation bundling its null-constraint checks, plus triggers for
// non-key-based inclusion dependencies (on the referencing side for
// insert/update, on the referenced side for delete/update).
func writeSybaseTriggers(b *strings.Builder, p *schema.Program) {
	for _, rc := range p.Rels {
		var checks []string
		for _, nc := range rc.Nulls {
			checks = append(checks, fmt.Sprintf(
				"    /* %s */\n    IF EXISTS (SELECT * FROM inserted WHERE %s)\n    BEGIN\n        RAISERROR 20001 \"null constraint violated: %s\"\n        ROLLBACK TRANSACTION\n    END",
				nc.Text, violationCondition(nc.Constraint, "inserted"), escapeMsg(nc.Text)))
		}
		if len(checks) == 0 {
			continue
		}
		fmt.Fprintf(b, "CREATE TRIGGER trg_%s_nulls ON %s FOR INSERT, UPDATE AS\nBEGIN\n%s\nEND\ngo\n\n",
			sqlName(rc.Name), sqlName(rc.Name), strings.Join(checks, "\n"))
	}
	for _, c := range p.INDs {
		if !c.KeyBased {
			writeSybaseINDTriggers(b, c.IND)
		}
	}
}

func writeSybaseINDTriggers(b *strings.Builder, ind schema.IND) {
	join := joinCondition(ind, "inserted", "t")
	notNull := notNullCondition(ind.LeftAttrs, "inserted")
	fmt.Fprintf(b, "CREATE TRIGGER trg_%s_ref_%s ON %s FOR INSERT, UPDATE AS\nBEGIN\n", sqlName(ind.Left), sqlName(strings.Join(ind.LeftAttrs, "_")), sqlName(ind.Left))
	fmt.Fprintf(b, "    /* %s */\n", ind)
	fmt.Fprintf(b, "    IF EXISTS (SELECT * FROM inserted WHERE %s\n", notNull)
	fmt.Fprintf(b, "               AND NOT EXISTS (SELECT * FROM %s t WHERE %s))\n", sqlName(ind.Right), join)
	fmt.Fprintf(b, "    BEGIN\n        RAISERROR 20002 \"inclusion dependency violated: %s\"\n        ROLLBACK TRANSACTION\n    END\nEND\ngo\n\n", escapeMsg(ind.String()))

	// Deletion/update on the referenced side must not strand referencing rows.
	joinDel := joinCondition(ind, "r", "deleted")
	fmt.Fprintf(b, "CREATE TRIGGER trg_%s_refd_%s ON %s FOR DELETE, UPDATE AS\nBEGIN\n", sqlName(ind.Right), sqlName(strings.Join(ind.RightAttrs, "_")), sqlName(ind.Right))
	fmt.Fprintf(b, "    /* %s (referenced side) */\n", ind)
	fmt.Fprintf(b, "    IF EXISTS (SELECT * FROM %s r, deleted WHERE %s)\n", sqlName(ind.Left), joinDel)
	fmt.Fprintf(b, "    BEGIN\n        RAISERROR 20003 \"inclusion dependency violated: %s\"\n        ROLLBACK TRANSACTION\n    END\nEND\ngo\n\n", escapeMsg(ind.String()))
}

// writeIngresRules emits INGRES 6.3 style rules: each procedural constraint
// of the program gets a rule firing a checking procedure after insert/update.
func writeIngresRules(b *strings.Builder, p *schema.Program) {
	for _, rc := range p.Rels {
		for i, nc := range rc.Nulls {
			proc := fmt.Sprintf("p_%s_null_%d", sqlName(rc.Name), i+1)
			fmt.Fprintf(b, "CREATE PROCEDURE %s AS\nBEGIN\n    /* %s */\n    RAISE ERROR 20001 'null constraint violated: %s';\nEND;\n",
				proc, nc.Text, escapeMsg(nc.Text))
			fmt.Fprintf(b, "CREATE RULE r_%s_null_%d AFTER INSERT, UPDATE OF %s\n    WHERE %s\n    EXECUTE PROCEDURE %s;\n\n",
				sqlName(rc.Name), i+1, sqlName(rc.Name), violationCondition(nc.Constraint, "new"), proc)
		}
	}
	n := 0
	for _, c := range p.INDs {
		if c.KeyBased {
			continue
		}
		ind := c.IND
		n++
		proc := fmt.Sprintf("p_ind_%d", n)
		fmt.Fprintf(b, "CREATE PROCEDURE %s AS\nBEGIN\n    /* %s */\n    RAISE ERROR 20002 'inclusion dependency violated: %s';\nEND;\n",
			proc, c.Text, escapeMsg(c.Text))
		fmt.Fprintf(b, "CREATE RULE r_ind_%d AFTER INSERT, UPDATE OF %s\n    WHERE %s AND NOT EXISTS (SELECT 1 FROM %s t WHERE %s)\n    EXECUTE PROCEDURE %s;\n\n",
			n, sqlName(ind.Left), notNullCondition(ind.LeftAttrs, "new"), sqlName(ind.Right), joinCondition(ind, "new", "t"), proc)
	}
}

func joinCondition(ind schema.IND, leftRow, rightRow string) string {
	var conds []string
	for i := range ind.LeftAttrs {
		conds = append(conds, fmt.Sprintf("%s.%s = %s.%s",
			rightRow, sqlName(ind.RightAttrs[i]), leftRow, sqlName(ind.LeftAttrs[i])))
	}
	return strings.Join(conds, " AND ")
}

func notNullCondition(attrs []string, row string) string {
	return strings.Join(nullTests(attrs, row, "NOT NULL"), " AND ")
}

// nullTests is "row.a IS test" for each attribute a.
func nullTests(attrs []string, row, test string) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = fmt.Sprintf("%s.%s IS %s", row, sqlName(a), test)
	}
	return out
}

func escapeMsg(s string) string {
	return strings.NewReplacer("\"", "'", "\n", " ").Replace(s)
}
