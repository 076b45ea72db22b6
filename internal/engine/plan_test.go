package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/schema"
)

// randomRow fills arity columns with nulls and values from a domain of three,
// so null patterns of every shape and both equal and unequal pairs come up.
func randomRow(rng *rand.Rand, arity int) relation.Tuple {
	row := make(relation.Tuple, arity)
	for i := range row {
		if rng.Intn(3) > 0 {
			row[i] = relation.NewString(fmt.Sprintf("v%d", rng.Intn(3)))
		}
	}
	return row
}

// agree checks one compiled constraint against its reference on one row: the
// check on the tuple must decide what Satisfied decides on the one-row
// relation holding it.
func agree(t *testing.T, nc schema.NullConstraint, hdr *relation.Relation, row relation.Tuple) {
	t.Helper()
	c, err := compileNull(nc, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.ok(row), nc.Satisfied(relation.FromTuples(hdr.Attrs(), row)); got != want {
		t.Fatalf("%s on %v: compiled check says %v, Satisfied says %v", nc, row, got, want)
	}
}

// TestCompiledNullChecksMatchReference is the differential test of the write
// plan's null-constraint evaluator: for each of the four constraint kinds,
// over random attribute lists and random null patterns, and for every null
// constraint of the figures' merged schemas, the compiled check equals the
// schema package's Satisfied — the engine's null semantics, kept bit for bit.
func TestCompiledNullChecksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	attrs := []string{"A", "B", "C", "D", "E", "F"}
	hdr := relation.New(attrs...)
	pick := func(n int) []string {
		out := make([]string, n)
		for i, p := range rng.Perm(len(attrs))[:n] {
			out[i] = attrs[p]
		}
		return out
	}
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(3)
		constraints := []schema.NullConstraint{
			schema.NewNullExistence("R", pick(rng.Intn(3)), pick(1+rng.Intn(3))),
			schema.NewNullSync("R", pick(1+rng.Intn(4))...),
			schema.NewPartNull("R", pick(1+rng.Intn(2)), pick(1+rng.Intn(3))),
			schema.NewTotalEquality("R", pick(n), pick(n)),
		}
		for _, nc := range constraints {
			for i := 0; i < 40; i++ {
				agree(t, nc, hdr, randomRow(rng, len(attrs)))
			}
		}
	}

	merges := []struct {
		set  []string
		name string
	}{
		{[]string{"COURSE", "OFFER", "TEACH"}, "COURSE'"},            // figure 4
		{[]string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''"}, // figures 5–6
	}
	for _, m := range merges {
		for _, removed := range []bool{false, true} {
			ms, err := core.Merge(figures.Fig3(), m.set, m.name)
			if err != nil {
				t.Fatal(err)
			}
			if removed {
				ms.RemoveAll()
			}
			checked := 0
			for _, nc := range ms.Schema.Nulls {
				rs := ms.Schema.Scheme(nc.SchemeName())
				h := relation.New(rs.AttrNames()...)
				for i := 0; i < 200; i++ {
					agree(t, nc, h, randomRow(rng, len(rs.Attrs)))
				}
				checked++
			}
			if checked == 0 {
				t.Fatalf("%s (removed=%v) carries no null constraint", m.name, removed)
			}
		}
	}
}

// TestRedundantKeyIndexDropped: a dependency whose referencing attributes are
// the referencing table's own primary key gets no secondary index — the pk
// index answers its restrict probe — and the probe still restricts.
func TestRedundantKeyIndexDropped(t *testing.T) {
	db := MustOpen(figures.Fig3())
	// OFFER[O.C.NR] ⊆ COURSE[C.NR] with O.C.NR the key of OFFER; its other
	// dependency, OFFER[O.D.NAME] ⊆ DEPARTMENT[D.NAME], does need an index.
	offer := db.bind.tables["OFFER"]
	if len(offer.sec) != 1 || offer.hdr.Attrs()[offer.sec[0][0]] != "O.D.NAME" {
		t.Fatalf("OFFER should carry exactly the index on O.D.NAME, has %v", offer.sec)
	}
	var onKey *indPlan
	for _, ip := range offer.out {
		if ip.right.name == "COURSE" {
			onKey = ip
		}
	}
	if onKey == nil || onKey.leftSlot != pkSlot {
		t.Fatalf("OFFER[O.C.NR] ⊆ COURSE[C.NR] should be answered by the pk index, plan %+v", onKey)
	}
	for _, ins := range []struct {
		rel string
		row relation.Tuple
	}{{"COURSE", tup("c1")}, {"DEPARTMENT", tup("math")}, {"OFFER", tup("c1", "math")}} {
		if err := db.InsertCtx(context.Background(), ins.rel, ins.row); err != nil {
			t.Fatal(err)
		}
	}
	before := db.StatsTotals()
	err := db.DeleteCtx(context.Background(), "COURSE", tup("c1"))
	if cv, ok := err.(*ConstraintViolation); !ok || cv.Kind != RestrictViolation {
		t.Fatalf("deleting a referenced COURSE = %v, want a restrict violation", err)
	}
	if got := db.StatsTotals().Sub(before).IndexLookups; got != 1 {
		t.Errorf("the restrict probe cost %d index lookups, want 1", got)
	}
	if keys := db.ReferencingKeys(onKey.ind, tup("c1").AppendKey(nil)); len(keys) != 1 || keys[0] != tup("c1").EncodeKey() {
		t.Errorf("ReferencingKeys through the pk index = %q", keys)
	}
	if err := db.DeleteCtx(context.Background(), "OFFER", tup("c1")); err != nil {
		t.Fatal(err)
	}
	if keys := db.ReferencingKeys(onKey.ind, tup("c1").AppendKey(nil)); keys != nil {
		t.Errorf("ReferencingKeys after the delete = %q", keys)
	}
	if err := db.DeleteCtx(context.Background(), "COURSE", tup("c1")); err != nil {
		t.Fatalf("deleting an unreferenced COURSE: %v", err)
	}
}
