package engine

import (
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/figures"
	"repro/internal/relation"
)

// TestOpRecordGolden pins the bytes of encodeOpRecord for every value kind,
// so a log already on disk replays unchanged whatever the encoder's code
// becomes. Each record decodes back to the tuple it was made from.
func TestOpRecordGolden(t *testing.T) {
	db := MustOpen(figures.Fig3())
	course, offer := db.bind.tables["COURSE"], db.bind.tables["OFFER"]
	one := func(v relation.Value) effects {
		return effects{{table: course, tuple: relation.Tuple{v}, insert: true}}
	}
	mixed := relation.Tuple{relation.Null(), relation.NewString("x"), relation.NewInt(-1 << 40), relation.NewFloat(math.Inf(1)), relation.NewBool(false)}
	for _, c := range []struct {
		name  string
		eff   effects
		inTxn bool
		want  string
	}{
		{"null", one(relation.Null()), false, "0100010106434f555253450100"},
		{"empty-string", one(relation.NewString("")), false, "0100010106434f55525345010100"},
		{"string", one(relation.NewString("c1-Ω")), false, "0100010106434f5552534501010563312dcea9"},
		{"negative-int", one(relation.NewInt(-3)), false, "0100010106434f55525345010205"},
		{"large-int", one(relation.NewInt(math.MaxInt64)), false, "0100010106434f555253450102feffffffffffffffff01"},
		{"float", one(relation.NewFloat(-2.5)), false, "0100010106434f55525345010300000000000004c0"},
		{"bool", one(relation.NewBool(true)), false, "0100010106434f55525345010401"},
		{"mixed-in-txn", effects{{table: course, tuple: mixed}, {table: offer, tuple: relation.Tuple{relation.NewInt(7)}, insert: true}}, true,
			"0101020006434f55525345050001017802ffffffffff3f03000000000000f07f040001054f4646455201020e"},
	} {
		rec := encodeOpRecord(c.eff, c.inTxn)
		if got := hex.EncodeToString(rec); got != c.want {
			t.Errorf("%s: encodeOpRecord = %s, want %s", c.name, got, c.want)
		}
		kind, ops, inTxn, err := decodeWalRecord(rec)
		if err != nil || kind != walRecOp || inTxn != c.inTxn || len(ops) != len(c.eff) {
			t.Fatalf("%s: decodeWalRecord = %d, %d ops, inTxn %v, %v", c.name, kind, len(ops), inTxn, err)
		}
		for i, op := range ops {
			e := c.eff[i]
			if op.rel != e.table.name || op.insert != e.insert || !op.tup.Identical(e.tuple) || len(op.tup) != len(e.tuple) {
				t.Errorf("%s: op %d decodes to %s %v %v, want %s %v %v", c.name, i, op.rel, op.insert, op.tup, e.table.name, e.insert, e.tuple)
			}
		}
	}
}
