package engine

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/schema"
)

// This file turns a design's constraint program (schema.Program) into each
// table's write plan, once per design; from then on every per-operation path
// — validation, index maintenance, fetch hops, restrict probes — works on
// tuple positions and index slots and never looks an attribute up by name.

// pkSlot stands for "the primary-key index" where a secondary-index slot is
// expected: an inclusion dependency whose left attribute list is the
// referencing table's own primary key needs no secondary index, because the
// pk index answers "does a tuple with this value exist" by itself.
const pkSlot = -1

// indPlan is one inclusion dependency Left[LeftAttrs] ⊆ Right[RightAttrs]:
// the program's positions on both sides (ProbePos, RightPos, KeyBased) plus
// the tables and index slots the engine probes them in.
type indPlan struct {
	*schema.INDCheck
	left, right *table
	// leftSlot is left's index over LeftAttrs (pkSlot if that is its primary
	// key); rightSlot is right's secondary index over RightAttrs, meaningful
	// only when the dependency is not key-based.
	leftSlot, rightSlot int
	// edge is the co-access counter of Left->Right (coaccess.go).
	edge *coEdge
}

// compilePlans fills in every table's write plan from the binding's program.
// Tables exist already (catalog, headers, pk positions, ordinals).
func (b *binding) compilePlans() error {
	// The secondary-index set is fixed here: one index per referencing side
	// (delete/update restrict checks) unless the pk index already is that
	// index, plus the referenced side of every non-key-based dependency
	// (insert probes, fetch hops). No read-shaped operation ever builds one.
	type slotKey struct {
		t     *table
		attrs string
	}
	slots := make(map[slotKey]int)
	slotOf := func(t *table, attrs []string) int {
		if slices.Equal(attrs, t.rs.PrimaryKey) {
			return pkSlot
		}
		k := slotKey{t, strings.Join(attrs, ",")}
		slot, ok := slots[k]
		if !ok {
			slot = len(t.sec)
			slots[k] = slot
			t.sec = append(t.sec, t.prog.Hdr.Positions(attrs))
		}
		return slot
	}
	for _, c := range b.prog.INDs {
		left, right := b.tables[c.IND.Left], b.tables[c.IND.Right]
		if pk := right.rs.PrimaryKey; c.KeyBased && len(c.IND.RightAttrs) != len(pk) {
			// IND.KeyBased compares attribute sets, so a right side like
			// [K1, K1, K2] passes validation against the key [K1, K2].
			return fmt.Errorf("%w: %s lists %d right-side attributes for the %d-attribute key of %s",
				ErrMalformedIND, c.IND, len(c.IND.RightAttrs), len(pk), c.IND.Right)
		}
		ip := &indPlan{INDCheck: c, left: left, right: right, leftSlot: slotOf(left, c.IND.LeftAttrs)}
		if !ip.KeyBased {
			ip.rightSlot = slotOf(right, c.IND.RightAttrs)
		}
		left.out = append(left.out, ip)
		right.in = append(right.in, ip)
	}
	return nil
}

// planOf resolves an inclusion dependency handed in by value (the shard
// router's probe hooks speak schema.IND) to its plan, or nil.
func (b *binding) planOf(ind schema.IND) *indPlan {
	t := b.tables[ind.Left]
	if t == nil {
		return nil
	}
	for _, ip := range t.out {
		if ip.IND.Right == ind.Right && slices.Equal(ip.IND.LeftAttrs, ind.LeftAttrs) && slices.Equal(ip.IND.RightAttrs, ind.RightAttrs) {
			return ip
		}
	}
	return nil
}
