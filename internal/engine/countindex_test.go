package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestIndexCountsFollowHistory holds the secondary indexes to the invariant
// every probe of them rests on: a slot maps each value to the number of rows
// carrying it, and stores no zero. A seeded history — inserts, FK-moving
// updates, deletes, refused ops, batches (one of them violating), rolled-back
// transactions, a live migration, and a checkpoint followed by a reopen that
// replays the log suffix — runs on the chain design (merged early, so most of
// the history is on the merged chain), on the star design (merged late), and
// on figure 3 merged to figure 4, whose non-key-based dependency ASSIST[A.C.NR]
// ⊆ COURSE'[O.C.NR] indexes a referenced side. After every step each slot
// must equal a recount from its table's pk map; at the end every fetch hop
// must land on a row carrying the referencing value.
func TestIndexCountsFollowHistory(t *testing.T) {
	chain, err := translate.MS(workload.ChainEER(3))
	if err != nil {
		t.Fatal(err)
	}
	star, err := translate.MS(workload.StarEER(3))
	if err != nil {
		t.Fatal(err)
	}
	onE0 := func(s *schema.Schema) core.Spec {
		return core.Spec{Cluster: workload.MergeSetFor(s, "E0"), Name: "MERGED", KeyRelation: "E0"}
	}
	for _, d := range []struct {
		name      string
		s         *schema.Schema
		spec      core.Spec
		migrateAt int
	}{
		{"chain", chain, onE0(chain), 60},
		{"star", star, onE0(star), 300},
		{"fig3-to-fig4", figures.Fig3(), core.Spec{Cluster: []string{"COURSE", "OFFER", "TEACH"}, Name: "COURSE'", KeyRelation: "COURSE"}, 150},
	} {
		t.Run(d.name, func(t *testing.T) {
			h := &history{t: t, rng: rand.New(rand.NewSource(int64(len(d.name))))}
			h.run(d.s, d.spec, d.migrateAt)
		})
	}
}

// history drives one design through a seeded run of operations built from
// whatever design the engine holds: foreign keys copy a referenced row's
// values (or are null, or dangle on purpose), keys are fresh, other
// attributes come from a small pool so that values repeat.
type history struct {
	t                 *testing.T
	db                *engine.DB
	rng               *rand.Rand
	fresh             int
	accepted, refused int
	largest           uint32 // the largest index count seen
}

func (h *history) run(s *schema.Schema, spec core.Spec, migrateAt int) {
	t, ctx := h.t, context.Background()
	const steps, checkpointAt, reopenAt = 400, 220, 280
	dir := t.TempDir()
	open := func() *engine.DB {
		db, err := engine.Open(s, engine.WithDurability(dir, wal.SyncNever))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	h.db = open()
	defer func() { h.db.Close() }()
	for step := 0; step < steps; step++ {
		var what string
		switch step {
		case migrateAt:
			what = "migration"
			if err := h.db.MigrateSchema(spec); err != nil {
				t.Fatalf("step %d: MigrateSchema: %v", step, err)
			}
		case checkpointAt:
			what = "checkpoint"
			if err := h.db.Checkpoint(); err != nil {
				t.Fatalf("step %d: Checkpoint: %v", step, err)
			}
		case reopenAt:
			what = "reopen"
			want := h.db.Snapshot()
			if err := h.db.Close(); err != nil {
				t.Fatal(err)
			}
			h.db = open()
			if info := h.db.Recovered(); !info.SnapshotLoaded || info.ReplayedOps == 0 {
				t.Fatalf("step %d: reopen recovered %+v, want a checkpoint and a replayed suffix", step, info)
			}
			if got := h.db.Snapshot(); !got.Equal(want) {
				t.Fatalf("step %d: reopened state differs from the closed one", step)
			}
		default:
			what = h.step(ctx)
		}
		h.check(fmt.Sprintf("step %d (%s)", step, what))
	}
	h.checkFetchHops()
	t.Logf("%d ops accepted, %d refused, largest count %d", h.accepted, h.refused, h.largest)
	if h.accepted < steps/4 || h.refused < steps/10 || h.largest < 3 {
		t.Fatalf("history too one-sided to mean much: %d accepted, %d refused, largest count %d", h.accepted, h.refused, h.largest)
	}
}

// check holds the engine's secondary indexes to a recount.
func (h *history) check(when string) {
	largest, err := engine.IndexCounts(h.db)
	if err != nil {
		h.t.Fatalf("%s: %v", when, err)
	}
	h.largest = max(h.largest, largest)
}

// step runs one random operation and names it.
func (h *history) step(ctx context.Context) string {
	t, db := h.t, h.db
	switch r := h.rng.Intn(100); {
	case r < 40:
		name := h.relation()
		h.count(db.InsertCtx(ctx, name, h.gen(name)))
		return "insert"
	case r < 60:
		h.update(ctx)
		return "update"
	case r < 72:
		h.delete(ctx)
		return "delete"
	case r < 80:
		name, tup := h.dangling()
		if name == "" {
			return "no-op"
		}
		h.refuse(func() error { return db.InsertCtx(ctx, name, tup) }, "dangling insert")
		return "dangling insert"
	case r < 86:
		var ops []engine.BatchOp
		for i := h.rng.Intn(3); i >= 0; i-- {
			name := h.relation()
			ops = append(ops, engine.Ins(name, h.gen(name)))
		}
		h.count(db.ApplyBatchCtx(ctx, ops))
		return "batch"
	case r < 92:
		name, tup := h.dangling()
		if name == "" {
			return "no-op"
		}
		other := h.relation()
		ops := []engine.BatchOp{engine.Ins(other, h.gen(other)), engine.Ins(name, tup)}
		h.refuse(func() error { return db.ApplyBatchCtx(ctx, ops) }, "batch with a dangling insert")
		return "violating batch"
	default:
		before := db.Snapshot()
		if err := db.Begin(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			switch name := h.relation(); h.rng.Intn(3) {
			case 0:
				h.count(db.InsertCtx(ctx, name, h.gen(name)))
			case 1:
				h.update(ctx)
			default:
				h.delete(ctx)
			}
			h.check("inside a transaction")
		}
		if err := db.Rollback(); err != nil {
			t.Fatal(err)
		}
		if !db.Snapshot().Equal(before) {
			t.Fatal("rollback did not restore the state the transaction began on")
		}
		return "rolled-back transaction"
	}
}

// count tallies an operation that may or may not be accepted; an error other
// than a constraint violation fails the test.
func (h *history) count(err error) {
	var cv *engine.ConstraintViolation
	switch {
	case err == nil:
		h.accepted++
	case errors.As(err, &cv):
		h.refused++
	default:
		h.t.Fatalf("operation failed outside the constraints: %v", err)
	}
}

// refuse runs an operation that must be refused and must publish nothing.
func (h *history) refuse(op func() error, what string) {
	lsn := h.db.VersionLSN()
	var cv *engine.ConstraintViolation
	if err := op(); !errors.As(err, &cv) {
		h.t.Fatalf("%s = %v, want a constraint violation", what, err)
	}
	if h.db.VersionLSN() != lsn {
		h.t.Fatalf("refused %s published a version", what)
	}
	h.refused++
}

func (h *history) update(ctx context.Context) {
	name := h.relation()
	old := h.pick(name)
	if old == nil {
		return
	}
	pk := h.db.Header(name).Positions(h.db.Schema.Scheme(name).PrimaryKey)
	tup := h.gen(name)
	for _, p := range pk {
		tup[p] = old[p]
	}
	h.count(h.db.UpdateCtx(ctx, name, old.Project(pk), tup))
}

func (h *history) delete(ctx context.Context) {
	name := h.relation()
	if old := h.pick(name); old != nil {
		pk := h.db.Header(name).Positions(h.db.Schema.Scheme(name).PrimaryKey)
		h.count(h.db.DeleteCtx(ctx, name, old.Project(pk)))
	}
}

// dangling builds a row of the referencing side of a random dependency whose
// referencing value exists nowhere.
func (h *history) dangling() (string, relation.Tuple) {
	inds := h.db.Schema.INDs
	if len(inds) == 0 {
		return "", nil
	}
	ind := inds[h.rng.Intn(len(inds))]
	tup := h.gen(ind.Left)
	for _, p := range h.db.Header(ind.Left).Positions(ind.LeftAttrs) {
		h.fresh++
		tup[p] = relation.NewString(fmt.Sprintf("missing-%d", h.fresh))
	}
	return ind.Left, tup
}

func (h *history) relation() string {
	rels := h.db.Schema.Relations
	return rels[h.rng.Intn(len(rels))].Name
}

// rows lists the relation's rows in the current version that are total on
// the given positions.
func (h *history) rows(name string, total []int) []relation.Tuple {
	var out []relation.Tuple
	pred := func(tup relation.Tuple) bool { return tup.TotalAt(total) }
	if err := h.db.Scan(name, pred, func(tup relation.Tuple) { out = append(out, tup) }); err != nil {
		h.t.Fatal(err)
	}
	return out
}

func (h *history) pick(name string) relation.Tuple {
	rows := h.rows(name, nil)
	if len(rows) == 0 {
		return nil
	}
	return rows[h.rng.Intn(len(rows))]
}

// gen builds a candidate row of name for the design the engine holds.
func (h *history) gen(name string) relation.Tuple {
	s, hdr := h.db.Schema, h.db.Header(name)
	rs, nna := s.Scheme(name), s.NNAAttrs(name)
	tup := make(relation.Tuple, hdr.Arity())
	for i := range tup {
		tup[i] = relation.Null()
	}
	set := make([]bool, len(tup))
	for _, ind := range s.INDs {
		if ind.Left != name {
			continue
		}
		lp := hdr.Positions(ind.LeftAttrs)
		nullable := true
		for _, p := range lp {
			set[p] = true
			nullable = nullable && !nna[rs.Attrs[p].Name]
		}
		rp := h.db.Header(ind.Right).Positions(ind.RightAttrs)
		var src relation.Tuple
		if cands := h.rows(ind.Right, rp); len(cands) > 0 && !(nullable && h.rng.Intn(4) == 0) {
			// A few rows draw most references, so counts above one are common.
			src = cands[h.rng.Intn(min(len(cands), 3))]
		}
		if src == nil {
			continue
		}
		for i, p := range lp {
			tup[p] = src[rp[i]]
		}
	}
	for _, p := range hdr.Positions(rs.PrimaryKey) {
		if !set[p] {
			h.fresh++
			tup[p], set[p] = relation.NewString(fmt.Sprintf("k-%d", h.fresh)), true
		}
	}
	for p, a := range rs.Attrs {
		if set[p] || !nna[a.Name] && h.rng.Intn(4) == 0 {
			continue
		}
		// Half the time copy a value of the same domain the row already
		// carries (what a merged relation's equality constraints want),
		// else draw from a pool of three.
		tup[p] = relation.NewString(fmt.Sprintf("v-%d", h.rng.Intn(3)))
		if h.rng.Intn(2) == 0 {
			for q, b := range rs.Attrs {
				if set[q] && b.Domain == a.Domain && !tup[q].IsNull() {
					tup[p] = tup[q]
					break
				}
			}
		}
	}
	return tup
}

// checkFetchHops fetches every row of every relation with its references:
// each hop over a non-null foreign key must land on a row whose referenced
// attributes carry the referencing value.
func (h *history) checkFetchHops() {
	s := h.db.Schema
	hops := 0
	for _, rs := range s.Relations {
		pk := h.db.Header(rs.Name).Positions(rs.PrimaryKey)
		for _, row := range h.rows(rs.Name, nil) {
			_, related, err := h.db.FetchWithReferences(rs.Name, row.Project(pk))
			if err != nil {
				h.t.Fatal(err)
			}
			for _, rel := range related {
				if rel.IsNull {
					continue
				}
				i := slices.IndexFunc(s.INDs, func(ind schema.IND) bool {
					return ind.Left == rel.From && ind.Right == rel.To && slices.Equal(ind.LeftAttrs, rel.FK)
				})
				ind := s.INDs[i]
				want := row.Project(h.db.Header(rs.Name).Positions(ind.LeftAttrs))
				if rel.Tuple == nil || !rel.Tuple.Project(h.db.Header(ind.Right).Positions(ind.RightAttrs)).Identical(want) {
					h.t.Fatalf("fetch hop %s of %s %v landed on %v", ind, rs.Name, row, rel.Tuple)
				}
				hops++
			}
		}
	}
	if hops == 0 {
		h.t.Fatal("no fetch hop to check")
	}
}
