package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/sdl"
	"repro/internal/state"
	"repro/internal/wal"
)

// openReplica opens a durable engine marked as a replication follower:
// recovery resumes a shipped transaction's buffered suffix instead of
// discarding it.
func openReplica(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(figures.Fig3(), AsReplica(),
		WithWALOptions(dir, wal.Options{Policy: wal.SyncAlways}))
	if err != nil {
		t.Fatalf("Open replica: %v", err)
	}
	return db
}

// shipAll pumps the primary's committed suffix into the follower until the
// follower's durable horizon matches the primary's.
func shipAll(t *testing.T, p, f *DB) {
	t.Helper()
	for {
		applied := f.DurableLSN()
		recs, horizon, err := p.ReplRead(applied, 0)
		if err != nil {
			t.Fatalf("ReplRead(%d): %v", applied, err)
		}
		if len(recs) == 0 {
			if applied < horizon {
				t.Fatalf("no records shipped but applied %d < horizon %d", applied, horizon)
			}
			return
		}
		if _, err := f.IngestReplicated(recs); err != nil {
			t.Fatalf("IngestReplicated: %v", err)
		}
	}
}

func TestReplicatedApplyMirrorsPrimary(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := openDurable(t, pdir, wal.Options{Policy: wal.SyncAlways})
	defer p.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "COURSE", tup("c9")); err != nil {
		t.Fatal(err)
	}
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "PERSON", tup("p-txn")); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "STUDENT", tup("p-txn")); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	// A rolled-back transaction ships too (its records are in the log) but
	// must leave no trace on the follower.
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "DEPARTMENT", tup("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := p.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := p.DeleteCtx(context.Background(), "ASSIST", tup("c1")); err != nil {
		t.Fatal(err)
	}

	f := openReplica(t, fdir)
	shipAll(t, p, f)
	if got, want := f.Snapshot(), p.Snapshot(); !got.Equal(want) {
		t.Fatalf("follower state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if f.DurableLSN() != p.DurableLSN() {
		t.Fatalf("follower horizon %d, primary %d", f.DurableLSN(), p.DurableLSN())
	}

	// Duplicate delivery is idempotent; a gapped batch is refused.
	recs, _, err := p.ReplRead(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.IngestReplicated(recs); err != nil {
		t.Fatalf("duplicate ingest: %v", err)
	}
	if _, err := f.IngestReplicated([]wal.Record{{LSN: f.DurableLSN() + 7, Payload: []byte{walRecCommit}}}); !errors.Is(err, wal.ErrGap) {
		t.Fatalf("gapped ingest = %v, want wal.ErrGap", err)
	}
	if got, want := f.Snapshot(), p.Snapshot(); !got.Equal(want) {
		t.Fatalf("follower state changed by duplicate/gapped delivery")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted follower recovers to the same state and can keep applying.
	f2 := openReplica(t, fdir)
	defer f2.Close()
	if got, want := f2.Snapshot(), p.Snapshot(); !got.Equal(want) {
		t.Fatalf("recovered follower state differs")
	}
	if err := p.InsertCtx(context.Background(), "DEPARTMENT", tup("physics")); err != nil {
		t.Fatal(err)
	}
	shipAll(t, p, f2)
	if got, want := f2.Snapshot(), p.Snapshot(); !got.Equal(want) {
		t.Fatalf("follower state differs after post-restart ship")
	}
}

// A transaction whose commit marker arrives in a later batch — or after a
// follower restart — must still apply atomically, never partially.
func TestReplicatedTxnSpansBatchesAndRestart(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := openDurable(t, pdir, wal.Options{Policy: wal.SyncAlways})
	defer p.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "PERSON", tup("p-mid")); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "STUDENT", tup("p-mid")); err != nil {
		t.Fatal(err)
	}

	// Ship the open transaction's prefix: the follower buffers, publishes
	// nothing of it.
	f := openReplica(t, fdir)
	shipAll(t, p, f)
	if _, ok, _ := f.GetByKeyCtx(context.Background(), "PERSON", tup("p-mid")); ok {
		t.Fatal("follower published an uncommitted transactional insert")
	}

	// Restart the follower mid-transaction: the buffered suffix must survive
	// (it is durable in the follower's log and the primary will not resend).
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2 := openReplica(t, fdir)
	defer f2.Close()
	if _, ok, _ := f2.GetByKeyCtx(context.Background(), "PERSON", tup("p-mid")); ok {
		t.Fatal("restarted follower published an uncommitted transactional insert")
	}

	// Commit on the primary; the marker ships alone and releases the buffer.
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	shipAll(t, p, f2)
	if _, ok, _ := f2.GetByKeyCtx(context.Background(), "PERSON", tup("p-mid")); !ok {
		t.Fatal("follower missing the committed transactional insert")
	}
	if got, want := f2.Snapshot(), p.Snapshot(); !got.Equal(want) {
		t.Fatalf("follower state differs after spanning commit:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// A follower that starts behind the primary's compaction horizon bootstraps
// from the shipped checkpoint, then tails the log.
func TestReplicatedSnapshotBootstrap(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := openDurable(t, pdir, wal.Options{Policy: wal.SyncAlways})
	defer p.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "COURSE", tup("c9")); err != nil {
		t.Fatal(err)
	}

	f := openReplica(t, fdir)
	defer f.Close()
	_, _, err := p.ReplRead(f.DurableLSN(), 0)
	if !errors.Is(err, wal.ErrCompacted) {
		t.Fatalf("ReplRead below checkpoint = %v, want wal.ErrCompacted", err)
	}
	data, lsn, err := p.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.IngestSnapshot(data, lsn); err != nil {
		t.Fatal(err)
	}
	if f.DurableLSN() != lsn {
		t.Fatalf("follower horizon %d after snapshot install, want %d", f.DurableLSN(), lsn)
	}
	shipAll(t, p, f)
	if got, want := f.Snapshot(), p.Snapshot(); !got.Equal(want) {
		t.Fatalf("bootstrapped follower state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if _, ok, _ := f.GetByKeyCtx(context.Background(), "COURSE", tup("c9")); !ok {
		t.Fatal("follower missing the post-checkpoint tail record")
	}
}

// A follower must not checkpoint while a replicated transaction's ops sit in
// the buffer awaiting their commit marker: the snapshot would be stamped past
// the buffered records and truncation would drop them for good.
func TestCheckpointRefusesBufferedReplicatedTxn(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := openDurable(t, pdir, wal.Options{Policy: wal.SyncAlways})
	defer p.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "PERSON", tup("p-buf")); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "STUDENT", tup("p-buf")); err != nil {
		t.Fatal(err)
	}

	f := openReplica(t, fdir)
	shipAll(t, p, f)
	if err := f.Checkpoint(); !errors.Is(err, ErrOpenTransaction) {
		t.Fatalf("Checkpoint with buffered replicated txn = %v, want ErrOpenTransaction", err)
	}

	// The refusal must survive a restart: recovery reseeds the buffer from
	// the log's unterminated suffix.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2 := openReplica(t, fdir)
	defer f2.Close()
	if err := f2.Checkpoint(); !errors.Is(err, ErrOpenTransaction) {
		t.Fatalf("Checkpoint after restart = %v, want ErrOpenTransaction", err)
	}

	// Once the commit marker lands the buffer drains and checkpointing works.
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	shipAll(t, p, f2)
	if err := f2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after commit marker: %v", err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	f3 := openReplica(t, fdir)
	defer f3.Close()
	if got, want := f3.Snapshot(), p.Snapshot(); !got.Equal(want) {
		t.Fatalf("follower state differs after checkpoint+restart:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if _, ok, _ := f3.GetByKeyCtx(context.Background(), "PERSON", tup("p-buf")); !ok {
		t.Fatal("follower missing the committed transactional insert after checkpoint")
	}
}

// followerOnFig3 returns a follower holding the Fig. 3 state, shipped from a
// primary that is closed again before it returns.
func followerOnFig3(t *testing.T) *DB {
	t.Helper()
	p := openDurable(t, t.TempDir(), wal.Options{Policy: wal.SyncAlways})
	defer p.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	f := openReplica(t, t.TempDir())
	t.Cleanup(func() { f.Close() })
	shipAll(t, p, f)
	return f
}

// followerSeen is what a refused ingest must leave untouched.
type followerSeen struct {
	schema string
	state  *state.DB
	lsn    uint64
}

func seeFollower(f *DB) followerSeen {
	return followerSeen{sdl.PrintSchema(f.Schema), f.Snapshot(), f.VersionLSN()}
}

func (s followerSeen) requireSame(t *testing.T, f *DB) {
	t.Helper()
	now := seeFollower(f)
	if now.schema != s.schema {
		t.Errorf("schema changed to:\n%s", now.schema)
	}
	if !now.state.Equal(s.state) {
		t.Errorf("state changed: %d tuples, was %d:\n%s", now.state.TotalTuples(), s.state.TotalTuples(), now.state)
	}
	if now.lsn != s.lsn {
		t.Errorf("version LSN %d, was %d", now.lsn, s.lsn)
	}
}

// shipOne ships payload to f as the next record of its stream.
func shipOne(f *DB, payload []byte) error {
	_, err := f.IngestReplicated([]wal.Record{{LSN: f.DurableLSN() + 1, Payload: payload}})
	return err
}

// migrationOf returns what a migration of db by spec would log — the new
// design's SDL and the digest of the mapped state — without migrating db.
func migrationOf(tb testing.TB, db *DB, spec core.Spec) (string, []uint64) {
	tb.Helper()
	s, err := db.StageMigration(spec)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Abort()
	return sdl.PrintSchema(s.Schema()), digestOf(s.snap)
}

// wholeStateRecord renders a record of the retired kind 5, a schema change
// carrying its whole state: [5][uvarint len][schema SDL][uvarint len][state
// SDL].
func wholeStateRecord(schemaSDL, stateSDL string) []byte {
	return relation.AppendString(relation.AppendString([]byte{5}, schemaSDL), stateSDL)
}

// fig3Migration is migrationOf a Fig. 3 engine holding the Fig. 3 state.
func fig3Migration(t *testing.T, spec core.Spec) (string, []uint64) {
	t.Helper()
	db := MustOpen(figures.Fig3())
	if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	return migrationOf(t, db, spec)
}

// A snapshot a follower refuses — truncated, in the retired RMSNAP2 text
// format, or breaking an inclusion dependency, a key or a null constraint —
// leaves the follower serving exactly what it served before: same design,
// same rows, same version; each is refused for its own reason. The payloads are framed with another design, so a follower
// that switched bindings before the state had parsed and passed its check
// would be caught serving that design, or an empty database. So does a
// schema-change record it refuses: a truncated one, one whose digest the
// state it derives does not match, one naming a cluster member the design
// lacks, one whose design differs from the derived one, and one of the
// retired kind that carried the whole state.
func TestRefusedWholeStateLeavesFollowerIntact(t *testing.T) {
	fig2 := figures.Fig2(true)
	dangling := state.New(fig2)
	dangling.Relation("TEACH").Add(tup("c1", "s1")) // TEACH[T.CN] ⊆ OFFER[O.CN] broken
	dupKey := state.New(fig2)
	dupKey.Relation("OFFER").Add(tup("c1", "math"))
	dupKey.Relation("OFFER").Add(tup("c1", "cs")) // two rows under key c1
	dupKey.Relation("TEACH").Add(tup("c1", "f1"))
	nulls := state.New(fig2)
	nulls.Relation("OFFER").Add(tup("c1", nil)) // OFFER: ∅ ⊑ O.DN broken
	honestSnap := checkpointOf(fig2, state.New(fig2))
	// Each refused snapshot names what it broke.
	snapshots := map[string]struct {
		payload []byte
		reason  string
	}{
		"unparsable":    {honestSnap[:len(honestSnap)-1], "truncated"},
		"rmsnap2":       {[]byte(string(relation.AppendString([]byte("RMSNAP2\n"), sdl.PrintSchema(fig2))) + sdl.PrintState(fig2, state.New(fig2))), `opens with "RMSNAP2\n"`},
		"inconsistent":  {checkpointOf(fig2, dangling), "IND violated: TEACH[T.CN] ⊆ OFFER[O.CN]"},
		"duplicate-key": {checkpointOf(fig2, dupKey), "OFFER holds two rows under one primary key"},
		"nulls":         {checkpointOf(fig2, nulls), "null constraint violated: OFFER: ∅ ⊑ O.DN"},
	}
	reasons := map[string]string{}
	ingests := map[string]func(f *DB) error{}
	for kind, snap := range snapshots {
		reasons["snapshot/"+kind] = snap.reason
		ingests["snapshot/"+kind] = func(f *DB) error { return f.IngestSnapshot(snap.payload, f.DurableLSN()+1) }
	}
	schemaSDL, digest := fig3Migration(t, fig3Spec)
	honest := encodeMigrationRecord(schemaSDL, fig3Spec, digest)
	schemaEnd := len(relation.AppendString([]byte{walRecMigrate}, schemaSDL))
	forged := slices.Clone(digest)
	forged[1]++
	unknown := fig3Spec
	unknown.Cluster = []string{"OFFER", "TEACH", "NOPE"}
	records := map[string][]byte{
		"unparsable":        {walRecMigrate, 0xff},
		"inconsistent":      encodeMigrationRecord(schemaSDL, fig3Spec, forged),
		"unknown-member":    encodeMigrationRecord(schemaSDL, unknown, digest),
		"other-design":      encodeMigrationRecord(sdl.PrintSchema(fig2), fig3Spec, digest),
		"truncated-schema":  honest[:schemaEnd/2],
		"truncated-spec":    honest[:schemaEnd+2],
		"truncated-digest":  honest[:len(honest)-1],
		"whole-state-kind5": wholeStateRecord(sdl.PrintSchema(fig2), sdl.PrintState(fig2, state.New(fig2))),
	}
	for name, rec := range records {
		ingests["schema-record/"+name] = func(f *DB) error { return shipOne(f, rec) }
	}
	for name, ingest := range ingests {
		t.Run(name, func(t *testing.T) {
			f := followerOnFig3(t)
			before := seeFollower(f)
			if before.state.TotalTuples() != figures.Fig3State().TotalTuples() {
				t.Fatalf("follower holds %d tuples before the ingest", before.state.TotalTuples())
			}
			err := ingest(f)
			if !errors.Is(err, ErrRecovery) {
				t.Fatalf("ingest = %v, want ErrRecovery", err)
			}
			if name == "schema-record/whole-state-kind5" && !strings.Contains(err.Error(), "record kind 5") {
				t.Fatalf("a kind-5 record must be refused by its kind: %v", err)
			}
			if reason := reasons[name]; !strings.Contains(err.Error(), reason) {
				t.Fatalf("ingest refused for another reason than %q: %v", reason, err)
			}
			before.requireSame(t, f)
		})
	}
	// The same records refused by the decoder alone: every proper prefix of
	// an honest record.
	for n := 1; n < len(honest); n++ {
		if _, _, _, err := decodeMigrationRecord(honest[:n]); !errors.Is(err, ErrRecovery) {
			t.Fatalf("record cut to %d of %d bytes decoded: %v", n, len(honest), err)
		}
	}
	if _, _, _, err := decodeMigrationRecord(append(honest, 0)); !errors.Is(err, ErrRecovery) {
		t.Fatalf("record with a trailing byte decoded: %v", err)
	}
}

// The op-record decoder sizes nothing from an unchecked count: a record
// claiming 2^60 values (or ops) in a few bytes is refused, not allocated.
func TestReplayRefusesOversizedCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<60)
	for name, payload := range map[string][]byte{
		"arity": append([]byte{walRecOp, 0, 1, 1, 1, 'R'}, huge...),
		"ops":   append([]byte{walRecOp, 0}, huge...),
	} {
		t.Run(name, func(t *testing.T) {
			if _, _, _, err := decodeWalRecord(payload); !errors.Is(err, ErrRecovery) {
				t.Fatalf("decodeWalRecord = %v, want ErrRecovery", err)
			}
			f := followerOnFig3(t)
			before := seeFollower(f)
			if err := shipOne(f, payload); !errors.Is(err, ErrRecovery) {
				t.Fatalf("IngestReplicated = %v, want ErrRecovery", err)
			}
			before.requireSame(t, f)
		})
	}
}

// An op whose relation the design lacks, or whose tuple has the wrong arity,
// is refused alike by a follower and by recovery of a local log.
func TestReplayRefusesMalformedOps(t *testing.T) {
	bind := MustOpen(figures.Fig3()).bind
	nope := &table{rs: &schema.RelationScheme{Name: "NOPE"}}
	records := map[string][]byte{
		"zero-ary":         encodeOpRecord(effects{{table: bind.tables["COURSE"], tuple: relation.Tuple{}, insert: true}}, false),
		"too-wide":         encodeOpRecord(effects{{table: bind.tables["COURSE"], tuple: tup("c8", "x"), insert: true}}, false),
		"unknown-relation": encodeOpRecord(effects{{table: nope, tuple: tup("c8"), insert: true}}, false),
	}
	for name, payload := range records {
		t.Run("follower/"+name, func(t *testing.T) {
			f := followerOnFig3(t)
			before := seeFollower(f)
			if err := shipOne(f, payload); !errors.Is(err, ErrRecovery) {
				t.Fatalf("IngestReplicated = %v, want ErrRecovery", err)
			}
			before.requireSame(t, f)
		})
		t.Run("recovery/"+name, func(t *testing.T) {
			dir := t.TempDir()
			db := openDurable(t, dir, wal.Options{Policy: wal.SyncAlways})
			if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
				t.Fatal(err)
			}
			db.Close()
			l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Commit(payload); err != nil {
				t.Fatal(err)
			}
			l.Close()
			if _, err := Open(figures.Fig3(), WithWALOptions(dir, wal.Options{})); !errors.Is(err, ErrRecovery) {
				t.Fatalf("Open over the forged record = %v, want ErrRecovery", err)
			}
		})
	}
}

// A shipped schema-change record is checked against the design it derives
// before the follower adopts it: a record whose spec roots the merge at a
// member that cannot be its key-relation, or whose logged design lacks an
// inclusion dependency of the derived one, is refused, and the follower stays
// on Fig. 3 with its rows. An honest record applies.
func TestShippedSchemaChangeIsChecked(t *testing.T) {
	schemaSDL, digest := fig3Migration(t, fig3Spec)
	badKey := fig3Spec
	badKey.KeyRelation = "TEACH"
	lessINDs := *fig3Merge(t).Schema
	lessINDs.INDs = lessINDs.INDs[1:]
	for name, rec := range map[string][]byte{
		"key": encodeMigrationRecord(schemaSDL, badKey, digest),
		"ind": encodeMigrationRecord(sdl.PrintSchema(&lessINDs), fig3Spec, digest),
	} {
		t.Run(name, func(t *testing.T) {
			f := followerOnFig3(t)
			before := seeFollower(f)
			if err := shipOne(f, rec); !errors.Is(err, ErrRecovery) {
				t.Fatalf("IngestReplicated = %v, want ErrRecovery", err)
			}
			before.requireSame(t, f)
		})
	}
	t.Run("honest", func(t *testing.T) {
		f := followerOnFig3(t)
		want := fig3Merge(t).MapState(f.Snapshot())
		if err := shipOne(f, encodeMigrationRecord(schemaSDL, fig3Spec, digest)); err != nil {
			t.Fatalf("IngestReplicated: %v", err)
		}
		if got := sdl.PrintSchema(f.Schema); got != schemaSDL {
			t.Fatalf("follower design:\n%s", got)
		}
		if got := f.Snapshot(); !got.Equal(want) {
			t.Fatalf("follower state:\n%s\nwant η of the Fig. 3 state:\n%s", got, want)
		}
	})
}

// An op record whose effects would leave the follower inconsistent — a null
// where the design forbids one, a reference to nothing, a referenced row
// removed — is refused before anything publishes; a record that replaces a
// referenced row by itself, the way a primary logs a key-preserving update,
// applies.
func TestReplayRefusesInconsistentEffects(t *testing.T) {
	bind := MustOpen(figures.Fig3()).bind
	op := func(rel string, insert bool, t relation.Tuple) undoOp {
		return undoOp{table: bind.tables[rel], tuple: t, insert: insert}
	}
	refused := map[string]effects{
		"null-key":          {op("COURSE", true, tup(nil))},
		"dangling-insert":   {op("STUDENT", true, tup("nobody"))},
		"referenced-delete": {op("PERSON", false, tup("s3"))},
		"dangling-in-batch": {op("PERSON", true, tup("p7")), op("STUDENT", true, tup("p7")), op("PERSON", false, tup("p7"))},
	}
	for name, eff := range refused {
		t.Run(name, func(t *testing.T) {
			f := followerOnFig3(t)
			before := seeFollower(f)
			if err := shipOne(f, encodeOpRecord(eff, false)); !errors.Is(err, ErrRecovery) {
				t.Fatalf("IngestReplicated = %v, want ErrRecovery", err)
			}
			before.requireSame(t, f)
		})
	}
	t.Run("replace-referenced", func(t *testing.T) {
		f := followerOnFig3(t)
		want := f.Snapshot()
		if err := shipOne(f, encodeOpRecord(effects{op("PERSON", false, tup("s3")), op("PERSON", true, tup("s3"))}, false)); err != nil {
			t.Fatalf("IngestReplicated: %v", err)
		}
		if !f.Snapshot().Equal(want) {
			t.Fatal("replacing a row by itself changed the state")
		}
	})
}
