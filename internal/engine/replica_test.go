package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

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

// A whole state a follower refuses — a shipped snapshot or a shipped
// schema-change record, unparsable or inconsistent — leaves the follower
// serving exactly what it served before: same design, same rows, same
// version. The payloads are framed with another design, so a follower that
// switched bindings before the state had parsed and passed its check would
// be caught serving that design, or an empty database.
func TestRefusedWholeStateLeavesFollowerIntact(t *testing.T) {
	fig2 := figures.Fig2(true)
	dangling := state.New(fig2)
	dangling.Relation("TEACH").Add(tup("c1", "s1")) // TEACH[T.CN] ⊆ OFFER[O.CN] broken
	states := map[string]string{
		"unparsable":   "insert OFFER (c1",
		"inconsistent": sdl.PrintState(fig2, dangling),
	}
	entries := map[string]func(f *DB, schemaSDL, stateSDL string) error{
		"snapshot": func(f *DB, schemaSDL, stateSDL string) error {
			return f.IngestSnapshot(encodeSnapshot(schemaSDL, stateSDL), f.DurableLSN()+1)
		},
		"schema-record": func(f *DB, schemaSDL, stateSDL string) error {
			return shipOne(f, encodeSchemaRecord(schemaSDL, stateSDL))
		},
	}
	for entry, ingest := range entries {
		for kind, stateSDL := range states {
			t.Run(entry+"/"+kind, func(t *testing.T) {
				f := followerOnFig3(t)
				before := seeFollower(f)
				if before.state.TotalTuples() != figures.Fig3State().TotalTuples() {
					t.Fatalf("follower holds %d tuples before the ingest", before.state.TotalTuples())
				}
				if err := ingest(f, sdl.PrintSchema(fig2), stateSDL); !errors.Is(err, ErrRecovery) {
					t.Fatalf("ingest = %v, want ErrRecovery", err)
				}
				before.requireSame(t, f)
			})
		}
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

// A shipped schema-change record is checked against its own design before
// the follower adopts it, like a shipped snapshot: a key or an inclusion
// dependency of the new design broken by the shipped state refuses the
// record, and the follower stays on Fig. 3 with its rows.
func TestShippedSchemaChangeIsChecked(t *testing.T) {
	fig2 := figures.Fig2(true)
	dupKey := state.New(fig2)
	dupKey.Relation("OFFER").Add(tup("c1", "math"))
	dupKey.Relation("OFFER").Add(tup("c1", "cs"))
	dangling := state.New(fig2)
	dangling.Relation("OFFER").Add(tup("c1", "math"))
	dangling.Relation("TEACH").Add(tup("c2", "s1"))
	for name, st := range map[string]*state.DB{"key": dupKey, "ind": dangling} {
		t.Run(name, func(t *testing.T) {
			f := followerOnFig3(t)
			before := seeFollower(f)
			if err := shipOne(f, encodeSchemaRecord(sdl.PrintSchema(fig2), sdl.PrintState(fig2, st))); !errors.Is(err, ErrRecovery) {
				t.Fatalf("IngestReplicated = %v, want ErrRecovery", err)
			}
			before.requireSame(t, f)
		})
	}
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
