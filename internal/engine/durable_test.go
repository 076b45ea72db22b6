package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/sdl"
	"repro/internal/state"
	"repro/internal/wal"
)

func openDurable(t *testing.T, dir string, opts wal.Options) *DB {
	t.Helper()
	db, err := Open(figures.Fig3(), WithWALOptions(dir, opts))
	if err != nil {
		t.Fatalf("Open durable: %v", err)
	}
	return db
}

// TestDurableRoundtripRecovery is the scripted happy path: autonomous ops, a
// committed transaction, a rolled-back transaction, a checkpoint, and more
// ops — then the process "dies" (the engine is simply dropped, never Closed)
// and a reopen must reconstruct the exact committed state.
func TestDurableRoundtripRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, wal.Options{Policy: wal.SyncAlways})

	if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCtx(context.Background(), "COURSE", tup("c9")); err != nil {
		t.Fatal(err)
	}
	// A committed transaction: its effects must survive.
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCtx(context.Background(), "PERSON", tup("p-txn")); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCtx(context.Background(), "STUDENT", tup("p-txn")); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	// A rolled-back transaction: its effects must not.
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCtx(context.Background(), "DEPARTMENT", tup("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := db.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail, replayed on top of the snapshot.
	if err := db.DeleteCtx(context.Background(), "ASSIST", tup("c1")); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCtx(context.Background(), "DEPARTMENT", tup("physics")); err != nil {
		t.Fatal(err)
	}
	want := db.Snapshot()

	db2 := openDurable(t, dir, wal.Options{Policy: wal.SyncAlways})
	defer db2.Close()
	if got := db2.Snapshot(); !got.Equal(want) {
		t.Fatalf("recovered state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if err := state.Consistent(db2.Schema, db2.Snapshot()); err != nil {
		t.Fatalf("recovered state inconsistent: %v", err)
	}
	info := db2.Recovered()
	if !info.Recovered || !info.SnapshotLoaded {
		t.Fatalf("RecoveryInfo = %+v, want snapshot-based recovery", info)
	}
	if info.ReplayedOps != 2 {
		t.Fatalf("ReplayedOps = %d, want the 2 post-checkpoint mutations", info.ReplayedOps)
	}
	// The recovered engine keeps logging: one more op, one more reopen.
	if err := db2.InsertCtx(context.Background(), "COURSE", tup("c10")); err != nil {
		t.Fatal(err)
	}
	want2 := db2.Snapshot()
	db2.Close()
	db3 := openDurable(t, dir, wal.Options{Policy: wal.SyncAlways})
	defer db3.Close()
	if got := db3.Snapshot(); !got.Equal(want2) {
		t.Fatal("second-generation recovery differs")
	}
}

// TestRecoveryDiscardsUncommittedTxnSuffix kills the process mid-transaction
// and checks the replay drops the unterminated suffix, committed work stays.
func TestRecoveryDiscardsUncommittedTxnSuffix(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, wal.Options{Policy: wal.SyncAlways})
	if err := db.InsertCtx(context.Background(), "PERSON", tup("keep")); err != nil {
		t.Fatal(err)
	}
	want := db.Snapshot()
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCtx(context.Background(), "PERSON", tup("lost-1")); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCtx(context.Background(), "COURSE", tup("lost-2")); err != nil {
		t.Fatal(err)
	}
	// Crash here: no Commit, no Close.
	db2 := openDurable(t, dir, wal.Options{Policy: wal.SyncAlways})
	defer db2.Close()
	if got := db2.Snapshot(); !got.Equal(want) {
		t.Fatalf("uncommitted suffix leaked into recovery:\n%s", got)
	}
	if info := db2.Recovered(); info.DiscardedOps != 2 {
		t.Fatalf("DiscardedOps = %d, want 2", info.DiscardedOps)
	}
}

func TestCheckpointRefusedInsideTransaction(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, wal.Options{})
	defer db.Close()
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrOpenTransaction) {
		t.Fatalf("Checkpoint inside txn = %v, want ErrOpenTransaction", err)
	}
	if err := db.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after rollback: %v", err)
	}
}

func TestCheckpointWithoutDurability(t *testing.T) {
	db := openFig3(t)
	if err := db.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint = %v, want ErrNotDurable", err)
	}
	if db.Durable() {
		t.Fatal("in-memory engine claims durability")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close of non-durable engine: %v", err)
	}
}

// TestRecoveryRevalidatesConstraints appends a physically valid log record
// whose replay breaks an inclusion dependency (deleting a referenced PERSON
// behind the engine's back) and checks Open refuses the recovered state with
// ErrRecovery rather than silently loading an inconsistent database.
func TestRecoveryRevalidatesConstraints(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, wal.Options{Policy: wal.SyncAlways})
	if err := db.InsertCtx(context.Background(), "PERSON", tup("p1")); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCtx(context.Background(), "FACULTY", tup("p1")); err != nil {
		t.Fatal(err)
	}
	// Forge the record with the engine's own encoder so it decodes cleanly.
	forged := encodeOpRecord(effects{{table: db.bind.tables["PERSON"], tuple: tup("p1"), insert: false}}, false)
	db.Close()
	l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(forged); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, err = Open(figures.Fig3(), WithWALOptions(dir, wal.Options{}))
	if !errors.Is(err, ErrRecovery) {
		t.Fatalf("Open over constraint-violating log = %v, want ErrRecovery", err)
	}
}

// A checkpoint payload without the schema frame — bare state SDL, which no
// writer has produced since snapshots became self-describing — is refused by
// recovery and by a follower's snapshot ingest alike.
func TestRecoveryRefusesUnframedCheckpointPayload(t *testing.T) {
	raw := []byte(sdl.PrintState(figures.Fig3(), figures.Fig3State()))
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(raw); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := Open(figures.Fig3(), WithWALOptions(dir, wal.Options{})); !errors.Is(err, ErrRecovery) {
		t.Fatalf("Open over an unframed checkpoint payload = %v, want ErrRecovery", err)
	}
	f := openReplica(t, t.TempDir())
	defer f.Close()
	if err := f.IngestSnapshot(raw, 1); !errors.Is(err, ErrRecovery) {
		t.Fatalf("IngestSnapshot of an unframed payload = %v, want ErrRecovery", err)
	}
}

// TestRecoverySurvivesDuplicatedSegment covers the duplicated-segment
// failpoint end to end: replay must deduplicate by LSN, not double-apply.
func TestRecoverySurvivesDuplicatedSegment(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, wal.Options{Policy: wal.SyncAlways})
	if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteCtx(context.Background(), "TEACH", tup("c2")); err != nil {
		t.Fatal(err)
	}
	want := db.Snapshot()
	db.Close()
	if err := wal.DuplicateTailSegment(dir); err != nil {
		t.Fatal(err)
	}
	db2 := openDurable(t, dir, wal.Options{})
	defer db2.Close()
	if got := db2.Snapshot(); !got.Equal(want) {
		t.Fatalf("recovery after segment duplication differs:\n%s", got)
	}
	if info := db2.Recovered(); info.SkippedRecords == 0 {
		t.Fatal("expected duplicated records to be counted as skipped")
	}
}

// crashDriver runs a randomized op schedule against a durable engine while
// mirroring, at every transaction-closed boundary, the state the durable log
// is committed to. The mirror is the ground truth the post-crash recovery is
// compared against: thanks to revert-on-log-failure the live engine tracks
// the durable committed prefix exactly whenever no transaction is open.
type crashDriver struct {
	t       *testing.T
	db      *DB
	rng     *rand.Rand
	mirror  *state.DB
	deleted []struct {
		rel string
		tup relation.Tuple
	}
	fresh int
}

func (d *crashDriver) sync() {
	if !d.db.InTxn() {
		d.mirror = d.db.Snapshot()
	}
}

// step runs one random mutation (ignoring constraint-violation failures —
// they are part of normal operation and must leave no trace anywhere).
func (d *crashDriver) step() {
	switch d.rng.Intn(6) {
	case 0: // fresh root insert
		rels := []string{"PERSON", "COURSE", "DEPARTMENT"}
		d.fresh++
		d.db.InsertCtx(context.Background(), rels[d.rng.Intn(len(rels))], tup(fmt.Sprintf("fresh-%d", d.fresh)))
	case 1, 2: // delete a random existing tuple (may be restricted)
		rel, victim := d.randomTuple()
		if victim == nil {
			return
		}
		key := victim.Project(d.db.bind.tables[rel].hdr.Positions(d.db.bind.tables[rel].rs.PrimaryKey))
		if err := d.db.DeleteCtx(context.Background(), rel, key); err == nil {
			d.deleted = append(d.deleted, struct {
				rel string
				tup relation.Tuple
			}{rel, victim})
		}
	case 3: // resurrect a previously deleted tuple (may now violate an IND)
		if len(d.deleted) == 0 {
			return
		}
		i := d.rng.Intn(len(d.deleted))
		d.db.InsertCtx(context.Background(), d.deleted[i].rel, d.deleted[i].tup)
	case 4: // no-op-shaped update (remove + reinsert, two logged effects)
		rel, victim := d.randomTuple()
		if victim == nil {
			return
		}
		key := victim.Project(d.db.bind.tables[rel].hdr.Positions(d.db.bind.tables[rel].rs.PrimaryKey))
		d.db.UpdateCtx(context.Background(), rel, key, victim)
	case 5: // batch of fresh root inserts — one log record for the group
		d.fresh++
		d.db.InsertBatchCtx(context.Background(), "PERSON", []relation.Tuple{
			tup(fmt.Sprintf("batch-%d-a", d.fresh)),
			tup(fmt.Sprintf("batch-%d-b", d.fresh)),
		})
	}
}

func (d *crashDriver) randomTuple() (string, relation.Tuple) {
	names := []string{"PERSON", "FACULTY", "STUDENT", "COURSE", "DEPARTMENT", "OFFER", "TEACH", "ASSIST"}
	rel := names[d.rng.Intn(len(names))]
	tuples := d.db.Relation(rel).Tuples()
	if len(tuples) == 0 {
		return rel, nil
	}
	return rel, tuples[d.rng.Intn(len(tuples))]
}

// TestCrashRecoveryPropertyMatrix is the tentpole property test: random
// consistent initial states × every failpoint kind × every fsync policy.
// Each cell drives a random schedule of ops, transactions, and checkpoints
// into a fault-injected log until the injected crash (if any) fires, kills
// the engine without cleanup, recovers, and asserts the recovered state
// equals the committed prefix exactly and passes constraint re-validation.
func TestCrashRecoveryPropertyMatrix(t *testing.T) {
	policies := []wal.SyncPolicy{wal.SyncNever, wal.SyncInterval, wal.SyncAlways}
	failpoints := []struct {
		name string
		fp   func(rng *rand.Rand) *wal.Failpoint
	}{
		{"none", func(*rand.Rand) *wal.Failpoint { return nil }},
		// The initial Load costs ~8 writes (one batch record per relation),
		// so write ordinals are drawn wide enough to land anywhere from the
		// load to deep inside the schedule.
		{"fail_write", func(rng *rand.Rand) *wal.Failpoint {
			return &wal.Failpoint{FailWrite: int64(3 + rng.Intn(30))}
		}},
		{"torn_write", func(rng *rand.Rand) *wal.Failpoint {
			return &wal.Failpoint{TornWrite: int64(3 + rng.Intn(30))}
		}},
		{"fail_sync", func(rng *rand.Rand) *wal.Failpoint {
			return &wal.Failpoint{FailSync: int64(1 + rng.Intn(12))}
		}},
		{"fail_rename", func(rng *rand.Rand) *wal.Failpoint {
			return &wal.Failpoint{FailRename: 1}
		}},
	}
	for _, policy := range policies {
		for _, fpc := range failpoints {
			for seed := int64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", policy, fpc.name, seed)
				t.Run(name, func(t *testing.T) {
					runCrashCell(t, policy, fpc.fp, seed)
				})
			}
		}
	}
}

func runCrashCell(t *testing.T, policy wal.SyncPolicy, mkfp func(*rand.Rand) *wal.Failpoint, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	opts := wal.Options{
		Policy:       policy,
		Interval:     2 * time.Millisecond,
		SegmentBytes: 512, // force several rotations per schedule
		Failpoint:    mkfp(rng),
	}
	db, err := Open(figures.Fig3(), WithWALOptions(dir, opts))
	if err != nil {
		t.Fatal(err)
	}
	d := &crashDriver{t: t, db: db, rng: rng, mirror: state.New(db.Schema)}

	// Random consistent initial state (internal/state/generate.go).
	init := state.MustGenerate(figures.Fig3(), rng, state.GenOptions{Rows: 4})
	db.LoadCtx(context.Background(), init)
	d.sync()

	for i := 0; i < 40; i++ {
		switch {
		case i%13 == 12: // checkpoint occasionally
			db.Checkpoint()
		case i%7 == 6: // transaction block
			if err := db.Begin(); err != nil {
				break
			}
			for j := 0; j <= d.rng.Intn(3); j++ {
				d.step()
			}
			if d.rng.Intn(2) == 0 {
				db.Commit()
			} else {
				db.Rollback()
			}
		default:
			d.step()
		}
		d.sync()
	}
	// Half the schedules die mid-transaction: the unterminated suffix must
	// be discarded by recovery, exactly like a rollback.
	if seed%2 == 0 && db.Begin() == nil {
		d.step()
		d.step()
	}
	// Crash: drop the engine without Close.
	want := d.mirror

	db2, err := Open(figures.Fig3(), WithWALOptions(dir, wal.Options{Policy: policy}))
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer db2.Close()
	got := db2.Snapshot()
	if !got.Equal(want) {
		t.Fatalf("recovered state != committed prefix\ngot:\n%s\nwant:\n%s", got, want)
	}
	if err := state.Consistent(db2.Schema, got); err != nil {
		t.Fatalf("recovered state fails re-validation: %v", err)
	}
}
