package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/figures"
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
