package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/state"
	"repro/internal/wal"
)

// fig3Relations lists the figure 3 relation names in a fixed order, the
// column order of a rowCounts observation.
var fig3Relations = [8]string{"PERSON", "FACULTY", "STUDENT", "COURSE", "DEPARTMENT", "OFFER", "TEACH", "ASSIST"}

type rowCounts [len(fig3Relations)]int

func countsOf(v *View) rowCounts {
	var c rowCounts
	for i, name := range fig3Relations {
		c[i] = v.Count(name)
	}
	return c
}

// TestStressVersionIsLogPrefix checks what the one writer mutex buys: log
// order is publish order, so the version stamped L holds exactly the effects
// of the log prefix up to L. Four writers — single ops on disjoint tables,
// FK-linked mixed batches, and one goroutine driving transactions to a commit
// or a rollback — run against a durable figure 3 engine while readers pin
// views and record (LSN, row counts). Afterwards every observation must equal
// the replayed log at that LSN (checkAgainstReplay). (With writers of
// disjoint tables logging and publishing independently, a version stamped 6
// could lack record 5.) The final state must be consistent and must survive a
// kill-without-Close reopen. The second sub-case checkpoints mid-run: the log
// can then no longer be read from 0, so only the reopen is checked.
func TestStressVersionIsLogPrefix(t *testing.T) {
	t.Run("replay", func(t *testing.T) { runVersionIsLogPrefix(t, false) })
	t.Run("checkpoint", func(t *testing.T) { runVersionIsLogPrefix(t, true) })
}

func runVersionIsLogPrefix(t *testing.T, checkpoint bool) {
	const rounds = 120
	dir := t.TempDir()
	db := openDurable(t, dir, wal.Options{Policy: wal.SyncNever, SegmentBytes: 4096})
	ctx := context.Background()

	// try runs one write; refusals that concurrent writers make legitimate (a
	// constraint violation, a row another writer's rollback took away) are
	// part of the schedule, anything else is a failure.
	try := func(err error) {
		var cv *ConstraintViolation
		if err != nil && !errors.As(err, &cv) && !errors.Is(err, ErrNoSuchTuple) {
			t.Errorf("write failed: %v", err)
		}
	}
	writers := []func(i int){
		// Single ops on PERSON only.
		func(i int) {
			try(db.InsertCtx(ctx, "PERSON", tup(fmt.Sprintf("p%d", i))))
			if i%3 == 2 {
				try(db.DeleteCtx(ctx, "PERSON", tup(fmt.Sprintf("p%d", i-1))))
			}
		},
		// Single ops on DEPARTMENT and COURSE only: disjoint from the first
		// writer, referenced by the third.
		func(i int) {
			try(db.InsertCtx(ctx, "DEPARTMENT", tup(fmt.Sprintf("d%d", i))))
			try(db.InsertCtx(ctx, "COURSE", tup(fmt.Sprintf("c%d", i))))
			if i%4 == 3 {
				try(db.DeleteCtx(ctx, "DEPARTMENT", tup(fmt.Sprintf("d%d", i-2))))
			}
		},
		// FK-linked batches: a faculty member teaching a course offered by a
		// department the second writer may be deleting at the same time.
		func(i int) {
			f, c, d := fmt.Sprintf("f%d", i), fmt.Sprintf("bc%d", i), fmt.Sprintf("d%d", i)
			try(db.ApplyBatchCtx(ctx, []BatchOp{
				Ins("PERSON", tup(f)), Ins("FACULTY", tup(f)), Ins("COURSE", tup(c)),
				Ins("OFFER", tup(c, d)), Ins("TEACH", tup(c, f)),
			}))
			if i%5 == 4 {
				try(db.ApplyBatchCtx(ctx, []BatchOp{Del("TEACH", tup(c)), Del("OFFER", tup(c))}))
			}
		},
		// Transactions, every other one rolled back, with plain writes between
		// them so that not every version is an in-transaction one.
		func(i int) {
			s := fmt.Sprintf("s%d", i)
			if err := db.Begin(); err != nil {
				t.Errorf("Begin: %v", err)
				return
			}
			try(db.InsertCtx(ctx, "PERSON", tup(s)))
			try(db.InsertCtx(ctx, "STUDENT", tup(s)))
			end := db.Commit
			if i%2 == 1 {
				end = db.Rollback
			}
			if err := end(); err != nil {
				t.Errorf("ending transaction %d: %v", i, err)
			}
			try(db.InsertCtx(ctx, "PERSON", tup("q"+s)))
			runtime.Gosched()
		},
	}

	stop := make(chan struct{})
	var readers, writing sync.WaitGroup
	observed := make([]map[uint64]rowCounts, 2)
	for r := range observed {
		seen := make(map[uint64]rowCounts)
		observed[r] = seen
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := db.View()
				c := countsOf(v)
				if prev, ok := seen[v.LSN()]; ok && prev != c {
					t.Errorf("two views stamped LSN %d differ: %v and %v", v.LSN(), prev, c)
				}
				seen[v.LSN()] = c
				runtime.Gosched()
			}
		}()
	}
	for _, w := range writers {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < rounds; i++ {
				w(i)
			}
		}()
	}
	if checkpoint {
		writing.Add(1)
		go func() {
			defer writing.Done()
			// Wait for the run to be under way, then checkpoint between two
			// transactions.
			for db.VersionLSN() < rounds {
				runtime.Gosched()
			}
			for {
				err := db.Checkpoint()
				if err == nil {
					return
				}
				if !errors.Is(err, ErrOpenTransaction) {
					t.Errorf("Checkpoint: %v", err)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	writing.Wait()
	close(stop)
	readers.Wait()

	final := db.Snapshot()
	if err := state.Consistent(db.Schema, final); err != nil {
		t.Fatalf("final state is inconsistent: %v", err)
	}
	if checkpoint {
		if _, _, err := db.ReplRead(0, 0); !errors.Is(err, wal.ErrCompacted) {
			t.Fatalf("ReplRead(0) after a checkpoint = %v, want wal.ErrCompacted", err)
		}
	} else {
		checkAgainstReplay(t, db, final, observed)
	}
	// Kill without Close: the engine is dropped and its directory reopened.
	reopened := openDurable(t, dir, wal.Options{})
	defer reopened.Close()
	if got := reopened.Snapshot(); !got.Equal(final) {
		t.Fatalf("reopened state differs from the final state:\ngot:\n%s\nwant:\n%s", got, final)
	}
}

// checkAgainstReplay replays db's log record by record into a fresh follower
// and compares every observation with the follower's state at that LSN. A
// follower buffers a transaction's op records until the commit marker, where
// the primary publishes each at once, so the primary's versions stamped with
// such a record have no counterpart and are passed over.
func checkAgainstReplay(t *testing.T, db *DB, final *state.DB, observed []map[uint64]rowCounts) {
	recs, _, err := db.ReplRead(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := openReplica(t, t.TempDir())
	defer f.Close()
	replayed := map[uint64]rowCounts{0: {}}
	inTxnOp := make(map[uint64]bool)
	for _, rec := range recs {
		if _, err := f.IngestReplicated([]wal.Record{rec}); err != nil {
			t.Fatalf("replaying LSN %d: %v", rec.LSN, err)
		}
		kind, _, inTxn, err := decodeWalRecord(rec.Payload)
		if err != nil {
			t.Fatal(err)
		}
		inTxnOp[rec.LSN] = kind == walRecOp && inTxn
		replayed[rec.LSN] = countsOf(f.View())
	}
	if got := f.Snapshot(); !got.Equal(final) {
		t.Fatalf("replayed state differs from the final state:\ngot:\n%s\nwant:\n%s", got, final)
	}
	checked := 0
	for _, seen := range observed {
		for lsn, got := range seen {
			if inTxnOp[lsn] {
				continue
			}
			want, ok := replayed[lsn]
			if !ok {
				t.Errorf("a view was stamped LSN %d, which is no record of the log", lsn)
			} else if got != want {
				t.Errorf("view stamped LSN %d saw %v, the log prefix up to %d replays to %v", lsn, got, lsn, want)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d observations could be checked against the replay", checked)
	}
	t.Logf("%d records, %d observations checked", len(recs), checked)
}
