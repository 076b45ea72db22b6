// MVCC read-path tests: snapshot pinning, transaction read views, lock-free
// reads, and the never-torn-batch guarantee under concurrent writers. The
// names match the `make stress` filter (Stress|Concurrent|Mixed) where the
// test is meant to run fresh under the race detector.
package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/wal"
	"repro/internal/workload"
)

func key(s string) relation.Tuple { return relation.Tuple{relation.NewString(s)} }

// A View pins one published version: writes that land after the pin are
// invisible to it, a fresh View sees them, and the version LSN stamp advances
// with every publish.
func TestMVCCViewPinsVersion(t *testing.T) {
	b, err := workload.NewBench(workload.StarEER(2), "E0", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, root := b.Base, b.Root
	v := db.View()
	lsn0 := v.LSN()
	if got := v.Count(root); got != db.Count(root) {
		t.Fatalf("pinned view count %d != live count %d", got, db.Count(root))
	}
	before := v.Count(root)

	if err := db.InsertCtx(context.Background(), root, key("after-pin")); err != nil {
		t.Fatal(err)
	}
	if got := v.Count(root); got != before {
		t.Errorf("pinned view saw a later write: count %d, want %d", got, before)
	}
	if _, ok := v.GetByKey(root, key("after-pin")); ok {
		t.Error("pinned view GetByKey found a tuple inserted after the pin")
	}
	visited := 0
	if err := v.Scan(root, nil, func(relation.Tuple) { visited++ }); err != nil {
		t.Fatal(err)
	}
	if visited != before {
		t.Errorf("pinned view scan visited %d tuples, want %d", visited, before)
	}

	fresh := db.View()
	if _, ok := fresh.GetByKey(root, key("after-pin")); !ok {
		t.Error("fresh view missing the committed write")
	}
	if fresh.LSN() <= lsn0 {
		t.Errorf("version LSN did not advance across a publish: %d -> %d", lsn0, fresh.LSN())
	}
	if db.VersionLSN() != fresh.LSN() {
		t.Errorf("VersionLSN %d != fresh view LSN %d", db.VersionLSN(), fresh.LSN())
	}
}

// TxnView answers from the version pinned at Begin: the transaction's own
// writes are visible through the DB methods but not through its read view,
// and the view is gone once the transaction closes.
func TestMVCCTxnViewReadsBeginVersion(t *testing.T) {
	b, err := workload.NewBench(workload.StarEER(2), "E0", 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, root := b.Base, b.Root
	if _, ok := db.TxnView(); ok {
		t.Fatal("TxnView with no open transaction")
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	tv, ok := db.TxnView()
	if !ok {
		t.Fatal("no TxnView inside an open transaction")
	}
	before := tv.Count(root)
	if err := db.InsertCtx(context.Background(), root, key("in-txn")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.GetByKeyCtx(context.Background(), root, key("in-txn")); !ok {
		t.Error("transaction's own write invisible through DB.GetByKey")
	}
	if _, ok := tv.GetByKey(root, key("in-txn")); ok {
		t.Error("TxnView saw a write made after Begin")
	}
	if got := tv.Count(root); got != before {
		t.Errorf("TxnView count moved: %d -> %d", before, got)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.TxnView(); ok {
		t.Error("TxnView survived Commit")
	}
	// The already-held view keeps answering from its pinned version.
	if _, ok := tv.GetByKey(root, key("in-txn")); ok {
		t.Error("held TxnView observed the commit")
	}
}

// The read hot path takes no locks: a read-only phase of point lookups,
// scans, and navigational fetches — concurrent, under the race detector —
// leaves the engine.lock_acquisitions series (writer-mutex acquisitions,
// counted before they block) exactly where it was.
func TestMVCCReadPathLockFree(t *testing.T) {
	b, err := workload.NewBench(workload.StarEER(3), "E0", 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, root := b.Base, b.Root
	baseline := registrySeries(t, db, "engine.lock_acquisitions")
	if baseline == 0 {
		t.Fatal("seeding took no writer-mutex acquisitions; counter seems dead")
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := b.Keys[(r+i)%len(b.Keys)]
				if _, ok, _ := db.GetByKeyCtx(context.Background(), root, k); !ok {
					t.Errorf("seeded key %v missing", k)
				}
				if _, _, err := db.FetchWithReferences(root, k); err != nil {
					t.Errorf("fetch: %v", err)
				}
				if i%10 == 0 {
					db.Scan(root, nil, func(relation.Tuple) {})
					db.Count(root)
					db.View().Count(root)
				}
			}
		}(r)
	}
	wg.Wait()
	if got := registrySeries(t, db, "engine.lock_acquisitions"); got != baseline {
		t.Errorf("read-only phase took the writer mutex %d times (baseline %d): read path is not lock-free", got-baseline, baseline)
	}
}

// The Scan-vs-ApplyBatchCtx regression (snapshot semantics): a mixed batch
// publishes as ONE version, so a concurrent scan counts either all of a
// batch's tuples or none of them — never a torn middle — no matter how the
// scan interleaves with the batch's staging. The pre-MVCC engine mutated
// indexes in place under per-table locks, which this invariant now replaces.
func TestConcurrentScanNeverTearsBatch(t *testing.T) {
	const (
		batchSize = 7
		minScans  = 50   // keep churning until the scanners really raced us
		maxRounds = 5000 // hard stop if the scanners are starved anyway
	)
	b, err := workload.NewBench(workload.StarEER(2), "E0", 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, root := b.Base, b.Root

	stop := make(chan struct{})
	var scans atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				err := db.Scan(root, func(tup relation.Tuple) bool {
					return strings.HasPrefix(tup[0].AsString(), "torn-")
				}, func(relation.Tuple) { n++ })
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				if n%batchSize != 0 {
					t.Errorf("scan observed a torn batch: %d tuples is not a multiple of %d", n, batchSize)
					return
				}
				scans.Add(1)
			}
		}()
	}

	// Writer: each round atomically inserts a full batch, then atomically
	// deletes it — the prefixed population only ever changes by whole batches.
	for i := 0; scans.Load() < minScans && i < maxRounds; i++ {
		ops := make([]engine.BatchOp, 0, batchSize)
		for j := 0; j < batchSize; j++ {
			ops = append(ops, engine.Ins(root, key(fmt.Sprintf("torn-%d-%d", i, j))))
		}
		if err := db.ApplyBatchCtx(context.Background(), ops); err != nil {
			t.Fatalf("insert batch %d: %v", i, err)
		}
		dels := make([]engine.BatchOp, 0, batchSize)
		for j := 0; j < batchSize; j++ {
			dels = append(dels, engine.Del(root, key(fmt.Sprintf("torn-%d-%d", i, j))))
		}
		if err := db.ApplyBatchCtx(context.Background(), dels); err != nil {
			t.Fatalf("delete batch %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if scans.Load() == 0 {
		t.Fatal("no scan completed during the batch churn")
	}
}

// The P8 scenario under the race detector: a saturating writer, lock-free
// readers, and checkpoints all at once on a durable engine. Readers must
// never miss a seeded key, never error, and never observe a torn batch;
// checkpoints (which quiesce writers only) must all succeed; and the final
// tuple count must be exact.
func TestStressMVCCReadUnderWriteCheckpoint(t *testing.T) {
	const (
		readers   = 4
		writerOps = 120
		batchSize = 5
	)
	db, err := engine.Open(figures.Fig3(),
		engine.WithWALOptions(t.TempDir(), wal.Options{Policy: wal.SyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	seeded := db.Count("COURSE")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok, _ := db.GetByKeyCtx(context.Background(), "COURSE", key("c1")); !ok {
					t.Error("seeded COURSE key vanished mid-run")
					return
				}
				if _, _, err := db.FetchWithReferences("TEACH", key("c1")); err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
				if i%8 == r {
					n := 0
					db.Scan("COURSE", func(tup relation.Tuple) bool {
						return strings.HasPrefix(tup[0].AsString(), "p8-")
					}, func(relation.Tuple) { n++ })
					if n%batchSize != 0 {
						t.Errorf("scan under checkpoint observed a torn batch: %d", n)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()

	for i := 0; i < writerOps; i++ {
		if i%4 == 0 {
			batch := make([]relation.Tuple, 0, batchSize)
			for j := 0; j < batchSize; j++ {
				batch = append(batch, key(fmt.Sprintf("p8-%d-%d", i, j)))
			}
			if err := db.InsertBatchCtx(context.Background(), "COURSE", batch); err != nil {
				t.Fatalf("writer batch %d: %v", i, err)
			}
		} else {
			if err := db.InsertCtx(context.Background(), "COURSE", key(fmt.Sprintf("solo-%d", i))); err != nil {
				t.Fatalf("writer insert %d: %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()

	batches := (writerOps + 3) / 4
	want := seeded + batches*batchSize + (writerOps - batches)
	if got := db.Count("COURSE"); got != want {
		t.Errorf("COURSE count after run: %d, want %d", got, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// An editor applies a 10 000-row batch — one edit per index, nodes mutated in
// place — while readers keep ranging versions they pinned before and during
// it: a pinned version must count what it counted when pinned, whatever the
// writer is doing to the structure it shares with it (run under -race this is
// also the proof that an editor writes no node a published version can
// reach). Then a batch that violates on its last row is dropped whole: the
// version published before it is still the current one, index for index.
func TestConcurrentReadersUnderEditorBatch(t *testing.T) {
	const rows, readers = 10000, 3
	c := openMergedChain(t, 2000, 64)
	db, ctx := c.db, context.Background()

	batch := make([]relation.Tuple, rows)
	for i := range batch {
		batch[i] = c.row(fmt.Sprintf("b-%d", i), i%(chainN+1))
	}
	stop := make(chan struct{})
	var ranged atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := db.View()
				want, got := v.Count("MERGED"), 0
				if err := v.Scan("MERGED", nil, func(relation.Tuple) { got++ }); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				if got != want || (want != 2000 && want != 2000+rows) {
					t.Errorf("a pinned version of %d rows ranged %d (the batch is %d rows, all or nothing)", want, got, rows)
					return
				}
				ranged.Add(1)
			}
		}()
	}
	before := ranged.Load()
	if err := db.InsertBatchCtx(ctx, "MERGED", batch); err != nil {
		t.Fatal(err)
	}
	for ranged.Load() < before+2*readers { // every reader has pinned the new version too
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	// A violating batch: 500 good rows, all naming a T1 target nothing else
	// names, then one that skips a chain link.
	if err := db.InsertCtx(ctx, "T1", key("t1-only")); err != nil {
		t.Fatal(err)
	}
	lsn := db.VersionLSN()
	bad := make([]relation.Tuple, 0, 501)
	for i := 0; i < 500; i++ {
		row := c.row(fmt.Sprintf("bad-%d", i), chainN)
		row[1] = relation.NewString("t1-only")
		bad = append(bad, row)
	}
	skip := c.row("bad-skip", chainN)
	skip[2] = relation.Null()
	err := db.InsertBatchCtx(ctx, "MERGED", append(bad, skip))
	var cv *engine.ConstraintViolation
	if !errors.As(err, &cv) || cv.Kind != engine.NullConstraintViolation {
		t.Fatalf("violating batch = %v, want a null-constraint violation", err)
	}
	if db.VersionLSN() != lsn || db.Count("MERGED") != 2000+rows {
		t.Fatalf("a dropped batch published: LSN %d → %d, %d rows", lsn, db.VersionLSN(), db.Count("MERGED"))
	}
	if _, ok, _ := db.GetByKeyCtx(context.Background(), "MERGED", key("bad-0")); ok {
		t.Error("a row of the dropped batch is visible")
	}
	// Nor did its 500 references reach the foreign-key index: the target is
	// still free to go.
	if err := db.DeleteCtx(ctx, "T1", key("t1-only")); err != nil {
		t.Errorf("deleting the target only the dropped batch named: %v", err)
	}
}
