package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/schema"
	"repro/internal/state"
	"repro/internal/wal"
)

// TestPhysicalRemoveDropsEmptyBuckets is the regression test for the
// secondary-index leak: physicalRemove used to shrink a bucket to zero
// length but keep the map key, so delete/insert churn over fresh key values
// grew the index by one empty bucket per retired key, forever. The index
// must stay bounded by the live tuple count.
func TestPhysicalRemoveDropsEmptyBuckets(t *testing.T) {
	s := schema.New()
	s.AddScheme(schema.NewScheme("PARENT",
		[]schema.Attribute{{Name: "P.K", Domain: "d"}}, []string{"P.K"}))
	s.AddScheme(schema.NewScheme("CHILD",
		[]schema.Attribute{{Name: "C.K", Domain: "k"}, {Name: "C.P", Domain: "d"}},
		[]string{"C.K"}))
	s.INDs = []schema.IND{
		schema.NewIND("CHILD", []string{"C.P"}, "PARENT", []string{"P.K"}),
	}
	db, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	const churn = 200
	for i := 0; i < churn; i++ {
		p := fmt.Sprintf("p%d", i)
		if err := db.InsertCtx(context.Background(), "PARENT", tup(p)); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertCtx(context.Background(), "CHILD", tup(fmt.Sprintf("c%d", i), p)); err != nil {
			t.Fatal(err)
		}
		if err := db.DeleteCtx(context.Background(), "CHILD", tup(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatal(err)
		}
		// Deleting the parent probes CHILD's secondary index on C.P (prebuilt
		// at Open, published with every version) — the structure under test.
		if err := db.DeleteCtx(context.Background(), "PARENT", tup(p)); err != nil {
			t.Fatal(err)
		}
	}
	child := db.bind.tables["CHILD"]
	if len(child.sec) != 1 || child.prog.Hdr.Attrs()[child.sec[0][0]] != "C.P" {
		t.Fatalf("CHILD should carry exactly the secondary index on C.P, has %v", child.sec)
	}
	idx := db.current.Load().tables[child.ord].sec
	if idx.Len() != 0 {
		t.Fatalf("secondary index leaked %d empty buckets after %d churn cycles (want 0)", idx.Len(), churn)
	}
}

// TestOpenRejectsMalformedIND is the regression test for the orderAsKey nil
// slots: IND.KeyBased compares attribute SETS, so a right side listing a key
// attribute twice ([K1, K1, K2] against the key [K1, K2]) passes schema
// validation and registers as key-based — and orderAsKey then built a probe
// key with one correspondence silently dropped, rejecting valid foreign
// keys. Open must refuse the shape with a typed error instead.
func TestOpenRejectsMalformedIND(t *testing.T) {
	s := schema.New()
	s.AddScheme(schema.NewScheme("PARENT",
		[]schema.Attribute{
			{Name: "P.K1", Domain: "d1"},
			{Name: "P.K2", Domain: "d2"},
		},
		[]string{"P.K1", "P.K2"}))
	s.AddScheme(schema.NewScheme("CHILD",
		[]schema.Attribute{
			{Name: "C.K", Domain: "k"},
			{Name: "C.A", Domain: "d1"},
			{Name: "C.B", Domain: "d1"},
			{Name: "C.C", Domain: "d2"},
		},
		[]string{"C.K"}))
	s.INDs = []schema.IND{
		schema.NewIND("CHILD", []string{"C.A", "C.B", "C.C"},
			"PARENT", []string{"P.K1", "P.K1", "P.K2"}),
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schema validation should admit the set-equal shape (the bug's precondition): %v", err)
	}
	if !s.INDs[0].KeyBased(s) {
		t.Fatal("IND should register as key-based under set comparison")
	}
	_, err := Open(s)
	if !errors.Is(err, ErrMalformedIND) {
		t.Fatalf("Open = %v, want ErrMalformedIND", err)
	}
	// A right side that is a genuine permutation of the key must still open.
	s.INDs = []schema.IND{
		schema.NewIND("CHILD", []string{"C.C", "C.A"},
			"PARENT", []string{"P.K2", "P.K1"}),
	}
	if _, err := Open(s); err != nil {
		t.Fatalf("permuted-key IND rejected: %v", err)
	}
}

// TestRollbackNoTxnSkipsLocks is the regression test for the Rollback
// stall: with no open transaction Rollback used to queue behind every
// concurrent writer before discovering there was nothing to do. It must
// return without touching the writer mutex — asserted by holding the mutex
// while calling it.
func TestRollbackNoTxnSkipsLocks(t *testing.T) {
	db := openFig3(t)
	db.lockWriter()
	defer db.wmu.Unlock()
	done := make(chan error, 1)
	go func() { done <- db.Rollback() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Rollback without a transaction returned nil")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Rollback blocked on the writer mutex despite no open transaction")
	}
}

// TestRollbackNoTxnConcurrentReaders hammers no-transaction Rollback
// alongside readers and a writer under the race detector: the fast path must
// neither stall the readers nor race the transaction state.
func TestRollbackNoTxnConcurrentReaders(t *testing.T) {
	db := openFig3(t)
	if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok, _ := db.GetByKeyCtx(context.Background(), "COURSE", tup("c1")); !ok {
					t.Error("seeded tuple vanished")
					return
				}
			}
		}()
	}
	// One writer cycling real transactions, so Rollback's advisory fast
	// path races against genuine open-transaction windows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Begin(); err != nil {
				continue
			}
			db.InsertCtx(context.Background(), "PERSON", tup(fmt.Sprintf("txn-%d", i)))
			db.Rollback()
		}
	}()
	for i := 0; i < 2000; i++ {
		// Errors are expected (usually no transaction is open); what matters
		// is that the calls neither stall nor trip the race detector.
		db.Rollback()
	}
	close(stop)
	wg.Wait()
}

// TestOpenRefusesNonKeyFD is the regression test for non-key FDs: the
// engine enforces F as primary-key uniqueness alone, so a design whose F held
// B → C in R(A,B,C) keyed by A accepted (a2,b,c2) after (a1,b,c1), and the
// next Open of its own log failed re-validation. Open refuses the design
// with a typed error; an FD whose left side contains the key still opens.
func TestOpenRefusesNonKeyFD(t *testing.T) {
	var s schema.Schema
	err := json.Unmarshal([]byte(`{"relations": [{"name": "R", "key": ["A"], "attrs": [
		{"Name": "A", "Domain": "d"}, {"Name": "B", "Domain": "d"}, {"Name": "C", "Domain": "d"}]}],
		"fds": [{"scheme": "R", "lhs": ["A"], "rhs": ["A", "B", "C"]}, {"scheme": "R", "lhs": ["B"], "rhs": ["C"]}]}`), &s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(&s, WithDurability(t.TempDir(), wal.SyncNever)); !errors.Is(err, ErrNonKeyFD) {
		t.Fatalf("Open with the FD %s = %v, want ErrNonKeyFD", s.FDs[1], err)
	}
	s.FDs[1] = schema.NewFD("R", []string{"B", "A"}, []string{"C"})
	if _, err := Open(&s); err != nil {
		t.Fatalf("Open with the key dependency %s: %v", s.FDs[1], err)
	}
}

// TestRecoveryRefusesDuplicateKeyCheckpoint is the regression test for
// adopting a checkpoint that holds two OFFER rows under key c1: building the
// version collapsed the key before recovery checked anything, so the reopen
// succeeded and served ⟨c1, math⟩ alone. The build now refuses the second
// row, and the reopen fails.
func TestRecoveryRefusesDuplicateKeyCheckpoint(t *testing.T) {
	fig2 := figures.Fig2(true)
	dir := t.TempDir()
	db, err := Open(fig2, WithDurability(dir, wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertCtx(context.Background(), "OFFER", tup("c9", "art")); err != nil {
		t.Fatal(err)
	}
	forged := state.New(fig2)
	forged.Relation("OFFER").Add(tup("c1", "math"))
	forged.Relation("OFFER").Add(tup("c1", "cs"))
	forged.Relation("TEACH").Add(tup("c1", "f1"))
	if err := db.wal.Checkpoint(checkpointOf(fig2, forged)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(fig2, WithDurability(dir, wal.SyncAlways))
	if !errors.Is(err, ErrRecovery) {
		t.Fatalf("reopen over a duplicate-key checkpoint = %v, want ErrRecovery (serving OFFER %v)", err, db.Relation("OFFER"))
	}
	if !strings.Contains(err.Error(), "OFFER holds two rows under one primary key") {
		t.Fatalf("reopen refused the checkpoint for another reason: %v", err)
	}
}
