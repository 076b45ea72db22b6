package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/schema"
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
	if len(child.sec) != 1 || child.hdr.Attrs()[child.sec[0][0]] != "C.P" {
		t.Fatalf("CHILD should carry exactly the secondary index on C.P, has %v", child.sec)
	}
	idx := db.current.Load().tables[child.ord].sec[0]
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
