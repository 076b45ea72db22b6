package engine

import (
	"context"
	"fmt"
	"repro/internal/relation"
	"sync"
	"testing"
)

// The engine is safe for concurrent use: parallel writers into disjoint key
// ranges plus parallel readers leave a consistent catalog. Run with -race.
func TestConcurrentAccess(t *testing.T) {
	db := openFig3(t)
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("math"))

	const writers = 4
	const perWriter = 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("c%d-%d", w, i)
				if err := db.InsertCtx(context.Background(), "COURSE", tup(key)); err != nil {
					t.Errorf("insert %s: %v", key, err)
					return
				}
				if err := db.InsertCtx(context.Background(), "OFFER", tup(key, "math")); err != nil {
					t.Errorf("offer %s: %v", key, err)
					return
				}
			}
		}()
	}
	// Concurrent readers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.GetByKeyCtx(context.Background(), "COURSE", tup("c0-0"))
				db.Count("OFFER")
				db.Scan("COURSE", nil, func(relation.Tuple) {})
			}
		}()
	}
	wg.Wait()

	if db.Count("COURSE") != writers*perWriter {
		t.Errorf("COURSE count = %d", db.Count("COURSE"))
	}
	if db.Count("OFFER") != writers*perWriter {
		t.Errorf("OFFER count = %d", db.Count("OFFER"))
	}
	// Every inserted key resolves.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if _, ok, _ := db.GetByKeyCtx(context.Background(), "OFFER", tup(fmt.Sprintf("c%d-%d", w, i))); !ok {
				t.Fatalf("offer c%d-%d missing", w, i)
			}
		}
	}
}
