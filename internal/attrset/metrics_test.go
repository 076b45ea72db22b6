package attrset

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

func testDeps(n int) func(i int) ([]string, []string) {
	return func(i int) ([]string, []string) {
		return []string{fmt.Sprintf("a%d", i)}, []string{fmt.Sprintf("a%d", i+1)}
	}
}

func TestCacheStatsCounts(t *testing.T) {
	e := NewEngine()
	ix := e.Index(3, testDeps(3))
	if st := e.CacheStats(); st.IndexMisses != 1 || st.IndexHits != 0 {
		t.Fatalf("after first compile: %+v", st)
	}
	if e.Index(3, testDeps(3)) != ix {
		t.Fatal("equal dep lists must share the index")
	}
	e.Closure(ix, []string{"a0"})
	e.Closure(ix, []string{"a0"})
	e.Closure(ix, []string{"a1"})
	st := e.CacheStats()
	if st.IndexHits != 1 || st.IndexMisses != 1 {
		t.Errorf("index traffic: %+v", st)
	}
	if st.ClosureHits != 1 || st.ClosureMisses != 2 {
		t.Errorf("closure traffic: %+v", st)
	}
	if st.IndexCacheSize != 1 || st.ClosureCacheSize != 2 {
		t.Errorf("cache sizes: %+v", st)
	}
	if st.InternedNames != 4 { // a0..a3
		t.Errorf("InternedNames = %d", st.InternedNames)
	}
}

func TestCacheEvictionCounts(t *testing.T) {
	e := NewEngineSize(2, closureStripes)
	for i := 1; i <= 3; i++ {
		e.Index(i, testDeps(i))
	}
	if st := e.CacheStats(); st.IndexEvictions != 1 || st.IndexCacheSize != 2 {
		t.Errorf("index evictions: %+v", st)
	}

	// The closure memo is striped: capacity closureStripes means one entry
	// per stripe, and which stripe a key lands in depends on its hash. Drive
	// 4x the capacity through and check the bookkeeping invariant instead of
	// an exact victim count: every miss fills a slot, every eviction frees
	// one, so misses - evictions must equal the live entries — and with 64
	// keys over 16 single-entry stripes, some stripe must have evicted.
	ix := e.Index(3, testDeps(3))
	n := 4 * closureStripes
	for i := 0; i < n; i++ {
		e.Closure(ix, []string{fmt.Sprintf("x%d", i)})
	}
	st := e.CacheStats()
	if st.ClosureEvictions == 0 {
		t.Errorf("no closure evictions after %d distinct seeds: %+v", n, st)
	}
	if st.ClosureMisses-st.ClosureEvictions != int64(st.ClosureCacheSize) {
		t.Errorf("misses - evictions != size: %+v", st)
	}
	if st.ClosureCacheSize > closureStripes {
		t.Errorf("closure cache overflowed its capacity: %+v", st)
	}
}

func TestEngineRegister(t *testing.T) {
	e := NewEngine()
	r := obs.NewRegistry()
	e.Register(r, "test")
	ix := e.Index(2, testDeps(2))
	e.Closure(ix, []string{"a0"})
	e.Closure(ix, []string{"a0"})
	got := map[string]float64{}
	for _, p := range r.Snapshot() {
		if p.Labels["engine"] != "test" {
			t.Errorf("series %s missing engine label: %v", p.Name, p.Labels)
		}
		got[p.Name] = p.Value
	}
	if got["attrset.closure_hits"] != 1 || got["attrset.closure_misses"] != 1 {
		t.Errorf("closure series: %v", got)
	}
	if got["attrset.index_misses"] != 1 || got["attrset.index_cache_size"] != 1 {
		t.Errorf("index series: %v", got)
	}
	if got["attrset.interner_names"] != 3 {
		t.Errorf("interner_names = %v", got["attrset.interner_names"])
	}
}
