package immap

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestBasic(t *testing.T) {
	m := New[int]()
	if m.Len() != 0 {
		t.Fatal("empty Len")
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty Get")
	}
	m1 := m.Set("a", 1)
	m2 := m1.Set("b", 2)
	m3 := m2.Set("a", 10)
	if v, ok := m1.Get("a"); !ok || v != 1 {
		t.Errorf("m1[a] = %d,%v", v, ok)
	}
	if _, ok := m1.Get("b"); ok {
		t.Error("m1 must not see b")
	}
	if v, _ := m2.Get("a"); v != 1 {
		t.Error("m2[a] changed by m3's replace")
	}
	if v, _ := m3.Get("a"); v != 10 {
		t.Error("m3[a] replace")
	}
	if m1.Len() != 1 || m2.Len() != 2 || m3.Len() != 2 {
		t.Errorf("lens = %d %d %d", m1.Len(), m2.Len(), m3.Len())
	}
	m4 := m3.Delete("a")
	if _, ok := m4.Get("a"); ok || m4.Len() != 1 {
		t.Error("delete")
	}
	if v, ok := m3.Get("a"); !ok || v != 10 {
		t.Error("delete mutated the older version")
	}
	if m4.Delete("nope") != m4 {
		t.Error("deleting an absent key should return the receiver")
	}
}

// TestDifferential drives a long random op sequence against a built-in map
// oracle, checking every version along the way stays immutable.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New[int]()
	oracle := map[string]int{}
	type pin struct {
		m      *Map[int]
		oracle map[string]int
	}
	var pins []pin
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(3000))
		switch rng.Intn(10) {
		case 0, 1, 2:
			m = m.Delete(key)
			delete(oracle, key)
		default:
			m = m.Set(key, i)
			oracle[key] = i
		}
		if i%2500 == 0 {
			snap := make(map[string]int, len(oracle))
			for k, v := range oracle {
				snap[k] = v
			}
			pins = append(pins, pin{m: m, oracle: snap})
		}
	}
	check := func(m *Map[int], oracle map[string]int) {
		t.Helper()
		if m.Len() != len(oracle) {
			t.Fatalf("Len = %d, oracle %d", m.Len(), len(oracle))
		}
		for k, v := range oracle {
			if got, ok := m.Get(k); !ok || got != v {
				t.Fatalf("Get(%s) = %d,%v want %d", k, got, ok, v)
			}
		}
		seen := 0
		m.Range(func(k string, v int) bool {
			if oracle[k] != v {
				t.Fatalf("Range yielded %s=%d, oracle %d", k, v, oracle[k])
			}
			seen++
			return true
		})
		if seen != len(oracle) {
			t.Fatalf("Range visited %d of %d", seen, len(oracle))
		}
	}
	check(m, oracle)
	// Every pinned version must still read exactly as it did when pinned.
	for _, p := range pins {
		check(p.m, p.oracle)
	}
}

// TestCollisions forces full-hash collisions so the bucket path is covered.
func TestCollisions(t *testing.T) {
	orig := hashString
	hashString = func(string) uint64 { return 0xDEADBEEF } // everyone collides
	defer func() { hashString = orig }()

	m := New[string]()
	const n = 40
	for i := 0; i < n; i++ {
		m = m.Set(fmt.Sprintf("c%d", i), fmt.Sprintf("v%d", i))
	}
	if m.Len() != n {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(fmt.Sprintf("c%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("collision Get c%d = %q,%v", i, v, ok)
		}
	}
	if _, ok := m.Get("absent"); ok {
		t.Fatal("absent key found in collision bucket")
	}
	m = m.Set("c7", "replaced")
	if v, _ := m.Get("c7"); v != "replaced" || m.Len() != n {
		t.Fatal("collision replace")
	}
	for i := 0; i < n; i++ {
		m = m.Delete(fmt.Sprintf("c%d", i))
	}
	if m.Len() != 0 {
		t.Fatalf("Len after collision deletes = %d", m.Len())
	}
	if m.Delete("absent") != m {
		t.Fatal("absent collision delete should return the receiver")
	}
}

// TestRangeEarlyStop checks Range stops when fn returns false.
func TestRangeEarlyStop(t *testing.T) {
	m := New[int]()
	for i := 0; i < 100; i++ {
		m = m.Set(fmt.Sprintf("k%d", i), i)
	}
	visited := 0
	m.Range(func(string, int) bool {
		visited++
		return visited < 10
	})
	if visited != 10 {
		t.Fatalf("visited %d, want 10", visited)
	}
}

// TestConcurrentReaders publishes versions from one writer while readers
// hammer pinned versions — the engine's exact usage pattern. Run with -race.
func TestConcurrentReaders(t *testing.T) {
	var (
		cur  = New[int]()
		mu   sync.Mutex // writer-side only; readers pin without it
		pins [8]*Map[int]
	)
	for i := range pins {
		pins[i] = cur
	}
	var published sync.Map
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			mu.Lock()
			cur = cur.Set(fmt.Sprintf("k%d", i%500), i)
			pins[i%len(pins)] = cur
			published.Store(i%len(pins), cur)
			mu.Unlock()
		}
		close(stop)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := published.Load(r % len(pins)); ok {
					m := v.(*Map[int])
					n := 0
					m.Range(func(string, int) bool { n++; return true })
					if n != m.Len() {
						t.Errorf("Range %d != Len %d on a pinned version", n, m.Len())
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

func BenchmarkSet(b *testing.B) {
	m := New[int]()
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		m = m.Set(keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = m.Set(keys[i%len(keys)], i)
	}
}

func BenchmarkGet(b *testing.B) {
	m := New[int]()
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		m = m.Set(keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(keys[i%len(keys)])
	}
}

// TestAllocBudget pins what one operation on a 16 384-entry map allocates,
// as totals over 256 fixed keys (inputs are fixed, so the counts are exact):
// a Get allocates nothing, a Set copies one root-to-leaf path (10.8 allocations
// on average at this size).
func TestAllocBudget(t *testing.T) {
	const entries, ops = 1 << 14, 256
	m := New[int]()
	for i := 0; i < entries; i++ {
		m = m.Set(fmt.Sprintf("key-%05d", i), i)
	}
	present := make([]string, ops)
	fresh := make([]string, ops)
	for i := range present {
		present[i] = fmt.Sprintf("key-%05d", i*(entries/ops))
		fresh[i] = fmt.Sprintf("fresh-%05d", i)
	}
	sink := 0
	gets := testing.AllocsPerRun(10, func() {
		for _, k := range present {
			v, _ := m.Get(k)
			sink += v
		}
	})
	sets := testing.AllocsPerRun(10, func() {
		for _, k := range fresh {
			sink += m.Set(k, 1).Len()
		}
	})
	const getBudget, setBudget = 0, 2758
	if gets > getBudget {
		t.Errorf("%d Gets allocate %.0f, budget %d", ops, gets, getBudget)
	}
	if sets > setBudget {
		t.Errorf("%d Sets allocate %.0f, budget %d", ops, sets, setBudget)
	}
}
