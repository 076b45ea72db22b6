package immap

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
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
	hashMask = 0 // everyone collides
	defer func() { hashMask = ^uint64(0) }()

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

// TestEditorLookup: Lookup finds a present key — in a trie slot and in a
// full-hash collision bucket — and returns the very string the map stores,
// not a copy of the probe bytes; an absent key, colliding or not, is absent.
func TestEditorLookup(t *testing.T) {
	defer func() { hashMask = ^uint64(0) }()
	for _, mask := range []uint64{^uint64(0), 0} {
		hashMask = mask
		stored := make([]string, 8)
		m := New[uint32]()
		for i := range stored {
			stored[i] = fmt.Sprintf("k%d", i)
			m = m.Set(stored[i], uint32(i+1))
		}
		ed := m.Edit()
		for i, want := range stored {
			k, n, ok := ed.Lookup([]byte(want))
			if !ok || k != want || n != uint32(i+1) {
				t.Fatalf("mask %#x: Lookup(%s) = %q, %d, %v", mask, want, k, n, ok)
			}
			if unsafe.StringData(k) != unsafe.StringData(want) {
				t.Errorf("mask %#x: Lookup(%s) returned a copy of the key, not the stored string", mask, want)
			}
			ed.Set(k, n+1)
		}
		if k, n, ok := ed.Lookup([]byte("absent")); ok || k != "" || n != 0 {
			t.Errorf("mask %#x: Lookup(absent) = %q, %d, %v", mask, k, n, ok)
		}
		got := ed.Freeze()
		for i, k := range stored {
			if n, _ := got.Get(k); n != uint32(i+2) || got.Len() != len(stored) {
				t.Errorf("mask %#x: %s = %d after rebinding through Lookup's key (len %d)", mask, k, n, got.Len())
			}
			if n, _ := m.Get(k); n != uint32(i+1) {
				t.Errorf("mask %#x: the edited map's base changed: %s = %d", mask, k, n)
			}
		}
	}
}

// TestEditorModel interleaves persistent updates, editor sessions and
// freezes against a built-in map, under the real hash, under one narrowed to
// ten bits (deep tries, collision buckets at the bottom) and under full-hash
// collisions. Every frozen version — and every version an editor was opened
// on — must keep ranging to exactly what it held: a node is mutable only
// under the edit that created it.
func TestEditorModel(t *testing.T) {
	defer func() { hashMask = ^uint64(0) }()
	for _, mask := range []uint64{^uint64(0), 1<<10 - 1, 0} {
		hashMask = mask
		keys := 3000
		if mask == 0 {
			keys = 60 // one linear bucket
		}
		rng := rand.New(rand.NewSource(int64(mask) + 7))
		type pin struct {
			m      *Map[int]
			oracle map[string]int
		}
		var pins []pin
		m, oracle := New[int](), map[string]int{}
		snapshot := func() {
			held := make(map[string]int, len(oracle))
			for k, v := range oracle {
				held[k] = v
			}
			pins = append(pins, pin{m, held})
		}
		check := func(p pin) {
			t.Helper()
			if p.m.Len() != len(p.oracle) {
				t.Fatalf("mask %#x: Len = %d, model %d", mask, p.m.Len(), len(p.oracle))
			}
			seen := 0
			p.m.Range(func(k string, v int) bool {
				if want, ok := p.oracle[k]; !ok || want != v {
					t.Fatalf("mask %#x: a frozen version ranges %s=%d, it held %d (present %v)", mask, k, v, want, ok)
				}
				seen++
				return true
			})
			if seen != len(p.oracle) {
				t.Fatalf("mask %#x: Range visited %d of %d", mask, seen, len(p.oracle))
			}
		}
		for round := 0; round < 60; round++ {
			snapshot()
			if round%3 == 0 {
				// Persistent updates: each one is a version of its own.
				for i := 0; i < 40; i++ {
					key := fmt.Sprintf("k%d", rng.Intn(keys))
					if rng.Intn(3) == 0 {
						m = m.Delete(key)
						delete(oracle, key)
					} else {
						m = m.Set(key, round*1000+i)
						oracle[key] = round*1000 + i
					}
				}
				continue
			}
			// An editor session: one version for the whole run of updates,
			// or none if it is dropped (as a violating batch drops its
			// writeTx) — the model then keeps what it held before.
			ed, next := m.Edit(), make(map[string]int, len(oracle))
			for k, v := range oracle {
				next[k] = v
			}
			for i, n := 0, 1+rng.Intn(400); i < n; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				if rng.Intn(4) == 0 {
					ed.Delete(key)
					delete(next, key)
				} else {
					ed.Set(key, round*1000+i)
					next[key] = round*1000 + i
				}
				if i%50 == 0 {
					want, ok := next[key]
					if got, has := ed.Get(key); has != ok || got != want {
						t.Fatalf("mask %#x: editor Get(%s) = %d,%v, model %d,%v", mask, key, got, has, want, ok)
					}
					if got, has := ed.GetBytes([]byte(key)); has != ok || got != want {
						t.Fatalf("mask %#x: editor GetBytes(%s) = %d,%v, model %d,%v", mask, key, got, has, want, ok)
					}
				}
			}
			if ed.Len() != len(next) {
				t.Fatalf("mask %#x: editor Len = %d, model %d", mask, ed.Len(), len(next))
			}
			if rng.Intn(4) != 0 {
				m, oracle = ed.Freeze(), next
			}
		}
		snapshot()
		for _, p := range pins {
			check(p)
		}
	}
}

// TestEditorReuse runs the engine's writer pattern: one Editor value,
// Reset on the newest version before every run of updates, frozen into a
// header of the caller's or dropped, again and again. Reset must draw a
// fresh edit id each time — otherwise a run would write in place the nodes
// an earlier run created and published — so every frozen version, checked
// at the end against what it held, must range to exactly that.
func TestEditorReuse(t *testing.T) {
	defer func() { hashMask = ^uint64(0) }()
	for _, mask := range []uint64{^uint64(0), 1<<10 - 1, 0} {
		hashMask = mask
		keys := 2000
		if mask == 0 {
			keys = 60
		}
		rng := rand.New(rand.NewSource(int64(mask) + 11))
		var ed Editor[int]
		versions := []*Map[int]{New[int]()}
		oracles := []map[string]int{{}}
		for round := 0; round < 80; round++ {
			cur, next := versions[len(versions)-1], make(map[string]int)
			for k, v := range oracles[len(oracles)-1] {
				next[k] = v
			}
			ed.Reset(cur)
			for i, n := 0, 1+rng.Intn(60); i < n; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				if rng.Intn(4) == 0 {
					ed.Delete(key)
					delete(next, key)
				} else {
					ed.Set(key, round*1000+i)
					next[key] = round*1000 + i
				}
			}
			if rng.Intn(5) == 0 {
				continue // dropped, as a refused operation's staging is
			}
			m := new(Map[int])
			ed.FreezeInto(m)
			versions, oracles = append(versions, m), append(oracles, next)
		}
		for i, m := range versions {
			if m.Len() != len(oracles[i]) {
				t.Fatalf("mask %#x: version %d: Len = %d, held %d", mask, i, m.Len(), len(oracles[i]))
			}
			m.Range(func(k string, v int) bool {
				if want, ok := oracles[i][k]; !ok || want != v {
					t.Fatalf("mask %#x: version %d ranges %s=%d, it held %d (present %v)", mask, i, k, v, want, ok)
				}
				return true
			})
		}
		ed.Reset(versions[0])
		ed.FreezeInto(new(Map[int]))
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Set on an editor frozen into a header did not panic")
				}
			}()
			ed.Set("late", 1)
		}()
	}
}

// TestEditorFrozen: a frozen editor refuses updates — its header is the
// published map's.
func TestEditorFrozen(t *testing.T) {
	ed := New[int]().Edit()
	ed.Set("a", 1)
	m := ed.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Set on a frozen editor did not panic")
		}
		if v, ok := m.Get("a"); !ok || v != 1 || m.Len() != 1 {
			t.Fatalf("the frozen map changed: a=%d,%v len %d", v, ok, m.Len())
		}
	}()
	ed.Set("b", 2)
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
// as totals over 256 fixed keys (inputs are fixed, so the counts are exact).
// A Get — by string or by bytes, here of a key longer than any stack
// temporary — allocates nothing. A Set pays one header (root node included)
// and the root's children, then node + the one slice it writes for each level
// below: 6 when the key lands in a free slot of the third level, 8 when the
// slot holds a subtree, 9 when it holds another key and the two are pushed
// down together. These 256 keys hash next to the loaded ones (72 / 122 / 62
// of the three cases, 7.7 a Set; uniformly spread keys would average 7.1).
// The same 256 keys through one editor pay for each node once and afterwards
// only for the slice an insert regrows: 3.9 a key, because a batch this small
// against a map this large still meets nearly every leaf for the first time
// (node + slice, and the subtree cases above). A batch the size of the map —
// what a bulk load runs, here the whole map built through one editor — pays
// 1.3 a key. The Sets and the batch also have ceilings in bytes, 1 % above
// what they allocate: 975 B a Set and 357 B a batched key, since an entry
// caches no hash (1 025 and 409 B when it did).
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
	long := []byte(fmt.Sprintf("%064d", 1))
	m = m.Set(string(long), 1)
	sink := 0
	gets := testing.AllocsPerRun(10, func() {
		for _, k := range present {
			v, _ := m.Get(k)
			sink += v
		}
		v, _ := m.GetBytes(long)
		sink += v
	})
	sets, setBytes := allocsAndBytes(10, func() {
		for _, k := range fresh {
			sink += m.Set(k, 1).Len()
		}
	})
	batch, batchBytes := allocsAndBytes(10, func() {
		ed := m.Edit()
		for _, k := range fresh {
			ed.Set(k, 1)
		}
		sink += ed.Freeze().Len()
	})
	all := make([]string, 0, entries)
	m.Range(func(k string, _ int) bool {
		all = append(all, k)
		return true
	})
	load := testing.AllocsPerRun(2, func() {
		ed := New[int]().Edit()
		for _, k := range all {
			ed.Set(k, 1)
		}
		sink += ed.Freeze().Len()
	})
	const getBudget, setBudget, batchBudget, loadBudget = 0, 1966, 1002, 21263
	if gets > getBudget {
		t.Errorf("%d Gets allocate %.0f, budget %d", ops, gets, getBudget)
	}
	if sets > setBudget {
		t.Errorf("%d Sets allocate %.0f, budget %d", ops, sets, setBudget)
	}
	if batch > batchBudget {
		t.Errorf("one editor applying %d Sets allocates %.0f, budget %d", ops, batch, batchBudget)
	}
	if load > loadBudget {
		t.Errorf("one editor loading %d keys allocates %.0f, budget %d", len(all), load, loadBudget)
	}
	const setByteBudget, batchByteBudget = 252100, 92300
	if setBytes > setByteBudget {
		t.Errorf("%d Sets allocate %.0f B, budget %d B", ops, setBytes, setByteBudget)
	}
	if batchBytes > batchByteBudget {
		t.Errorf("one editor applying %d Sets allocates %.0f B, budget %d B", ops, batchBytes, batchByteBudget)
	}
}

// allocsAndBytes is testing.AllocsPerRun that also returns the bytes an
// average call allocates (the runtime's TotalAlloc over every call, the
// warm-up call included).
func allocsAndBytes(runs int, f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs+1)
}
