// Package immap implements a persistent (immutable, structurally shared)
// hash map from string keys to arbitrary values — the copy-on-write
// substrate of the engine's MVCC read path.
//
// Every update of a Map (Set, Delete) returns a NEW map that shares all
// untouched structure with the original; the original is never modified and
// stays valid forever. A published *Map can therefore be read from any number
// of goroutines without synchronization while writers keep deriving new
// versions from it: exactly the "readers pin a version, writers publish the
// next one" discipline the engine needs. Old versions are reclaimed by the
// garbage collector as soon as the last reader drops its pointer.
//
// The structure is a hash array mapped trie (HAMT): a 32-ary tree indexed
// 5 hash bits per level. An update copies only the O(log₃₂ n) nodes on the
// path from the root to the touched slot, and of each copied node only the
// slice it writes — entries or children; the other is shared with the
// original — so a path copy costs two allocations per level. Lookups stay
// O(log₃₂ n) with small constants. Keys that exhaust all 64 hash bits (a
// full-hash collision) fall into a linear collision bucket at maximum depth.
//
// A writer that applies many updates before anyone may see the result uses
// an Editor (Map.Edit … Editor.Freeze): every node the editor creates is
// tagged with the editor's id and is mutated in place by its later updates,
// so a batch pays for each path copy once. The ownership rule is: a node is
// mutable only under the edit that created it. Freeze ends the edit; the
// nodes keep a tag no later edit can carry, so the frozen map is as immutable
// as any other. Map.Set and Map.Delete are the same code with no edit id:
// nothing is ever owned, everything is copied.
//
// A writer that edits again and again keeps its editors and its map
// headers: Editor.Reset reopens an editor in place on another version, and
// Editor.FreezeInto stores the version built in a Map the caller owns (a
// field of a larger value), so neither call allocates. Reset draws a fresh
// edit id, so nothing the previous edit created is writable by the next.
//
// An entry holds its key and value only, no cached hash: the one update
// that needs a stored key's hash — pushing two keys one level down — hashes
// it again, so every entry of every version is a word smaller.
package immap

import (
	"math/bits"
	"sync/atomic"
)

const (
	fanLog = 5           // bits consumed per level
	fan    = 1 << fanLog // slots per node
	slotMa = fan - 1     // slot index mask
	// maxShift is the last shift at which 5 fresh hash bits remain; past it
	// the trie stops splitting and chains collisions linearly.
	maxShift = 60
)

// Map is an immutable hash map; the zero value is the empty map. All methods
// are safe for concurrent use by any number of readers; updates return new
// maps and never mutate the receiver. The root node lives in the header, so
// a lookup's first level costs no pointer hop and an update no allocation.
type Map[V any] struct {
	root node[V]
	size int
}

// entry is one key/value pair. It caches no hash: only merge, pushing two
// keys one level down, needs the hash of a stored key, and recomputes it.
type entry[V any] struct {
	key string
	val V
}

// node is one trie level: a bitmap-compressed array of entries (leaves) and
// child nodes. A slot is either empty, an entry, or a child — never both.
// At shift > maxShift a node degenerates into a collision bucket: all
// entries share the full 64-bit hash and live in `entries` unordered.
type node[V any] struct {
	entryMap uint32 // bitmap of slots holding an entry
	nodeMap  uint32 // bitmap of slots holding a child node
	entries  []entry[V]
	children []*node[V]
	// own is the id of the edit that created the node (zero for Map.Set and
	// Map.Delete), plus ownEntries / ownChildren for each slice that edit
	// allocated too: a copied node shares the slice it has not written with
	// the node it was copied from. Only updates read it.
	own uint64
}

const (
	ownEntries  = 1 << iota // entries is this edit's own array
	ownChildren             // children is this edit's own array
	ownFlags    = ownEntries | ownChildren
)

// editSeq issues edit ids (shifted past the ownership flags; never zero).
var editSeq atomic.Uint64

// hashMask is ANDed into every key hash. Tests narrow it to force
// collisions.
var hashMask = ^uint64(0)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashKey is FNV-1a 64 of a key held as a string or as bytes.
func hashKey[K string | []byte](key K) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h & hashMask
}

// New returns an empty map.
func New[V any]() *Map[V] {
	return &Map[V]{}
}

// Len returns the number of keys.
func (m *Map[V]) Len() int { return m.size }

// Get returns the value stored under key.
func (m *Map[V]) Get(key string) (V, bool) {
	if e := find(&m.root, hashKey(key), key); e != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// GetBytes is Get for a key held as bytes (an encoding still in its scratch
// buffer): the probe builds no string.
func (m *Map[V]) GetBytes(key []byte) (V, bool) {
	if e := find(&m.root, hashKey(key), key); e != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Lookup is GetBytes that also returns the key string the map stores the
// binding under, so a caller that goes on to store or delete under that key
// hands over that string instead of building a new one from its bytes.
func (m *Map[V]) Lookup(key []byte) (string, V, bool) {
	if e := find(&m.root, hashKey(key), key); e != nil {
		return e.key, e.val, true
	}
	var zero V
	return "", zero, false
}

// find returns the entry holding key (of hash h) below n, or nil.
func find[V any, K string | []byte](n *node[V], h uint64, key K) *entry[V] {
	for shift := uint(0); shift <= maxShift; shift += fanLog {
		bit := uint32(1) << ((h >> shift) & slotMa)
		if n.entryMap&bit != 0 {
			if e := &n.entries[index(n.entryMap, bit)]; e.key == string(key) {
				return e
			}
			return nil
		}
		if n.nodeMap&bit == 0 {
			return nil
		}
		n = n.children[index(n.nodeMap, bit)]
	}
	// Collision bucket: linear search.
	for i := range n.entries {
		if n.entries[i].key == string(key) {
			return &n.entries[i]
		}
	}
	return nil
}

// Set returns a map with key bound to val (replacing any existing binding):
// an edit of one update.
func (m *Map[V]) Set(key string, val V) *Map[V] {
	e := m.Edit()
	e.Set(key, val)
	return e.Freeze()
}

// Delete returns a map without key (the receiver if key is absent).
func (m *Map[V]) Delete(key string) *Map[V] {
	if _, ok := m.Get(key); !ok {
		return m
	}
	e := m.Edit()
	e.Delete(key)
	return e.Freeze()
}

// Range calls fn for every key/value pair until fn returns false. Iteration
// order is unspecified but deterministic for a given map value.
func (m *Map[V]) Range(fn func(key string, val V) bool) {
	walk(&m.root, fn)
}

// Editor applies a run of updates to one map version in place wherever the
// structure is its own, and hands the result back as an immutable Map. It is
// for one goroutine; nothing it has written is visible to anyone until
// Freeze, and the map it was opened on never changes.
type Editor[V any] struct {
	m  Map[V]
	id uint64 // zero once frozen
}

// Edit opens an editor on m. The editor's header starts as a copy of m's —
// root node included, which the edit therefore owns from the start, sharing
// both of its slices with m until it writes them.
func (m *Map[V]) Edit() *Editor[V] {
	e := new(Editor[V])
	e.Reset(m)
	return e
}

// Reset (re)opens e on m in place, as Edit does for a new editor, whatever
// e held before: a writer that keeps its editors from one edit to the next
// pays for no editor header. The edit gets a fresh id, so no node an earlier
// edit of e created is writable by this one.
func (e *Editor[V]) Reset(m *Map[V]) {
	e.m, e.id = *m, editSeq.Add(1)<<2
	e.m.root.own = e.id
}

// Len returns the number of keys in the version under construction.
func (e *Editor[V]) Len() int { return e.m.size }

// Get reads the version under construction.
func (e *Editor[V]) Get(key string) (V, bool) { return e.m.Get(key) }

// GetBytes reads the version under construction (see Map.GetBytes).
func (e *Editor[V]) GetBytes(key []byte) (V, bool) { return e.m.GetBytes(key) }

// Lookup reads the version under construction (see Map.Lookup).
func (e *Editor[V]) Lookup(key []byte) (string, V, bool) { return e.m.Lookup(key) }

// Set binds key to val in the version under construction.
func (e *Editor[V]) Set(key string, val V) {
	e.live()
	if _, added := set(&e.m.root, 0, hashKey(key), entry[V]{key: key, val: val}, e.id); added {
		e.m.size++
	}
}

// Delete removes key from the version under construction.
func (e *Editor[V]) Delete(key string) {
	e.live()
	if _, removed := del(&e.m.root, 0, hashKey(key), key, e.id); removed {
		e.m.size--
	}
}

// Freeze ends the edit and returns the version built. The result is the
// editor's own header (no allocation), which is why a frozen editor refuses
// further updates instead of turning into a second writer of that header.
func (e *Editor[V]) Freeze() *Map[V] {
	e.live()
	e.id = 0
	return &e.m
}

// FreezeInto ends the edit and stores the version built in *dst, a header
// the caller owns (a field of a larger value, say), so the edit allocates no
// header of its own. The editor lets go of the version and may be Reset.
func (e *Editor[V]) FreezeInto(dst *Map[V]) {
	e.live()
	*dst, e.m, e.id = e.m, Map[V]{}, 0
}

func (e *Editor[V]) live() {
	if e.id == 0 {
		panic("immap: Editor used after Freeze")
	}
}

// index converts a slot bit into a compressed-array index: the number of
// set bits below it.
func index(bitmap, bit uint32) int {
	return bits.OnesCount32(bitmap & (bit - 1))
}

// writable returns the node an update under edit id may write: n itself if
// that edit created it, otherwise a copy that still shares both slices with n
// (the slice helpers below replace whichever one the update writes).
func (n *node[V]) writable(id uint64) *node[V] {
	if id != 0 && n.own&^ownFlags == id {
		return n
	}
	return &node[V]{entryMap: n.entryMap, nodeMap: n.nodeMap, entries: n.entries, children: n.children, own: id}
}

// The helpers below write one slice of a node obtained from writable. A
// slice the edit does not own yet is replaced by a copy of exactly the
// needed length, so no node ever carries slack it did not earn by a removal.

func (n *node[V]) setEntry(i int, e entry[V]) {
	if n.own&ownEntries == 0 {
		n.entries = append(make([]entry[V], 0, len(n.entries)), n.entries...)
		n.own |= ownEntries
	}
	n.entries[i] = e
}

func (n *node[V]) insertEntry(i int, e entry[V]) {
	old := n.entries
	if n.own&ownEntries != 0 && len(old) < cap(old) {
		n.entries = old[:len(old)+1]
	} else {
		n.entries = make([]entry[V], len(old)+1)
		copy(n.entries, old[:i])
		n.own |= ownEntries
	}
	copy(n.entries[i+1:], old[i:])
	n.entries[i] = e
}

func (n *node[V]) removeEntry(i int) {
	old := n.entries
	if n.own&ownEntries != 0 {
		copy(old[i:], old[i+1:])
		old[len(old)-1] = entry[V]{} // drop the reference the shift duplicated
		n.entries = old[:len(old)-1]
		return
	}
	n.entries = make([]entry[V], len(old)-1)
	copy(n.entries, old[:i])
	copy(n.entries[i:], old[i+1:])
	n.own |= ownEntries
}

func (n *node[V]) setChild(i int, child *node[V]) {
	if n.own&ownChildren == 0 {
		n.children = append(make([]*node[V], 0, len(n.children)), n.children...)
		n.own |= ownChildren
	}
	n.children[i] = child
}

func (n *node[V]) insertChild(i int, child *node[V]) {
	old := n.children
	n.children = make([]*node[V], len(old)+1)
	copy(n.children, old[:i])
	copy(n.children[i+1:], old[i:])
	n.children[i] = child
	n.own |= ownChildren
}

// set inserts e, whose key hashes to h, below n at the given shift under
// edit id, returning the node that now stands in n's place (n itself if the
// edit owns it) and whether the key is new (false = replaced).
func set[V any](n *node[V], shift uint, h uint64, e entry[V], id uint64) (*node[V], bool) {
	if shift > maxShift {
		c := n.writable(id)
		for i := range c.entries {
			if c.entries[i].key == e.key {
				c.setEntry(i, e)
				return c, false
			}
		}
		c.insertEntry(len(c.entries), e)
		return c, true
	}
	bit := uint32(1) << ((h >> shift) & slotMa)
	switch {
	case n.entryMap&bit != 0:
		i := index(n.entryMap, bit)
		c := n.writable(id)
		if c.entries[i].key == e.key {
			c.setEntry(i, e)
			return c, false
		}
		// Two distinct keys in one slot: push both one level down.
		old := c.entries[i]
		child := merge(old, hashKey(old.key), e, h, shift+fanLog, id)
		c.removeEntry(i)
		c.entryMap &^= bit
		c.nodeMap |= bit
		c.insertChild(index(c.nodeMap, bit), child)
		return c, true
	case n.nodeMap&bit != 0:
		i := index(n.nodeMap, bit)
		child, added := set(n.children[i], shift+fanLog, h, e, id)
		if child == n.children[i] {
			return n, added // edited in place below
		}
		c := n.writable(id)
		c.setChild(i, child)
		return c, added
	default:
		c := n.writable(id)
		c.entryMap |= bit
		c.insertEntry(index(c.entryMap, bit), e)
		return c, true
	}
}

// merge builds the minimal subtree holding two entries, of hashes ah and
// bh, that collided in one slot at the parent level.
func merge[V any](a entry[V], ah uint64, b entry[V], bh uint64, shift uint, id uint64) *node[V] {
	own := id | ownFlags
	if shift > maxShift {
		return &node[V]{entries: []entry[V]{a, b}, own: own}
	}
	abit := uint32(1) << ((ah >> shift) & slotMa)
	bbit := uint32(1) << ((bh >> shift) & slotMa)
	if abit == bbit {
		return &node[V]{nodeMap: abit, children: []*node[V]{merge(a, ah, b, bh, shift+fanLog, id)}, own: own}
	}
	n := &node[V]{entryMap: abit | bbit, own: own}
	if index(n.entryMap, abit) == 0 {
		n.entries = []entry[V]{a, b}
	} else {
		n.entries = []entry[V]{b, a}
	}
	return n
}

// del removes key below n under edit id, returning the node that now stands
// in n's place and whether the key was present. The result may be sparser
// than the original but is never compacted upward: stray empty nodes cost a
// pointer hop and vanish with the version itself, which keeps deletion
// single-pass.
func del[V any](n *node[V], shift uint, h uint64, key string, id uint64) (*node[V], bool) {
	if shift > maxShift {
		for i := range n.entries {
			if n.entries[i].key == key {
				c := n.writable(id)
				c.removeEntry(i)
				return c, true
			}
		}
		return n, false
	}
	bit := uint32(1) << ((h >> shift) & slotMa)
	if n.entryMap&bit != 0 {
		i := index(n.entryMap, bit)
		if n.entries[i].key != key {
			return n, false
		}
		c := n.writable(id)
		c.removeEntry(i)
		c.entryMap &^= bit
		return c, true
	}
	if n.nodeMap&bit == 0 {
		return n, false
	}
	i := index(n.nodeMap, bit)
	child, removed := del(n.children[i], shift+fanLog, h, key, id)
	if child == n.children[i] {
		return n, removed // absent, or edited in place below
	}
	c := n.writable(id)
	c.setChild(i, child)
	return c, true
}

// walk visits every entry of the subtree; returns false to stop early.
func walk[V any](n *node[V], fn func(string, V) bool) bool {
	for i := range n.entries {
		if !fn(n.entries[i].key, n.entries[i].val) {
			return false
		}
	}
	for _, child := range n.children {
		if !walk(child, fn) {
			return false
		}
	}
	return true
}
