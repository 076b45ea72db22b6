package attrset

import (
	"hash/maphash"
	"math/bits"
	"sync/atomic"
)

// fingerprint is a 128-bit structural hash. Indexes and closure memo entries
// are keyed by fingerprint alone (no stored-key verification); a collision
// would need two distinct dependency sets or seed sets agreeing on both
// lanes, which at the cache sizes involved is vanishingly unlikely.
type fingerprint struct{ hi, lo uint64 }

const (
	fpOffsetHi = 0xcbf29ce484222325 // FNV-64 offset basis
	fpOffsetLo = 0x9e3779b97f4a7c15 // golden-ratio constant
	fpPrimeHi  = 0x00000100000001b3 // FNV-64 prime
	fpPrimeLo  = 0xc6a4a7935bd1e995 // MurmurHash64A constant
)

// stringSeed keys the per-string hashes; cache keys never leave the process,
// so a per-process random seed is fine.
var stringSeed = maphash.MakeSeed()

func (f *fingerprint) mix(h uint64) {
	f.hi = (f.hi ^ h) * fpPrimeHi
	f.lo = bits.RotateLeft64(f.lo^h, 29) * fpPrimeLo
}

// fingerprintDeps hashes a dependency list: per-dep and per-side separators
// keep ({A,B}→C) and ({A}→{B,C}) structurally distinct.
func fingerprintDeps(n int, dep func(int) (lhs, rhs []string)) fingerprint {
	f := fingerprint{hi: fpOffsetHi, lo: fpOffsetLo}
	for i := 0; i < n; i++ {
		lhs, rhs := dep(i)
		f.mix(0x2545f4914f6cdd1d)
		for _, s := range lhs {
			f.mix(maphash.String(stringSeed, s))
		}
		f.mix(0xbf58476d1ce4e5b9)
		for _, s := range rhs {
			f.mix(maphash.String(stringSeed, s))
		}
	}
	return f
}

// fingerprintIDs hashes a sorted, deduplicated id slice (a canonical seed).
func fingerprintIDs(ids []int32) fingerprint {
	f := fingerprint{hi: fpOffsetHi, lo: fpOffsetLo}
	for _, id := range ids {
		f.mix(uint64(id) + 0x9e3779b9)
	}
	return f
}

// Index is an immutable compilation of one dependency set: interned LHS/RHS
// id lists plus, per attribute, the list of dependencies whose LHS mentions
// it. It owns its interner, which keeps ids dense for the bitsets; seed
// attributes outside the dependency set are interned on first use and simply
// have no occurrence lists.
type Index struct {
	in     *Interner
	fp     fingerprint
	serial uint64 // unique per built instance; keys the closure memo
	lhs    [][]int32
	rhs    [][]int32
	occurs [][]int32 // attr id -> indices of deps with the attr in their LHS
}

// indexSerial distinguishes Index instances. Closure memo entries are keyed
// by serial rather than by dependency fingerprint: interner ids depend on
// the order seeds were interned over the index's lifetime, so an entry
// recorded against an evicted-and-rebuilt index (same fingerprint, fresh
// interner) must never be visible to the new instance.
var indexSerial atomic.Uint64

// buildIndex compiles the dependency list. A duplicated attribute inside one
// LHS contributes one occurrence entry per duplicate, matching the
// unsatisfied-attribute counter len(lhs), so duplicates stay consistent.
func buildIndex(n int, dep func(int) (lhs, rhs []string), fp fingerprint) *Index {
	in := NewInterner()
	ix := &Index{in: in, fp: fp, serial: indexSerial.Add(1), lhs: make([][]int32, n), rhs: make([][]int32, n)}
	for i := 0; i < n; i++ {
		l, r := dep(i)
		li := make([]int32, len(l))
		for j, s := range l {
			li[j] = in.Intern(s)
		}
		ri := make([]int32, len(r))
		for j, s := range r {
			ri[j] = in.Intern(s)
		}
		ix.lhs[i], ix.rhs[i] = li, ri
	}
	ix.occurs = make([][]int32, in.Len())
	for di, l := range ix.lhs {
		for _, id := range l {
			ix.occurs[id] = append(ix.occurs[id], int32(di))
		}
	}
	return ix
}

// scratch holds the reusable per-closure working state; pooled by Engine so
// the steady-state closure loop allocates nothing.
type scratch struct {
	counts []int32
	queue  []int32
	ids    []int32
}

// closeInto computes the closure of seed into dst (which must be empty) with
// the counter algorithm: every dependency keeps a count of LHS attributes
// not yet in the closure; attributes enter a work queue once, and each
// pop decrements the counts of the dependencies mentioning the attribute,
// firing a dependency's RHS exactly when its count reaches zero. Total work
// is linear in the size of the dependency set.
func (ix *Index) closeInto(seed []int32, dst *Set, sc *scratch) {
	counts := sc.counts
	if cap(counts) < len(ix.lhs) {
		counts = make([]int32, len(ix.lhs))
	}
	counts = counts[:len(ix.lhs)]
	queue := sc.queue[:0]

	for i := range ix.lhs {
		counts[i] = int32(len(ix.lhs[i]))
	}
	for _, id := range seed {
		if !dst.Has(int(id)) {
			dst.Add(int(id))
			queue = append(queue, id)
		}
	}
	// Dependencies with empty LHS (e.g. nulls-not-allowed constraints, whose
	// null-existence form is ∅ ⊑ Z) fire unconditionally.
	for i := range counts {
		if counts[i] == 0 {
			for _, r := range ix.rhs[i] {
				if !dst.Has(int(r)) {
					dst.Add(int(r))
					queue = append(queue, r)
				}
			}
		}
	}
	for head := 0; head < len(queue); head++ {
		id := int(queue[head])
		if id >= len(ix.occurs) {
			continue // seed attribute outside the dependency set
		}
		for _, di := range ix.occurs[id] {
			counts[di]--
			if counts[di] == 0 {
				for _, r := range ix.rhs[di] {
					if !dst.Has(int(r)) {
						dst.Add(int(r))
						queue = append(queue, r)
					}
				}
			}
		}
	}
	sc.counts = counts
	sc.queue = queue
}
