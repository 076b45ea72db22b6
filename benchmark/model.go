package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/relation"
	"repro/internal/state"
)

// model is the reference the engine is checked against: one Go map per
// relation, keyed by the primary key's string, and the three constraint
// rules the workloads exercise written out by hand. It shares no code with
// the engine beyond the Tuple type. Every relation of the benchmark designs
// has its single-attribute primary key in position 0.
type model struct {
	rels map[string]map[string]relation.Tuple
	// fks lists, per relation, the columns that must name a row of another
	// relation when they are not null.
	fks map[string][]fkRule
	// chain names the relation carrying the null-existence chain
	// X(i) ⊑ X(i-1) over columns 1..n ("" for none): column i may be set
	// only if column i-1 is.
	chain string
}

type fkRule struct {
	col    int
	target string
}

func newModel() *model {
	return &model{rels: map[string]map[string]relation.Tuple{}, fks: map[string][]fkRule{}}
}

func (m *model) addRelation(name string, fks ...fkRule) {
	m.rels[name] = map[string]relation.Tuple{}
	m.fks[name] = fks
}

// load puts a row in without checking it (initial state).
func (m *model) load(rel string, tup relation.Tuple) { m.rels[rel][tup[0].AsString()] = tup }

// admissible says whether tup may be stored in rel, apart from key uniqueness.
func (m *model) admissible(rel string, tup relation.Tuple) bool {
	if tup[0].IsNull() {
		return false
	}
	for _, fk := range m.fks[rel] {
		v := tup[fk.col]
		if v.IsNull() {
			continue
		}
		if _, ok := m.rels[fk.target][v.AsString()]; !ok {
			return false
		}
	}
	if rel == m.chain {
		for i := 2; i < len(tup); i++ {
			if !tup[i].IsNull() && tup[i-1].IsNull() {
				return false
			}
		}
	}
	return true
}

// insert, update and remove return whether the model accepts the operation;
// a refused operation leaves the model unchanged.
func (m *model) insert(rel string, tup relation.Tuple) bool {
	if _, dup := m.rels[rel][tup[0].AsString()]; dup || !m.admissible(rel, tup) {
		return false
	}
	m.load(rel, tup)
	return true
}

func (m *model) update(rel string, key, tup relation.Tuple) bool {
	k := key[0].AsString()
	if _, ok := m.rels[rel][k]; !ok || tup[0].AsString() != k || !m.admissible(rel, tup) {
		return false
	}
	m.rels[rel][k] = tup
	return true
}

func (m *model) remove(rel string, key relation.Tuple) bool {
	k := key[0].AsString()
	if _, ok := m.rels[rel][k]; !ok {
		return false
	}
	delete(m.rels[rel], k)
	return true
}

func (m *model) get(rel string, key relation.Tuple) (relation.Tuple, bool) {
	t, ok := m.rels[rel][key[0].AsString()]
	return t, ok
}

// digest is an order-independent summary of a database state: the row count
// of every relation and the wrapping sum of the rows' hashes.
type digest struct {
	Rows map[string]int `json:"rows"`
	Sum  uint64         `json:"sum"`
}

func rowHash(rel string, tup relation.Tuple) uint64 {
	h := fnv.New64a()
	h.Write([]byte(rel))
	for _, v := range tup {
		if v.IsNull() {
			h.Write([]byte{0})
			continue
		}
		h.Write([]byte{1})
		h.Write([]byte(v.AsString()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func (m *model) digest() digest {
	d := digest{Rows: map[string]int{}}
	for rel, rows := range m.rels {
		d.Rows[rel] = len(rows)
		for _, tup := range rows {
			d.Sum += rowHash(rel, tup)
		}
	}
	return d
}

func stateDigest(st *state.DB) digest {
	d := digest{Rows: map[string]int{}}
	for rel, r := range st.Relations {
		d.Rows[rel] = r.Len()
		for _, tup := range r.Tuples() {
			d.Sum += rowHash(rel, tup)
		}
	}
	return d
}

// diff describes how got departs from want ("" when they agree).
func (want digest) diff(got digest) string {
	for rel, n := range want.Rows {
		if got.Rows[rel] != n {
			return fmt.Sprintf("relation %s holds %d rows, the model %d", rel, got.Rows[rel], n)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("state has %d relations, the model %d", len(got.Rows), len(want.Rows))
	}
	if got.Sum != want.Sum {
		return fmt.Sprintf("state checksum %016x, the model's %016x", got.Sum, want.Sum)
	}
	return ""
}
