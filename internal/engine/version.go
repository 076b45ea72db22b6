package engine

import (
	"fmt"

	"repro/internal/immap"
	"repro/internal/relation"
	"repro/internal/schema"
)

// This file implements the engine's MVCC read path: immutable versioned
// table snapshots with copy-on-write publication.
//
//   - tableVersion is one immutable version of a table's contents: the
//     primary-key index and every secondary index as persistent
//     (structurally shared) maps. A published version is never modified.
//   - dbSnapshot bundles one version per table plus the WAL LSN of the last
//     operation it contains. DB.current holds the latest published snapshot;
//     a single atomic pointer load pins a consistent cross-table view.
//   - Readers (GetByKeyCtx, Scan, FetchWithReferences, View) pin a snapshot and
//     run entirely lock-free; writers never block them.
//   - Writers serialize on the writer mutex (DB.wmu), so the snapshot a
//     writer pins is the latest version and stays so until it publishes.
//     Mutations are staged in a writeTx — one immap.Editor per index the
//     operation writes, opened on the pinned version — and become visible in
//     ONE publish after the WAL accepts the record (commitEffects, txn.go).
//     An editor never outlives its writeTx: publish freezes it into the next
//     immutable version, and a failed or violating operation simply drops
//     its writeTx, editors and all — the published state was never touched,
//     so there is nothing to revert.
//   - Old versions are reclaimed by the garbage collector once the last
//     reader drops its snapshot pointer; no epoch or hazard bookkeeping.

// tableVersion is one immutable published version of a table's indexes.
// The pk map is keyed by the encoded primary-key value. Each secondary map
// (one per slot of table.sec) maps an encoded attribute value to the bucket
// of rows holding it, a row being the very key string the pk map stores it
// under: 16 bytes a row, and a reader resolves it with one more pk lookup.
// Buckets are flat slices copied on every change, not nested persistent
// sets: nearly all of them hold one row, and a map header and node per
// bucket would cost more memory than the copies of the few long ones save.
type tableVersion struct {
	pk  *immap.Map[relation.Tuple]
	sec []*immap.Map[[]string]
}

// dbSnapshot is one immutable, cross-table-consistent version of the whole
// database, stamped with the WAL LSN of the newest operation it contains
// (a logical sequence number for non-durable engines). It carries the schema
// binding it was published under — tables is indexed by that binding's table
// ordinals — so a pinned reader resolves relation names, dependency hops,
// and index layouts against the design that produced the snapshot: a live
// schema migration never changes what an already-pinned View answers.
type dbSnapshot struct {
	lsn    uint64
	tables []*tableVersion
	bind   *binding
}

// count returns the tuple count of the named relation (0 if unknown).
func (s *dbSnapshot) count(name string) int {
	t := s.bind.tables[name]
	if t == nil {
		return 0
	}
	return s.tables[t.ord].pk.Len()
}

// writeTx stages the mutations of one operation (or one whole batch) as
// unpublished index versions derived from a pinned snapshot. Validation reads
// go through the writeTx so earlier staged mutations are visible to later
// checks of the same batch; concurrent readers see none of it until publish.
type writeTx struct {
	snap *dbSnapshot
	// work holds the staged tables, few enough to search linearly.
	work []*workTable
	// kb is the scratch space probe keys are encoded into: a key is looked up
	// as bytes and becomes a string only when an index stores it. One probe
	// key is live at a time.
	kb [64]byte
}

// workTable holds the in-progress next version of one table: an editor per
// index the transaction has written, opened on base at the first write.
type workTable struct {
	t    *table
	base *tableVersion
	pk   *immap.Editor[relation.Tuple]
	sec  []*immap.Editor[[]string] // by slot; nil until written
}

// beginWrite pins the current snapshot as the base of a new write
// transaction. It must be called with the writer mutex held, which guarantees
// nobody publishes a newer version before this transaction does.
func (db *DB) beginWrite() *writeTx {
	return &writeTx{snap: db.current.Load()}
}

// staged returns the working version of t, or nil if the transaction has not
// written t.
func (tx *writeTx) staged(t *table) *workTable {
	for _, wt := range tx.work {
		if wt.t == t {
			return wt
		}
	}
	return nil
}

// stage returns (creating on first mutation) the working version of t.
func (tx *writeTx) stage(t *table) *workTable {
	if wt := tx.staged(t); wt != nil {
		return wt
	}
	wt := &workTable{t: t, base: tx.snap.tables[t.ord]}
	if len(t.sec) > 0 {
		wt.sec = make([]*immap.Editor[[]string], len(t.sec))
	}
	tx.work = append(tx.work, wt)
	return wt
}

func (wt *workTable) pkEditor() *immap.Editor[relation.Tuple] {
	if wt.pk == nil {
		wt.pk = wt.base.pk.Edit()
	}
	return wt.pk
}

func (wt *workTable) secEditor(slot int) *immap.Editor[[]string] {
	if wt.sec[slot] == nil {
		wt.sec[slot] = wt.base.sec[slot].Edit()
	}
	return wt.sec[slot]
}

// freeze ends the table's editors and returns the version they built; the
// indexes the transaction never wrote are base's own.
func (wt *workTable) freeze() *tableVersion {
	tv := &tableVersion{pk: wt.base.pk, sec: wt.base.sec}
	if wt.pk != nil {
		tv.pk = wt.pk.Freeze()
	}
	shared := true
	for slot, ed := range wt.sec {
		if ed == nil {
			continue
		}
		if shared {
			tv.sec, shared = append([]*immap.Map[[]string](nil), wt.base.sec...), false
		}
		tv.sec[slot] = ed.Freeze()
	}
	return tv
}

// keyOf encodes tup's primary key for t as the string the pk index stores.
func (tx *writeTx) keyOf(t *table, tup relation.Tuple) string {
	return string(tup.AppendKeyAt(tx.kb[:0], t.pkPos))
}

// pkGet reads the primary-key index of t: staged version if this transaction
// wrote it, pinned snapshot otherwise.
func (tx *writeTx) pkGet(t *table, key string) (relation.Tuple, bool) {
	if wt := tx.staged(t); wt != nil && wt.pk != nil {
		return wt.pk.Get(key)
	}
	return tx.snap.tables[t.ord].pk.Get(key)
}

// pkHas is pkGet for a probe key still in its scratch buffer.
func (tx *writeTx) pkHas(t *table, key []byte) bool {
	var ok bool
	if wt := tx.staged(t); wt != nil && wt.pk != nil {
		_, ok = wt.pk.GetBytes(key)
	} else {
		_, ok = tx.snap.tables[t.ord].pk.GetBytes(key)
	}
	return ok
}

// bucket reads one secondary-index bucket of t (staged or pinned, like pkGet).
func (tx *writeTx) bucket(t *table, slot int, key []byte) []string {
	var b []string
	if wt := tx.staged(t); wt != nil && wt.sec[slot] != nil {
		b, _ = wt.sec[slot].GetBytes(key)
	} else {
		b, _ = tx.snap.tables[t.ord].sec[slot].GetBytes(key)
	}
	return b
}

// references reports whether any staged-or-pinned tuple of ip.left carries
// the encoded LeftAttrs value key: the restrict probe of deletes and updates
// on the referenced side.
func (tx *writeTx) references(ip *indPlan, key []byte) bool {
	if ip.leftSlot == pkSlot {
		return tx.pkHas(ip.left, key)
	}
	return len(tx.bucket(ip.left, ip.leftSlot, key)) > 0
}

// apply stages one tuple insertion into t under its encoded primary key: the
// pk index and every secondary index the tuple is total on. The published
// snapshot is untouched.
func (tx *writeTx) apply(t *table, tup relation.Tuple, key string) {
	wt := tx.stage(t)
	wt.pkEditor().Set(key, tup)
	for slot, ps := range t.sec {
		if !tup.TotalAt(ps) {
			continue
		}
		ek := tup.AppendKeyAt(tx.kb[:0], ps)
		idx := wt.secEditor(slot)
		old, _ := idx.GetBytes(ek)
		bucket := make([]string, len(old)+1)
		copy(bucket, old)
		bucket[len(old)] = key
		idx.Set(string(ek), bucket)
	}
}

// remove stages the removal of the tuple stored under key from t. Emptied
// secondary buckets are deleted outright, so delete/insert churn over fresh
// keys never grows an index by retired empty buckets.
func (tx *writeTx) remove(t *table, tup relation.Tuple, key string) {
	wt := tx.stage(t)
	wt.pkEditor().Delete(key)
	for slot, ps := range t.sec {
		if !tup.TotalAt(ps) {
			continue
		}
		ek := tup.AppendKeyAt(tx.kb[:0], ps)
		idx := wt.secEditor(slot)
		old, _ := idx.GetBytes(ek)
		at := -1
		for i, row := range old {
			if row == key {
				at = i
				break
			}
		}
		switch {
		case at < 0:
		case len(old) == 1:
			idx.Delete(string(ek))
		default:
			bucket := make([]string, 0, len(old)-1)
			bucket = append(append(bucket, old[:at]...), old[at+1:]...)
			idx.Set(string(ek), bucket)
		}
	}
}

// publish makes the transaction's staged table versions the current
// snapshot, stamped with the LSN of the WAL record that made them durable.
// This is the single point where writes become visible to readers: one
// atomic pointer swap covers every table the operation touched, so a
// concurrent reader sees either all of a batch or none of it.
//
// The caller holds the writer mutex from before it logged the record, so it
// is the only publisher and log order is publish order: the version stamped
// lsn holds exactly the effects of the log prefix up to lsn.
func (db *DB) publish(tx *writeTx, lsn uint64) {
	if len(tx.work) == 0 {
		return
	}
	start := now()
	cur := db.current.Load()
	tables := append([]*tableVersion(nil), cur.tables...)
	for _, wt := range tx.work {
		tables[wt.t.ord] = wt.freeze()
	}
	db.current.Store(&dbSnapshot{lsn: lsn, tables: tables, bind: cur.bind})
	db.lastPublish.Store(now().UnixNano())
	db.m.publishes.Inc()
	db.m.versionLSN.Set(float64(lsn))
	db.m.publishLat.ObserveSince(start)
}

// View is a consistent read view pinned to one published version of the
// database. All methods are lock-free and safe for concurrent use; the view
// never observes later writes. Holding a View pins its version's memory, so
// long-lived views should be re-pinned (db.View()) when freshness matters.
type View struct {
	db   *DB
	snap *dbSnapshot
}

// View pins the current published version as a consistent read view.
func (db *DB) View() *View {
	return &View{db: db, snap: db.current.Load()}
}

// LSN returns the WAL LSN stamp of the pinned version.
func (v *View) LSN() uint64 { return v.snap.lsn }

// Count returns the tuple count of a relation in the pinned version.
func (v *View) Count(name string) int { return v.snap.count(name) }

// GetByKey is DB.GetByKeyCtx against the pinned version.
func (v *View) GetByKey(name string, key relation.Tuple) (relation.Tuple, bool) {
	tup, ok, err := v.db.getAt(v.snap, name, key)
	if err != nil {
		return nil, false
	}
	return tup, ok
}

// Scan is DB.Scan against the pinned version.
func (v *View) Scan(name string, pred func(relation.Tuple) bool, visit func(relation.Tuple)) error {
	return v.db.scanAt(v.snap, name, pred, visit)
}

// Rows is the union of the views' pinned versions as a schema.Rows source.
func Rows(views ...*View) schema.Rows {
	return func(name string, yield func(relation.Tuple) bool) {
		more := true
		for _, v := range views {
			if t := v.snap.bind.tables[name]; t != nil && more {
				v.snap.tables[t.ord].pk.Range(func(_ string, tup relation.Tuple) bool {
					more = yield(tup)
					return more
				})
			}
		}
	}
}

// FetchWithReferences is DB.FetchWithReferences against the pinned version.
func (v *View) FetchWithReferences(name string, key relation.Tuple) (relation.Tuple, []Related, error) {
	return v.db.fetchAt(v.snap, name, key)
}

// VersionLSN returns the LSN stamp of the current published version: the WAL
// LSN of the newest committed operation (a logical sequence number for
// non-durable engines).
func (db *DB) VersionLSN() uint64 { return db.current.Load().lsn }

// TxnView returns the consistent read view pinned when the open transaction
// began, or false if no transaction is open. Within the transaction, reads
// through the DB methods see the transaction's own (published) writes, while
// the TxnView keeps answering from the begin-LSN version. Lock-free.
func (db *DB) TxnView() (*View, bool) {
	snap := db.txn.Load()
	if snap == nil {
		return nil, false
	}
	return &View{db: db, snap: snap}, true
}

// getAt answers a key lookup from one pinned snapshot.
func (db *DB) getAt(snap *dbSnapshot, name string, key relation.Tuple) (relation.Tuple, bool, error) {
	t := snap.bind.tables[name]
	if t == nil {
		return nil, false, fmt.Errorf("%w %s", ErrUnknownRelation, name)
	}
	var kb [64]byte
	tup, ok := snap.tables[t.ord].pk.GetBytes(key.AppendKey(kb[:0]))
	db.countLookup()
	db.countIdx()
	db.countSnapRead()
	db.noteFetch(snap.bind, name)
	return tup, ok, nil
}

// scanAt visits every tuple of one pinned snapshot's version of the
// relation. The callbacks run against immutable data with no locks held, so
// they may re-enter the DB freely (even with mutations); the scan itself can
// never observe those — or any concurrent — mutations.
func (db *DB) scanAt(snap *dbSnapshot, name string, pred func(relation.Tuple) bool, visit func(relation.Tuple)) error {
	t := snap.bind.tables[name]
	if t == nil {
		return fmt.Errorf("%w %s", ErrUnknownRelation, name)
	}
	v := snap.tables[t.ord]
	db.countScan(v.pk.Len())
	db.countSnapRead()
	v.pk.Range(func(_ string, tup relation.Tuple) bool {
		if pred == nil || pred(tup) {
			visit(tup)
		}
		return true
	})
	return nil
}

// fetchAt runs the FK chase of FetchWithReferences against one pinned
// snapshot: the root lookup and every dependency hop read the same version,
// so the result can never mix tuples from different batches.
func (db *DB) fetchAt(snap *dbSnapshot, name string, key relation.Tuple) (relation.Tuple, []Related, error) {
	start := now()
	bind := snap.bind
	t := bind.tables[name]
	if t == nil {
		return nil, nil, fmt.Errorf("%w %s", ErrUnknownRelation, name)
	}
	defer db.m.lookupLat.ObserveSince(start)
	db.countLookup()
	db.countIdx()
	db.countSnapRead()
	db.noteFetch(bind, name)
	var kb [64]byte
	tup, ok := snap.tables[t.ord].pk.GetBytes(key.AppendKey(kb[:0]))
	if !ok {
		return nil, nil, fmt.Errorf("%w: no %s tuple with key %v", ErrNoSuchTuple, name, key)
	}
	var related []Related
	if len(t.out) > 0 {
		related = make([]Related, 0, len(t.out))
	}
	for _, ip := range t.out {
		rel := Related{From: name, To: ip.right.name, FK: ip.IND.LeftAttrs}
		if !tup.TotalAt(ip.ProbePos) {
			rel.IsNull = true
			related = append(related, rel)
			continue
		}
		db.countLookup()
		db.countIdx()
		fk := tup.AppendKeyAt(kb[:0], ip.ProbePos)
		tv := snap.tables[ip.right.ord]
		if ip.KeyBased {
			rel.Tuple, _ = tv.pk.GetBytes(fk)
		} else if rows, _ := tv.sec[ip.rightSlot].GetBytes(fk); len(rows) > 0 {
			// Any row carrying the value will do; the bucket names it by its
			// primary key.
			rel.Tuple, _ = tv.pk.Get(rows[0])
		}
		if rel.Tuple != nil {
			ip.edge.hits.Add(1)
			db.countCoAccess()
		}
		related = append(related, rel)
	}
	return tup, related, nil
}
