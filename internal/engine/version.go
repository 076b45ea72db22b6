package engine

import (
	"bytes"
	"fmt"

	"repro/internal/immap"
	"repro/internal/relation"
	"repro/internal/schema"
)

// This file implements the engine's MVCC read path: immutable versioned
// table snapshots with copy-on-write publication.
//
//   - tableVersion is one immutable version of a table's contents: the
//     primary-key index and the table's one counted secondary index, both
//     persistent (structurally shared) maps held by value, so a reader
//     reaches either root in the hop that reaches the version. A published
//     version is never modified.
//   - dbSnapshot bundles one version per table plus the WAL LSN of the last
//     operation it contains. DB.current holds the latest published snapshot;
//     a single atomic pointer load pins a consistent cross-table view.
//   - Readers (GetByKeyCtx, Scan, FetchWithReferences, View) pin a snapshot and
//     run entirely lock-free; writers never block them.
//   - Writers serialize on the writer mutex (DB.wmu), so the snapshot a
//     writer pins is the latest version and stays so until it publishes.
//     Mutations are staged in a writeTx — at most two immap editors per
//     table the operation writes, reopened on the pinned version — and
//     become visible in ONE publish after the WAL accepts the record
//     (commitEffects, txn.go). Publish freezes the editors into the headers
//     of the next immutable version; a failed or violating operation simply
//     abandons its staging — the published state was never touched, so
//     there is nothing to revert.
//   - The staging is the writer's own and reused: the DB keeps one writeTx
//     (DB.wtx) with its workTables, their editors and its effects list, and
//     beginWrite wipes and re-arms it for each operation. Only the holder of
//     the writer mutex may touch it. A StagedBatch holds that mutex from
//     StageBatchCtx to Commit or Abort, so it points at DB.wtx rather than
//     owning a copy; build (migration, recovery, bootstrap) stages a state
//     nobody else can see into a writeTx of its own. Nothing an operation
//     staged survives into the next: beginWrite zeroes every workTable the
//     last one used, refused or not.
//   - Old versions are reclaimed by the garbage collector once the last
//     reader drops its snapshot pointer; no epoch or hazard bookkeeping.

// tableVersion is one immutable published version of a table's indexes.
// The pk map is keyed by the encoded primary-key value. The sec map is the
// table's one counted secondary index: for every slot of table.sec it maps
// slot byte ‖ encoded attribute value to the number of rows carrying that
// value, never zero. Every probe of a secondary index asks only whether some
// row carries a value, so a write changes one counter and copies no list of
// rows, and a row writing several slots pays for one root.
type tableVersion struct {
	pk  immap.Map[relation.Tuple]
	sec immap.Map[uint32]
}

// maxSlots is the number of secondary-index slots a table can have: the
// slot is the first byte of a sec key (compilePlans refuses more).
const maxSlots = 256

// appendSlot appends the sec key of slot and the encoded value val to dst.
func appendSlot(dst []byte, slot int, val []byte) []byte {
	return append(append(dst, byte(slot)), val...)
}

// carries reports whether any row of the version carries the encoded value
// val in secondary index slot.
func (tv *tableVersion) carries(slot int, val []byte) bool {
	var kb [64]byte
	n, _ := tv.sec.GetBytes(appendSlot(kb[:0], slot, val))
	return n > 0
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
	// work holds the staged tables, few enough to search linearly. Its
	// capacity is a pool: a workTable past len is zero and reused by stage.
	work []*workTable
	// eff records the operation's mutations (txn.go): the WAL record and,
	// inside a transaction, the undo log are made from it.
	eff effects
	// kb is the scratch space probe keys are encoded into: a key is looked up
	// as bytes and becomes a string only when an index stores it. One probe
	// key is live at a time.
	kb [64]byte
}

// workTable holds the in-progress next version of one table: an editor per
// index the transaction has written, reopened on base's index at the first
// write. pk and sec are nil until then, and point at pkEd and secEd after.
type workTable struct {
	t     *table
	base  *tableVersion
	pk    *immap.Editor[relation.Tuple]
	sec   *immap.Editor[uint32]
	pkEd  immap.Editor[relation.Tuple]
	secEd immap.Editor[uint32]
}

// keepEffects is how many ops an effects list may hold and still be kept
// for the next operation: a bulk load's list is dropped, not pinned.
const keepEffects = 1 << 10

// beginWrite re-arms the DB's own writeTx on the current snapshot and returns
// it. It must be called with the writer mutex held, which guarantees nobody
// publishes a newer version before this transaction does, and that nobody
// else is using the writeTx. Whatever the previous operation staged — and
// whether it published or was refused — is wiped here.
func (db *DB) beginWrite() *writeTx {
	tx := &db.wtx
	for _, wt := range tx.work {
		*wt = workTable{}
	}
	tx.snap, tx.work = db.current.Load(), tx.work[:0]
	if cap(tx.eff) > keepEffects {
		tx.eff = nil
	}
	tx.eff = tx.eff[:0]
	return tx
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
	n := len(tx.work)
	if n < cap(tx.work) {
		tx.work = tx.work[:n+1]
	} else {
		tx.work = append(tx.work, nil)
	}
	wt := tx.work[n]
	if wt == nil {
		wt = new(workTable)
		tx.work[n] = wt
	}
	wt.t, wt.base = t, tx.snap.tables[t.ord]
	return wt
}

func (wt *workTable) pkEditor() *immap.Editor[relation.Tuple] {
	if wt.pk == nil {
		wt.pkEd.Reset(&wt.base.pk)
		wt.pk = &wt.pkEd
	}
	return wt.pk
}

func (wt *workTable) secEditor() *immap.Editor[uint32] {
	if wt.sec == nil {
		wt.secEd.Reset(&wt.base.sec)
		wt.sec = &wt.secEd
	}
	return wt.sec
}

// freeze ends the table's editors and returns the version they built; an
// index the transaction never wrote is base's own.
func (wt *workTable) freeze() *tableVersion {
	tv := new(tableVersion)
	*tv = *wt.base
	if wt.pk != nil {
		wt.pk.FreezeInto(&tv.pk)
	}
	if wt.sec != nil {
		wt.sec.FreezeInto(&tv.sec)
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

// pkLookup is pkGet for a key still in its scratch buffer; it also returns
// the key string the index stores the row under, for the caller to stage
// the row's removal or replacement with.
func (tx *writeTx) pkLookup(t *table, key []byte) (string, relation.Tuple, bool) {
	if wt := tx.staged(t); wt != nil && wt.pk != nil {
		return wt.pk.Lookup(key)
	}
	return tx.snap.tables[t.ord].pk.Lookup(key)
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

// carries reports whether any row of t carries the encoded value val in
// secondary index slot (staged or pinned, like pkGet).
func (tx *writeTx) carries(t *table, slot int, val []byte) bool {
	wt := tx.staged(t)
	if wt == nil || wt.sec == nil {
		return tx.snap.tables[t.ord].carries(slot, val)
	}
	var kb [64]byte
	n, _ := wt.sec.GetBytes(appendSlot(kb[:0], slot, val))
	return n > 0
}

// references reports whether any staged-or-pinned tuple of ip.left carries
// the encoded LeftAttrs value key: the restrict probe of deletes and updates
// on the referenced side.
func (tx *writeTx) references(ip *indPlan, key []byte) bool {
	if ip.leftSlot == pkSlot {
		return tx.pkHas(ip.left, key)
	}
	return tx.carries(ip.left, ip.leftSlot, key)
}

// apply stages one tuple insertion into t under its encoded primary key: the
// pk index and the count of every secondary slot the tuple is total on. The published
// snapshot is untouched.
func (tx *writeTx) apply(t *table, tup relation.Tuple, key string) {
	wt := tx.stage(t)
	wt.pkEditor().Set(key, tup)
	for slot, ps := range t.sec {
		if !tup.TotalAt(ps) {
			continue
		}
		ek := tup.AppendKeyAt(append(tx.kb[:0], byte(slot)), ps)
		idx := wt.secEditor()
		if k, n, ok := idx.Lookup(ek); ok {
			idx.Set(k, n+1)
		} else {
			idx.Set(string(ek), 1)
		}
	}
}

// remove stages the removal of the tuple stored under key from t. A count
// that drops to zero is deleted outright, so delete/insert churn over fresh
// values never grows an index by retired entries.
func (tx *writeTx) remove(t *table, tup relation.Tuple, key string) {
	wt := tx.stage(t)
	wt.pkEditor().Delete(key)
	for slot, ps := range t.sec {
		if !tup.TotalAt(ps) {
			continue
		}
		idx := wt.secEditor()
		switch k, n, _ := idx.Lookup(tup.AppendKeyAt(append(tx.kb[:0], byte(slot)), ps)); {
		case n > 1:
			idx.Set(k, n-1)
		case n == 1:
			idx.Delete(k)
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
	db.noteFetch(snap.bind, t)
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

// firstCarrying returns the first row of pk, in range order, whose
// projection onto pos encodes to val. It is the fetch hop of a
// non-key-based dependency, whose index counts the rows carrying a value
// and does not name them; no workload takes that hop.
func firstCarrying(pk *immap.Map[relation.Tuple], pos []int, val []byte) relation.Tuple {
	var kb [64]byte
	var found relation.Tuple
	pk.Range(func(_ string, tup relation.Tuple) bool {
		if tup.TotalAt(pos) && bytes.Equal(tup.AppendKeyAt(kb[:0], pos), val) {
			found = tup
			return false
		}
		return true
	})
	return found
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
	db.noteFetch(bind, t)
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
		} else if tv.carries(ip.rightSlot, fk) {
			rel.Tuple = firstCarrying(&tv.pk, ip.RightPos, fk)
		}
		if rel.Tuple != nil {
			ip.edge.hits.Add(1)
			db.countCoAccess()
		}
		related = append(related, rel)
	}
	return tup, related, nil
}
