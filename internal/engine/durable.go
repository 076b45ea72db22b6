package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sdl"
	"repro/internal/wal"
)

// This file wires the write-ahead log (internal/wal) into the engine.
//
// Logging discipline: every successful mutating operation — single op or
// whole batch — is logged as ONE record holding all of its physical effects,
// appended and made durable in one wal.Commit while the operation still
// holds the writer mutex. If the log rejects the record the operation drops
// its staged effects and fails, so memory and disk always agree on the
// committed prefix. Transaction Begin/Commit/Rollback are logged as marker
// records under the same mutex, so replay sees markers and effects in the
// order the engine applied them.
//
// Recovery (on Open): adopt the newest snapshot (decode its rows straight
// into index editors, fold F ∪ I ∪ N over them, install), replay the log
// suffix through replayRecord (as a follower's ingest does), drop an
// unterminated transaction, and fold F ∪ I ∪ N over the resulting state. A
// state that fails a fold fails Open.

// WithDurability opens the engine's write-ahead log in dir with the given
// fsync policy. If dir already holds a log, Open recovers from it first; the
// engine then starts from the recovered state (see DB.Recovered).
func WithDurability(dir string, policy wal.SyncPolicy) Option {
	return func(c *openConfig) {
		c.walDir = dir
		c.walOpts = wal.Options{Policy: policy}
	}
}

// WithWALOptions is WithDurability with full control of the log options
// (segment size, fsync interval, failpoints); the crash-recovery tests use
// it to inject faults.
func WithWALOptions(dir string, opts wal.Options) Option {
	return func(c *openConfig) {
		c.walDir = dir
		c.walOpts = opts
	}
}

// AsReplica marks the engine as a replication follower: its mutations arrive
// as primary-shipped WAL records (IngestReplicated), so a log ending inside
// an unterminated transaction is resumable — the commit marker is still in
// flight — and recovery keeps it buffered for ingest. A primary discards such
// a suffix (no marker can arrive) and may checkpoint right past it.
func AsReplica() Option {
	return func(c *openConfig) { c.replica = true }
}

// RecoveryInfo describes what Open reconstructed from the write-ahead log.
type RecoveryInfo struct {
	// Recovered reports whether the log held anything to restore.
	Recovered bool
	// SnapshotLoaded reports whether a checkpoint snapshot was restored.
	SnapshotLoaded bool
	// ReplayedOps counts logged mutations applied during replay.
	ReplayedOps int
	// DiscardedOps counts mutations dropped because their transaction never
	// committed (rolled back, or cut off by the crash).
	DiscardedOps int
	// SkippedRecords counts duplicate or snapshot-covered records the log
	// layer dropped.
	SkippedRecords int
	// TruncatedBytes counts torn or corrupt trailing bytes discarded.
	TruncatedBytes int64
	// SchemaChanges counts schema-change records replayed.
	SchemaChanges int
}

// Recovered returns what Open reconstructed from the write-ahead log (the
// zero value for a non-durable engine or an empty log directory).
func (db *DB) Recovered() RecoveryInfo { return db.recovery }

// Durable reports whether the engine was opened with a write-ahead log.
func (db *DB) Durable() bool { return db.wal != nil }

// Checkpoint serializes the full current state, makes it the log's recovery
// baseline, and truncates the superseded log (wal.Log.Checkpoint). It holds
// the writer mutex — the WAL's covered LSN must match the serialized state,
// on a follower too, where IngestReplicated appends to the log before it
// applies — but concurrent lock-free readers proceed unimpeded on their
// pinned versions throughout. Checkpointing inside an open transaction is
// refused with ErrOpenTransaction.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return ErrNotDurable
	}
	db.lockWriter()
	defer db.wmu.Unlock()
	if err := db.refuseOpenUnit("checkpoint"); err != nil {
		return err
	}
	// Writers are quiesced, so the current published version IS the
	// committed state the log's LSN refers to.
	payload := encodeCheckpoint(db.current.Load())
	if err := db.wal.Checkpoint(payload); err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	return nil
}

// refuseOpenUnit keeps a checkpoint or a migration from landing inside
// someone else's atomic unit: an open transaction, or a shipped one still
// buffered. In the second case the WAL LSN is already past the buffered op
// records but their effects are not in the state: a snapshot stamped here
// would truncate those records, and after a restart the commit marker would
// apply an empty buffer — the transaction would silently vanish from the
// replica. Called with the writer mutex held.
func (db *DB) refuseOpenUnit(verb string) error {
	if db.InTxn() {
		return fmt.Errorf("%w: cannot %s until it commits or rolls back", ErrOpenTransaction, verb)
	}
	if n := len(db.replPending); n > 0 {
		return fmt.Errorf("%w: a replicated transaction (%d buffered ops) awaits its commit marker; cannot %s until it arrives", ErrOpenTransaction, n, verb)
	}
	return nil
}

// Close flushes and closes the write-ahead log (a no-op for non-durable
// engines). The engine must not be used afterwards.
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Close()
}

// openDurable opens the log, replays whatever it holds into the engine, and
// only then attaches the log so recovery itself is not re-logged.
func (db *DB) openDurable(dir string, opts wal.Options) error {
	if opts.Registry == nil {
		opts.Registry = db.reg
	}
	if opts.Name == "" {
		opts.Name = db.obsName
	}
	l, rec, err := wal.Open(dir, opts)
	if err != nil {
		return fmt.Errorf("engine: opening wal: %w", err)
	}
	if err := db.recover(rec); err != nil {
		l.Close()
		return err
	}
	db.wal = l
	return nil
}

// recover reconstructs the committed pre-crash state from a wal recovery.
func (db *DB) recover(rec *wal.Recovery) error {
	db.recovery = RecoveryInfo{
		Recovered:      rec.Snapshot != nil || len(rec.Records) > 0,
		SkippedRecords: rec.SkippedRecords,
		TruncatedBytes: rec.TruncatedBytes,
	}
	if !db.recovery.Recovered {
		return nil
	}
	if rec.Snapshot != nil {
		// A checkpoint taken after a live migration is framed with its design.
		snap, err := db.adopt(rec.Snapshot)
		if err != nil {
			return err
		}
		db.installState(snap, rec.SnapshotLSN)
		db.recovery.SnapshotLoaded = true
	}
	// applied is the LSN the recovered state stands for: the snapshot's, then
	// that of every record that leaves no transaction buffered behind it.
	applied := rec.SnapshotLSN
	for _, r := range rec.Records {
		if err := db.replayRecord(r, &db.recovery); err != nil {
			return err
		}
		if len(db.replPending) == 0 {
			applied = r.LSN
		}
	}
	// The unterminated suffix never committed. A replica keeps it buffered,
	// its ops durable in the local log, for the commit marker still in flight
	// (Checkpoint refuses until it arrives); on a primary no marker can ever
	// arrive, and keeping the buffer would block checkpoints forever.
	db.recovery.DiscardedOps += len(db.replPending)
	if !db.replica {
		db.replPending = nil
	}
	// A byte-accurate replay is not enough: the recovered state must still
	// satisfy F ∪ I ∪ N (cf. the fragility of FDs and INDs over states with
	// nulls under partial writes — arXiv:2108.02581, arXiv:1703.08198). A
	// checkpoint or schema change the suffix crossed is folded twice: rare.
	cur := db.current.Load()
	if err := db.checkState(cur); err != nil {
		return fmt.Errorf("%w: recovered state fails constraint re-validation: %v", ErrRecovery, err)
	}
	// Markers publish nothing: stamp the state with applied, which the LSNs
	// of the versions to come only go up from.
	db.current.Store(&dbSnapshot{lsn: applied, tables: cur.tables, bind: cur.bind})
	db.m.versionLSN.Set(float64(applied))
	return nil
}

// replayRecord applies one logged record at its LSN, for recovery and a
// follower's ingest alike: the one reader of record kinds. A transaction's
// ops buffer in replPending until its commit marker, other ops publish via
// replayOps, and a schema-change record re-runs its migration, each only
// once decoded and checked. Counts go to info.
func (db *DB) replayRecord(r wal.Record, info *RecoveryInfo) error {
	kind, ops, inTxn, err := decodeWalRecord(r.Payload)
	if err != nil {
		return err
	}
	switch kind {
	case walRecBegin:
		db.replPending = db.replPending[:0]
	case walRecCommit:
		ops, db.replPending = db.replPending, nil
		return db.replayOps(ops, r.LSN, info)
	case walRecRollback:
		info.DiscardedOps += len(db.replPending)
		db.replPending = nil
	case walRecOp:
		if inTxn {
			db.replPending = append(db.replPending, ops...)
			return nil
		}
		return db.replayOps(ops, r.LSN, info)
	case walRecMigrate:
		// A live migration committed here: re-run it through migrate, as the
		// live path did, and adopt the result only if it is the design and
		// state the record logged. The log prefix is the primary's and η is a
		// function, so an honest record matches.
		schemaSDL, spec, digest, err := decodeMigrationRecord(r.Payload)
		if err != nil {
			return err
		}
		snap, err := db.migrate(spec)
		switch {
		case err != nil:
			return fmt.Errorf("%w: schema-change record at LSN %d: %v", ErrRecovery, r.LSN, err)
		case snap.bind.sdl != schemaSDL:
			return fmt.Errorf("%w: schema-change record at LSN %d derives a design other than the one it logged", ErrRecovery, r.LSN)
		case !slices.Equal(digestOf(snap), digest):
			return fmt.Errorf("%w: schema-change record at LSN %d derives a state that does not match its digest", ErrRecovery, r.LSN)
		}
		db.installState(snap, r.LSN)
		info.SchemaChanges++
	default:
		return fmt.Errorf("%w: unknown record kind %d at LSN %d", ErrRecovery, kind, r.LSN)
	}
	return nil
}

// replayOps publishes one committed unit of logged effects — an op record, or
// a transaction at its commit marker — stamped lsn. Each op names a relation
// of the design with a tuple of its arity and replaces what its key holds (by
// nothing, for a delete). The staged view must then hold, at every key the
// unit touched, a tuple within its null constraints and inclusion
// dependencies, and no tuple the unit removed or replaced may leave a
// reference dangling: an honest log always passes, a forged record does not.
// A partition engine leaves inclusion dependencies to the router.
func (db *DB) replayOps(ops []walOp, lsn uint64, info *RecoveryInfo) error {
	tx := db.beginWrite()
	for _, op := range ops {
		t := db.bind.tables[op.rel]
		if t == nil || len(op.tup) != len(t.rs.Attrs) {
			return fmt.Errorf("%w: record at LSN %d holds a %d-value tuple for %s, which the design lacks", ErrRecovery, lsn, len(op.tup), op.rel)
		}
		key := tx.keyOf(t, op.tup)
		if old, ok := tx.pkGet(t, key); ok {
			tx.remove(t, old, key)
		}
		if op.insert {
			tx.apply(t, op.tup, key)
		}
	}
	broken := func(what string) error {
		return fmt.Errorf("%w: record at LSN %d breaks %s", ErrRecovery, lsn, what)
	}
	for _, op := range ops {
		t := db.bind.tables[op.rel]
		key := tx.keyOf(t, op.tup)
		now, stored := tx.pkGet(t, key)
		was, existed := tx.snap.tables[t.ord].pk.Get(key)
		if stored && t.prog.Broken(now) != "" {
			return broken(t.prog.Broken(now))
		}
		for _, ip := range t.out {
			if db.partition || !stored || !now.TotalAt(ip.ProbePos) {
				continue
			}
			fk := now.AppendKeyAt(tx.kb[:0], ip.ProbePos)
			if ip.KeyBased && !tx.pkHas(ip.right, fk) || !ip.KeyBased && !tx.carries(ip.right, ip.rightSlot, fk) {
				return broken(ip.Text)
			}
		}
		for _, ip := range t.in {
			if db.partition || !existed || !was.TotalAt(ip.RightPos) || stored && was.IdenticalAt(now, ip.RightPos) {
				continue
			}
			ref := was.AppendKeyAt(tx.kb[:0], ip.RightPos)
			if (ip.KeyBased || !tx.carries(t, ip.rightSlot, ref)) && tx.references(ip, ref) {
				return broken(ip.Text)
			}
		}
	}
	db.publish(tx, lsn)
	info.ReplayedOps += len(ops)
	return nil
}

// Record kinds of the engine's log encoding. An op record carries every
// physical effect of one operation (or one whole batch); the marker kinds
// delimit transactions.
const (
	walRecOp       byte = 1
	walRecBegin    byte = 2
	walRecCommit   byte = 3
	walRecRollback byte = 4
	// walRecMigrate is one live schema migration: the new schema's SDL, the
	// merge spec and a digest of the state it maps to, which replay
	// re-derives. Kind 5, which carried that state whole, is no longer read.
	walRecMigrate byte = 6
)

// snapMagic opens every checkpoint payload. RMSNAP2, whose state was SDL
// text, is no longer read.
const snapMagic = "RMSNAP3\n"

// encodeCheckpoint renders snap as a checkpoint payload:
//
//	[magic][uvarint len][schema SDL][uvarint sections]
//	sections × ([uvarint len][name][uvarint arity][uvarint rows]
//	rows × (arity × value))
//
// one section per relation of the design, its rows in the relation.Tuple row
// format straight off the primary-key index. The design travels as SDL: after
// a live migration the checkpoint must be self-describing, not assumed equal
// to the Open-time schema. The payload is sized before it is written, so a
// checkpoint allocates it once, whatever the row count.
func encodeCheckpoint(snap *dbSnapshot) []byte {
	size := len(snapMagic) + 2*binary.MaxVarintLen64 + len(snap.bind.sdl)
	for _, t := range snap.bind.ordered {
		size += 3*binary.MaxVarintLen64 + len(t.name)
		snap.tables[t.ord].pk.Range(func(_ string, tup relation.Tuple) bool {
			size += relation.EncodedLen(tup)
			return true
		})
	}
	buf := relation.AppendString(append(make([]byte, 0, size), snapMagic...), snap.bind.sdl)
	buf = binary.AppendUvarint(buf, uint64(len(snap.bind.ordered)))
	for _, t := range snap.bind.ordered {
		pk := snap.tables[t.ord].pk
		buf = appendSection(buf, t.name, len(t.rs.Attrs), pk.Len())
		pk.Range(func(_ string, tup relation.Tuple) bool {
			buf = relation.AppendTuple(buf, tup)
			return true
		})
	}
	return buf
}

// appendSection appends the head of one relation's checkpoint section; its
// rows follow.
func appendSection(buf []byte, name string, arity, rows int) []byte {
	buf = binary.AppendUvarint(relation.AppendString(buf, name), uint64(arity))
	return binary.AppendUvarint(buf, uint64(rows))
}

// adopt decodes a checkpoint payload under the design it is framed with: its
// rows go straight into the index editors of an unpublished version, which
// is then folded, ready to install. It refuses an unknown, repeated or
// missing section, a section whose arity is not its relation's, a second row
// under one primary key and trailing bytes.
func (db *DB) adopt(payload []byte) (*dbSnapshot, error) {
	if len(payload) < len(snapMagic) || string(payload[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: snapshot payload opens with %q, not the %q magic", ErrRecovery, payload[:min(len(payload), len(snapMagic))], snapMagic)
	}
	d := relation.NewDecoder(payload[len(snapMagic):])
	schemaSDL := d.Str()
	if d.Err() != nil {
		return nil, fmt.Errorf("%w: corrupt snapshot frame: %v", ErrRecovery, d.Err())
	}
	s, err := sdl.ParseSchema(schemaSDL)
	if err != nil {
		return nil, fmt.Errorf("%w: parsing framed schema: %v", ErrRecovery, err)
	}
	b := db.bind
	if sdl.PrintSchema(s) != b.sdl {
		if b, err = db.newBinding(s); err != nil {
			return nil, fmt.Errorf("%w: binding framed schema: %v", ErrRecovery, err)
		}
	}
	snap, err := db.build(b, func(tx *writeTx) error {
		// A section takes three bytes at least.
		if n := d.Count(3, "section"); d.Err() == nil && n != uint64(len(b.ordered)) {
			return fmt.Errorf("the payload holds %d sections, the design %d relations", n, len(b.ordered))
		}
		for range b.ordered {
			name, arity := d.Str(), d.Uvarint()
			t := b.tables[name]
			switch {
			case d.Err() != nil:
				return d.Err()
			case t == nil:
				return fmt.Errorf("section %q names no relation of the design", name)
			case tx.staged(t) != nil:
				return fmt.Errorf("section %s is repeated", name)
			case arity != uint64(len(t.rs.Attrs)):
				return fmt.Errorf("section %s holds %d-value rows, the relation has %d attributes", name, arity, len(t.rs.Attrs))
			}
			tx.stage(t) // so that a repeated section is caught, empty or not
			for i, n := uint64(0), d.Count(arity, "row"); i < n; i++ {
				tup := d.Tuple(arity)
				if d.Err() != nil {
					return d.Err()
				}
				if err := tx.load(t, tup); err != nil {
					return err
				}
			}
		}
		if d.Err() == nil && d.Len() > 0 {
			d.Fail("trailing bytes")
		}
		return d.Err()
	})
	if err != nil {
		return nil, fmt.Errorf("%w: framed state refused: %v", ErrRecovery, err)
	}
	return snap, nil
}

// encodeMigrationRecord renders one schema-change record:
//
//	[kind=6][uvarint len][schema SDL]
//	[uvarint len][name][uvarint len][key-relation]
//	[uvarint n] n × ([uvarint len][member])
//	[uvarint m] m × [uvarint]                         the digest
func encodeMigrationRecord(schemaSDL string, spec core.Spec, digest []uint64) []byte {
	buf := relation.AppendString(relation.AppendString(relation.AppendString([]byte{walRecMigrate}, schemaSDL), spec.Name), spec.KeyRelation)
	buf = binary.AppendUvarint(buf, uint64(len(spec.Cluster)))
	for _, member := range spec.Cluster {
		buf = relation.AppendString(buf, member)
	}
	buf = binary.AppendUvarint(buf, uint64(len(digest)))
	for _, v := range digest {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// decodeMigrationRecord decodes a walRecMigrate payload.
func decodeMigrationRecord(b []byte) (schemaSDL string, spec core.Spec, digest []uint64, err error) {
	d := relation.NewDecoder(b[1:])
	schemaSDL = d.Str()
	spec.Name, spec.KeyRelation = d.Str(), d.Str()
	for i, n := uint64(0), d.Count(1, "member"); i < n && d.Err() == nil; i++ {
		spec.Cluster = append(spec.Cluster, d.Str())
	}
	for i, n := uint64(0), d.Count(1, "digest"); i < n && d.Err() == nil; i++ {
		digest = append(digest, d.Uvarint())
	}
	if d.Err() == nil && d.Len() > 0 {
		d.Fail("trailing bytes")
	}
	if d.Err() != nil {
		return "", core.Spec{}, nil, fmt.Errorf("%w: corrupt schema-change record: %v", ErrRecovery, d.Err())
	}
	return schemaSDL, spec, digest, nil
}

// digestOf is, for each relation of snap in name order, its row count and
// the sum of its rows' FNV-1a hashes over their key encoding: the same in any
// row order, process or platform.
func digestOf(snap *dbSnapshot) []uint64 {
	out := make([]uint64, 0, 2*len(snap.bind.ordered))
	h := fnv.New64a()
	var buf []byte
	for _, t := range snap.bind.ordered {
		pk, sum := snap.tables[t.ord].pk, uint64(0)
		pk.Range(func(_ string, tup relation.Tuple) bool {
			buf = tup.AppendKey(buf[:0])
			h.Reset()
			h.Write(buf)
			sum += h.Sum64()
			return true
		})
		out = append(out, uint64(pk.Len()), sum)
	}
	return out
}

// walOp is one decoded physical mutation.
type walOp struct {
	rel    string
	insert bool
	tup    relation.Tuple
}

// logOp logs one operation's effects as a single record (group commit: the
// whole batch costs one write and at most one fsync) and returns the
// record's LSN — the version stamp the publish carries. Non-durable engines
// draw the stamp from a logical sequence counter instead. Called with the
// writer mutex held; a failure means the record is not on disk (the log
// truncates its own torn tail) and the caller must not publish.
func (db *DB) logOp(eff effects, inTxn bool) (uint64, error) {
	if db.wal == nil {
		return db.seq.Add(1), nil
	}
	lsn, err := db.wal.Commit(encodeOpRecord(eff, inTxn))
	if err != nil {
		return 0, fmt.Errorf("engine: logging operation: %w", err)
	}
	return lsn, nil
}

// logMarker logs a transaction marker record, returning its LSN (zero for a
// non-durable engine: markers publish no version, so they draw no stamp).
func (db *DB) logMarker(kind byte) (uint64, error) {
	if db.wal == nil {
		return 0, nil
	}
	lsn, err := db.wal.Commit([]byte{kind})
	if err != nil {
		return 0, fmt.Errorf("engine: logging transaction marker: %w", err)
	}
	return lsn, nil
}

// encodeOpRecord renders one operation's effects:
//
//	[kind=1][inTxn byte][uvarint n] then n × ([dir byte][uvarint len][rel]
//	[uvarint arity] arity × value)
//
// in the relation.Tuple row format.
func encodeOpRecord(eff effects, inTxn bool) []byte {
	buf := make([]byte, 0, 64*len(eff))
	buf = append(buf, walRecOp, boolByte(inTxn))
	buf = binary.AppendUvarint(buf, uint64(len(eff)))
	for _, op := range eff {
		buf = relation.AppendString(append(buf, boolByte(op.insert)), op.table.rs.Name)
		buf = binary.AppendUvarint(buf, uint64(len(op.tuple)))
		buf = relation.AppendTuple(buf, op.tuple)
	}
	return buf
}

// decodeWalRecord parses any record kind; ops and inTxn are only meaningful
// for kind walRecOp.
func decodeWalRecord(b []byte) (kind byte, ops []walOp, inTxn bool, err error) {
	if len(b) == 0 {
		return 0, nil, false, fmt.Errorf("%w: empty log record", ErrRecovery)
	}
	kind = b[0]
	if kind != walRecOp {
		return kind, nil, false, nil
	}
	d := relation.NewDecoder(b[1:])
	inTxn = d.Byte() != 0
	// An op takes three bytes at least.
	n := d.Count(3, "op")
	ops = make([]walOp, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var op walOp
		op.insert = d.Byte() != 0
		op.rel = d.Str()
		op.tup = d.Tuple(d.Uvarint())
		ops = append(ops, op)
	}
	if d.Err() != nil {
		return 0, nil, false, fmt.Errorf("%w: corrupt op record: %v", ErrRecovery, d.Err())
	}
	return kind, ops, inTxn, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
