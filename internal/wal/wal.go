// Package wal is the engine's durability substrate: a segmented, append-only
// write-ahead log with CRC32-framed records, group-commit buffering, a
// configurable fsync policy, snapshot checkpoints, and crash-recovery replay
// with torn-tail truncation.
//
// The log stores opaque payloads; internal/engine defines the record
// encoding. Each record carries a monotonically increasing log sequence
// number (LSN) inside the checksummed frame, so replay is idempotent against
// duplicated segments: a record whose LSN does not advance past the highest
// LSN already replayed is skipped.
//
// On-disk layout, all inside one directory:
//
//	00000000000000000001.wal    log segments, replayed in index order
//	00000000000000000042.state  snapshot checkpoint, named by the LSN it covers
//	*.tmp                       in-flight checkpoint (ignored and removed)
//
// Frame format (little-endian):
//
//	[4B body length][4B IEEE CRC32 of body][body = 8B LSN + payload]
//
// Failure model: Commit makes a group of records durable as one unit. If a
// write or fsync fails — including an injected failpoint — before the group
// reaches its commit point, the log enters a crashed state: the segment file
// is truncated back to the last fully-committed offset (so the half-written
// group leaves no trace on disk), Commit returns the error, the caller
// reverts its in-memory effects, and every subsequent call fails with
// ErrCrashed. A fault *after* the commit point (segment rotation: the old
// segment's fsync/close or the new segment's creation) cannot be reported as
// failure — the group is already durable and replay will apply it — so that
// Commit still succeeds and only the log's future is crashed. Either way the
// durable log equals the successful-commit prefix exactly — the invariant
// the crash-recovery property tests assert. Close on a crashed log reports
// the crash (wrapped in ErrCrashed) rather than pretending a clean flush.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// SyncPolicy selects when Commit calls fsync.
type SyncPolicy int

const (
	// SyncNever flushes records to the operating system but never fsyncs
	// (except on Close and checkpoints). Committed records survive a process
	// crash but not a power failure.
	SyncNever SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.Interval, amortizing the
	// sync cost across commits; at most one interval of committed records is
	// exposed to a power failure.
	SyncInterval
	// SyncAlways fsyncs on every Commit: full durability, maximum cost.
	SyncAlways
)

// String names the policy as accepted by ParseSyncPolicy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("syncpolicy(%d)", int(p))
}

// ParseSyncPolicy parses "always", "interval", or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "never":
		return SyncNever, nil
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or never)", s)
}

// Sentinel errors; match with errors.Is.
var (
	// ErrCrashed reports that a previous write, fsync, or checkpoint failed
	// and the log refuses further work; reopen the directory to recover.
	ErrCrashed = errors.New("wal: log crashed")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("wal: log closed")
	// ErrInjected is the failure injected by a Failpoint (wrapped by the
	// failing call's error; later calls report ErrCrashed).
	ErrInjected = errors.New("wal: injected fault")
	// ErrGap reports an LSN discontinuity: committed records are missing
	// from the log (a deleted middle segment, or a shipped stream skipping
	// ahead). Recovery and replication ingest both refuse to proceed past a
	// gap — replaying around one would silently lose committed records.
	ErrGap = errors.New("wal: missing committed records (LSN gap)")
	// ErrSnapshotCorrupt reports a checkpoint snapshot whose integrity
	// footer failed verification. Recovery falls back to the next-older
	// snapshot when the surviving segments still cover the difference, and
	// refuses otherwise.
	ErrSnapshotCorrupt = errors.New("wal: snapshot corrupt")
	// ErrCompacted reports a ReadCommitted position older than the newest
	// checkpoint: the records were deleted by compaction, so a replication
	// follower must bootstrap from the snapshot instead.
	ErrCompacted = errors.New("wal: records compacted into snapshot")
)

const (
	defaultInterval     = 100 * time.Millisecond
	defaultSegmentBytes = 4 << 20
	frameHeader         = 8 // 4B length + 4B CRC
	maxRecordBytes      = 256 << 20
	segSuffix           = ".wal"
	snapSuffix          = ".state"
	tmpSuffix           = ".tmp"
)

// Options configures Open.
type Options struct {
	// Policy is the fsync policy (default SyncNever, the zero value).
	Policy SyncPolicy
	// Interval is the minimum spacing between fsyncs under SyncInterval
	// (default 100ms).
	Interval time.Duration
	// SegmentBytes is the segment-rotation threshold (default 4 MiB): a
	// Commit that pushes the current segment past it starts a new segment.
	SegmentBytes int64
	// Name labels this log's metric series (wal=<name>); default "wal".
	Name string
	// Registry receives the log's metrics; nil disables instrumentation.
	Registry *obs.Registry
	// Failpoint injects deterministic faults for crash-recovery tests
	// (see WithFailpoint); nil disables injection.
	Failpoint *Failpoint
}

// Log is one open write-ahead log directory. All methods are safe for
// concurrent use; Commit serializes internally, which is what makes a
// multi-payload Commit a group commit.
type Log struct {
	dir string
	opt Options

	mu        sync.Mutex
	f         *os.File // current segment
	segIndex  uint64
	fileSize  int64 // bytes written to the current segment
	committed int64 // fileSize at the last successful Commit
	lsn       uint64
	snapLSN   uint64 // LSN covered by the newest snapshot
	// segLast maps each segment index to an upper bound on the LSNs of the
	// records it holds (exact for segments written by this process; for
	// recovered segments it is the log's LSN after replaying them, which can
	// only over-estimate). ReadCommitted uses it to skip segments that are
	// entirely at or below a fetch position instead of re-parsing the whole
	// retained log on every replication poll. A segment with no entry (the
	// just-opened one, or a file that survived a best-effort deletion) is
	// simply scanned.
	segLast  map[uint64]uint64
	lastSync time.Time
	crashed  error // non-nil once the log refuses further work
	fpArmed  bool  // failpoints fire only after Open's recovery completes
	// frame is the buffer Commit frames a group in, kept for the next group
	// unless it grew past keepFrame.
	frame []byte
	m     *logMetrics
}

// keepFrame is the largest frame buffer Commit keeps for the next group: a
// bulk load's group is framed once, not pinned for the log's lifetime.
const keepFrame = 64 << 10

// Open opens (creating if needed) the log directory, replays whatever it
// holds, and returns the log positioned at a fresh segment plus the Recovery
// the caller must apply before logging anything new.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	if opts.Interval <= 0 {
		opts.Interval = defaultInterval
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.Name == "" {
		opts.Name = "wal"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	l := &Log{dir: dir, opt: opts, segLast: make(map[uint64]uint64), m: newLogMetrics(opts.Registry, opts.Name)}
	rec, maxSeg, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	l.segIndex = maxSeg + 1
	if err := l.openSegment(); err != nil {
		return nil, nil, err
	}
	l.lastSync = time.Now()
	l.fpArmed = true
	return l, rec, nil
}

// Commit appends the payloads as consecutive records and makes the group
// durable according to the fsync policy, all under one internal critical
// section — one write system call and at most one fsync for the whole group.
// It returns the LSN of the last record written. On failure the log is
// crashed (see the package comment) and the caller must treat the group as
// never logged.
func (l *Log) Commit(payloads ...[]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed != nil {
		return 0, l.crashErr()
	}
	buf := l.frame[:0]
	for _, p := range payloads {
		l.lsn++
		buf = appendFrame(buf, l.lsn, p)
		l.m.appends.Inc()
		l.m.appendSize.Observe(float64(frameHeader + 8 + len(p)))
	}
	if cap(buf) <= keepFrame {
		l.frame = buf
	}
	if len(buf) == 0 {
		return l.lsn, nil
	}
	n, err := l.write(l.f, buf)
	l.fileSize += int64(n)
	if err != nil {
		l.crash(err)
		return 0, err
	}
	l.m.appendBytes.Add(int64(n))
	if err := l.maybeSync(false); err != nil {
		l.crash(err)
		return 0, err
	}
	l.committed = l.fileSize
	l.segLast[l.segIndex] = l.lsn
	if l.fileSize >= l.opt.SegmentBytes {
		if err := l.roll(); err != nil {
			// The group is already durable to the policy's guarantee (written,
			// and fsynced under SyncAlways) and l.committed has advanced, so
			// nothing of it can be truncated away and replay WILL apply it.
			// Reporting failure here would make the caller revert effects that
			// recovery later restores, so a rotation fault after the commit
			// point is post-commit: this group succeeds, and the sticky
			// crashed state fails every subsequent call instead.
			l.crash(err)
			return l.lsn, nil
		}
	}
	return l.lsn, nil
}

// Sync forces an fsync of the current segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed != nil {
		return l.crashErr()
	}
	if err := l.maybeSync(true); err != nil {
		l.crash(err)
		return err
	}
	return nil
}

// LSN returns the sequence number of the last record appended.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Close fsyncs and closes the current segment. The log refuses further work
// afterwards (ErrClosed).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed != nil {
		if l.f != nil {
			l.f.Close()
			l.f = nil
		}
		// Keep reporting the crash (ErrCrashed-wrapped, or ErrClosed for a
		// double Close) so callers that use Close as a durability signal
		// cannot mistake a crashed log for a cleanly flushed one.
		return l.crashErr()
	}
	err := l.fsync(l.f)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	l.crashed = ErrClosed
	return err
}

// maybeSync fsyncs the current segment if the policy (or force) calls for it.
// Caller holds l.mu.
func (l *Log) maybeSync(force bool) error {
	sync := force
	switch l.opt.Policy {
	case SyncAlways:
		sync = true
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opt.Interval {
			sync = true
		}
	}
	if !sync {
		return nil
	}
	start := time.Now()
	if err := l.fsync(l.f); err != nil {
		return err
	}
	l.lastSync = time.Now()
	l.m.fsyncs.Inc()
	l.m.fsyncLat.ObserveSince(start)
	return nil
}

// roll closes the current segment (fsyncing it first unless the policy is
// SyncNever) and starts the next one. Caller holds l.mu.
func (l *Log) roll() error {
	if l.opt.Policy != SyncNever {
		if err := l.fsync(l.f); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.segIndex++
	return l.openSegment()
}

// openSegment creates segment l.segIndex and resets the offsets. Caller
// holds l.mu (or is Open, before the log escapes).
func (l *Log) openSegment() error {
	f, err := os.OpenFile(l.segmentPath(l.segIndex), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	l.f = f
	l.fileSize = 0
	l.committed = 0
	l.m.segments.Inc()
	return nil
}

// crash marks the log unusable and truncates the current segment back to the
// last committed offset, so a half-written group leaves no trace. Caller
// holds l.mu.
func (l *Log) crash(err error) {
	l.crashed = err
	if l.f != nil && l.fileSize > l.committed {
		// Best effort: if the truncate itself fails the replay-side CRC and
		// torn-tail handling still discard the partial group.
		if terr := os.Truncate(l.segmentPath(l.segIndex), l.committed); terr == nil {
			l.fileSize = l.committed
		}
	}
}

func (l *Log) crashErr() error {
	if l.crashed == ErrClosed {
		return ErrClosed
	}
	return fmt.Errorf("%w: %v", ErrCrashed, l.crashed)
}

func (l *Log) segmentPath(idx uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%020d%s", idx, segSuffix))
}

func (l *Log) snapshotPath(lsn uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%020d%s", lsn, snapSuffix))
}

// appendFrame appends one framed record to buf. The body is appended first
// and checksummed where it lies: a header built in a local array would
// escape through the CRC call and cost an allocation per record.
func appendFrame(buf []byte, lsn uint64, payload []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(8+len(payload)))
	buf = append(buf, 0, 0, 0, 0) // the CRC, once the body is in place
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+frameHeader:]))
	return buf
}
