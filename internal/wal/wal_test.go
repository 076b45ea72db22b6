package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/obs"
)

// reopen opens dir with no failpoints and returns the recovery.
func reopen(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	opts.Failpoint = nil
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func payloads(rec *Recovery) []string {
	out := make([]string, len(rec.Records))
	for i, r := range rec.Records {
		out[i] = string(r.Payload)
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCommitAndRecoveryRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %d records", len(rec.Records))
	}
	want := []string{"alpha", "beta", "gamma", "delta"}
	if _, err := l.Commit([]byte(want[0]), []byte(want[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte(want[2])); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte(want[3])); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("after close")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit after Close = %v, want ErrClosed", err)
	}
	l2, rec2 := reopen(t, dir, Options{})
	defer l2.Close()
	if got := payloads(rec2); !equalStrings(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for i, r := range rec2.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("keep-1"), []byte("keep-2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append half a frame to the tail segment.
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := appendFrame(nil, 99, []byte("torn-record"))
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore := fileSize(t, seg)

	l2, rec := reopen(t, dir, Options{})
	defer l2.Close()
	if got := payloads(rec); !equalStrings(got, []string{"keep-1", "keep-2"}) {
		t.Fatalf("recovered %v, want the intact prefix", got)
	}
	if rec.TruncatedBytes != int64(len(torn)/2) {
		t.Fatalf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, len(torn)/2)
	}
	if after := fileSize(t, seg); after != sizeBefore-int64(len(torn)/2) {
		t.Fatalf("torn tail not physically truncated: %d -> %d", sizeBefore, after)
	}
}

func TestRecoveryStopsAtCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("good"), []byte("soon-corrupt"), []byte("unreachable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second record: its CRC check must fail and
	// end the segment there, discarding the third record too.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := frameHeader + 8 + len("good")
	data[firstLen+frameHeader+8] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := reopen(t, dir, Options{})
	defer l2.Close()
	if got := payloads(rec); !equalStrings(got, []string{"good"}) {
		t.Fatalf("recovered %v, want just the record before the corruption", got)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("corrupt tail not accounted as truncated")
	}
}

func TestSegmentRotationAndReplayOrder(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("record-%02d", i)
		want = append(want, p)
		if _, err := l.Commit([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := countSegments(t, dir); n < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", n)
	}
	l2, rec := reopen(t, dir, Options{})
	defer l2.Close()
	if got := payloads(rec); !equalStrings(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

func TestRecoverySkipsDuplicatedSegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"one", "two", "three"}
	for _, p := range want {
		if _, err := l.Commit([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := DuplicateTailSegment(dir); err != nil {
		t.Fatal(err)
	}
	l2, rec := reopen(t, dir, Options{})
	defer l2.Close()
	if got := payloads(rec); !equalStrings(got, want) {
		t.Fatalf("recovered %v after segment duplication, want %v", got, want)
	}
	if rec.SkippedRecords != len(want) {
		t.Fatalf("SkippedRecords = %d, want %d duplicates dropped", rec.SkippedRecords, len(want))
	}
}

func TestCheckpointResetsLogAndRecovery(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, _, err := Open(dir, Options{Policy: SyncAlways, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("pre-1"), []byte("pre-2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint([]byte("SNAPSHOT")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("post-1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := reopen(t, dir, Options{})
	defer l2.Close()
	if string(rec.Snapshot) != "SNAPSHOT" {
		t.Fatalf("recovered snapshot %q", rec.Snapshot)
	}
	if rec.SnapshotLSN != 2 {
		t.Fatalf("SnapshotLSN = %d, want 2", rec.SnapshotLSN)
	}
	if got := payloads(rec); !equalStrings(got, []string{"post-1"}) {
		t.Fatalf("recovered %v, want only the post-checkpoint record", got)
	}
	if reg.Counter(metricWalCheckpoints, obs.L("wal", "wal")).Value() != 1 {
		t.Fatal("checkpoint counter not incremented")
	}
}

// TestCheckpointCrashBeforeRenameIsInvisible proves the atomic temp-file +
// rename protocol: a checkpoint that dies before the rename leaves recovery
// exactly as if it never ran.
func TestCheckpointFailpointRenameCrash(t *testing.T) {
	dir := t.TempDir()
	fp := &Failpoint{FailRename: 1}
	l, _, err := Open(dir, WithFailpoint(SyncAlways, fp))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b"}
	for _, p := range want {
		if _, err := l.Commit([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint([]byte("DOOMED")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Checkpoint = %v, want injected failure", err)
	}
	if _, err := l.Commit([]byte("later")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Commit after crash = %v, want ErrCrashed", err)
	}
	l2, rec := reopen(t, dir, Options{})
	defer l2.Close()
	if rec.Snapshot != nil {
		t.Fatalf("half-finished checkpoint became visible: %q", rec.Snapshot)
	}
	if got := payloads(rec); !equalStrings(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if leftover := globCount(t, dir, "*"+tmpSuffix); leftover != 0 {
		t.Fatalf("%d stale .tmp files survived reopen", leftover)
	}
}

// TestFailpointCrashLeavesCommittedPrefix drives each write/fsync failpoint
// — including faults at the segment-rotation boundary — and asserts the
// durable log equals the successful-commit prefix exactly.
func TestFailpointCrashLeavesCommittedPrefix(t *testing.T) {
	cases := []struct {
		name          string
		opts          func() Options
		wantCommitted int
	}{
		{"fail_write_3", func() Options { return WithFailpoint(SyncAlways, &Failpoint{FailWrite: 3}) }, 2},
		{"torn_write_3", func() Options { return WithFailpoint(SyncAlways, &Failpoint{TornWrite: 3}) }, 2},
		{"fail_sync_2", func() Options { return WithFailpoint(SyncAlways, &Failpoint{FailSync: 2}) }, 1},
		// With SegmentBytes=8 every commit rotates, so under SyncAlways the
		// fsync ordinals alternate group-commit, rotation, group-commit, …
		// fsync 4 is the rotation fsync of the second commit (post-commit
		// fault: that commit must still succeed and survive replay).
		{"rotation_fsync_4", func() Options {
			o := WithFailpoint(SyncAlways, &Failpoint{FailSync: 4})
			o.SegmentBytes = 8
			return o
		}, 2},
		// Under SyncNever no fsync fires during commits, so FailSync can only
		// hit Close's final fsync — all six commits succeed and none may be
		// lost (the bytes are in the OS; this models a process, not power,
		// crash).
		{"close_fsync_1", func() Options {
			return WithFailpoint(SyncNever, &Failpoint{FailSync: 1})
		}, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, tc.opts())
			if err != nil {
				t.Fatal(err)
			}
			var committed []string
			for i := 0; i < 6; i++ {
				p := fmt.Sprintf("payload-%d", i)
				if _, err := l.Commit([]byte(p)); err == nil {
					committed = append(committed, p)
				}
			}
			if len(committed) != tc.wantCommitted {
				t.Fatalf("%d commits succeeded, want %d", len(committed), tc.wantCommitted)
			}
			l.Close()
			l2, rec := reopen(t, dir, Options{})
			defer l2.Close()
			if got := payloads(rec); !equalStrings(got, committed) {
				t.Fatalf("recovered %v, want committed prefix %v", got, committed)
			}
		})
	}
}

// TestRotationFaultIsPostCommit pins the contract for a fault at the
// segment-rotation boundary: the group is already durable when roll runs, so
// Commit must report success (an error here would make the caller revert
// effects that replay then restores — divergence), the log must refuse
// further work, and Close must surface the crash rather than return nil.
func TestRotationFaultIsPostCommit(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes=8 forces a rotation on the first commit; under SyncAlways
	// fsync 1 is the group commit, fsync 2 the rotation.
	opts := Options{Policy: SyncAlways, SegmentBytes: 8, Failpoint: &Failpoint{FailSync: 2}}
	l, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Commit([]byte("durable"))
	if err != nil {
		t.Fatalf("Commit whose rotation failed = %v, want success: the group was already durable", err)
	}
	if lsn != 1 {
		t.Fatalf("Commit LSN = %d, want 1", lsn)
	}
	if _, err := l.Commit([]byte("later")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Commit after rotation fault = %v, want ErrCrashed", err)
	}
	if err := l.Close(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Close of crashed log = %v, want the crash surfaced via ErrCrashed", err)
	}
	l2, rec := reopen(t, dir, Options{})
	defer l2.Close()
	if got := payloads(rec); !equalStrings(got, []string{"durable"}) {
		t.Fatalf("recovered %v, want the acknowledged commit", got)
	}
}

// TestMidLogCorruptionRefusesRecovery flips a byte in a NON-final segment:
// under the crash-only failure model a torn tail can only arise in the last
// segment, so mid-log damage means committed records are missing and Open
// must fail instead of silently replaying the segments after the gap.
func TestMidLogCorruptionRefusesRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Commit([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(segs) < 2 {
		t.Fatalf("need several segments, got %d (%v)", len(segs), err)
	}
	first := segs[0]
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+8] ^= 0xFF // corrupt the first record's payload
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open recovered past mid-log corruption, want an error")
	}
}

// TestWALConcurrentGroupCommit hammers Commit from many goroutines under the
// race detector and checks every successful commit survives recovery.
func TestWALConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncInterval, Interval: 1, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p := fmt.Sprintf("w%d-i%d", w, i)
				if _, err := l.Commit([]byte(p), []byte(p+"-second")); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := reopen(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != workers*perWorker*2 {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), workers*perWorker*2)
	}
	// Group atomicity: each commit's two records must be adjacent.
	for i := 0; i < len(rec.Records); i += 2 {
		a, b := string(rec.Records[i].Payload), string(rec.Records[i+1].Payload)
		if b != a+"-second" {
			t.Fatalf("group torn apart at %d: %q then %q", i, a, b)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, p := range []SyncPolicy{SyncNever, SyncInterval, SyncAlways} {
		got, err := ParseSyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("roundtrip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}

func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return matches[len(matches)-1]
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	return globCount(t, dir, "*"+segSuffix)
}

func globCount(t *testing.T, dir, pattern string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestAllocBudget pins what committing one 256-byte payload allocates under
// SyncNever, as a total over 64 commits into one segment: nothing, since
// Commit frames into the log's kept buffer and checksums the body where it
// lies (3 per commit when it built a fresh frame around a header array).
func TestAllocBudget(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 256)
	commits := testing.AllocsPerRun(4, func() {
		for i := 0; i < 64; i++ {
			if _, err := l.Commit(payload); err != nil {
				t.Fatal(err)
			}
		}
	})
	const budget = 0
	if commits > budget {
		t.Errorf("64 Commits allocate %.0f, budget %d", commits, budget)
	}
}

// TestFrameBufferCap: Commit keeps its frame buffer for the next group only
// up to keepFrame, so a bulk load's record is not pinned for the log's
// lifetime, and a group that fits reuses it.
func TestFrameBufferCap(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Commit(make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	small := cap(l.frame)
	if small == 0 {
		t.Fatal("a small group's frame buffer is not kept")
	}
	if _, err := l.Commit(make([]byte, 4*keepFrame)); err != nil {
		t.Fatal(err)
	}
	if c := cap(l.frame); c > keepFrame {
		t.Errorf("after a %d B record the log keeps a %d B frame buffer, cap %d", 4*keepFrame, c, keepFrame)
	}
	if _, err := l.Commit(make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if c := cap(l.frame); c != small {
		t.Errorf("a small group after the bulk one framed into %d B, not the kept %d B", c, small)
	}
}
