package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenReadCommitted writes arbitrary bytes as a log segment and, when
// snapshot is not empty, as a checkpoint file covering snapLSN, then opens
// the log and reads its committed suffix back. Whatever the bytes, Open and
// ReadCommitted either fail or return records whose LSNs strictly increase
// past the position read from; neither panics.
func FuzzOpenReadCommitted(f *testing.F) {
	two := appendFrame(appendFrame(nil, 1, []byte("a")), 2, []byte("bc"))
	for _, seed := range []struct {
		segment, snapshot []byte
		snapLSN           uint64
	}{
		{two, nil, 0},
		{two[:len(two)-3], nil, 0},
		{append(append([]byte(nil), two...), two...), nil, 0},
		{appendFrame(nil, 3, []byte("x")), nil, 0},
		{appendFrame(appendFrame(nil, 4, nil), 5, []byte("y")), encodeSnapshot([]byte("state")), 3},
		{two, encodeSnapshot([]byte("state"))[:10], 1},
		{[]byte{0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0}, nil, 0},
	} {
		f.Add(seed.segment, seed.snapshot, seed.snapLSN)
	}
	f.Fuzz(func(t *testing.T, segment, snapshot []byte, snapLSN uint64) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segSuffix)), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(snapshot) > 0 {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%020d%s", snapLSN, snapSuffix)), snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, rec, err := Open(dir, Options{})
		if err != nil {
			return
		}
		defer l.Close()
		requireIncreasing(t, "recovered", rec.SnapshotLSN, rec.Records)
		recs, _, err := l.ReadCommitted(rec.SnapshotLSN, 0)
		if err != nil {
			return
		}
		requireIncreasing(t, "read", rec.SnapshotLSN, recs)
	})
}

// requireIncreasing fails unless every record's LSN exceeds the previous
// one's, the first's exceeding after.
func requireIncreasing(t *testing.T, what string, after uint64, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if r.LSN <= after {
			t.Fatalf("%s record at LSN %d does not advance past %d", what, r.LSN, after)
		}
		after = r.LSN
	}
}
