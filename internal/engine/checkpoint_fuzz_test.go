package engine

import (
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/sdl"
	"repro/internal/state"
	"repro/internal/wal"
)

// FuzzCheckpoint ships arbitrary bytes as a checkpoint to a follower holding
// the Fig. 3 state. Whatever the bytes, the follower either refuses them —
// and keeps serving exactly what it served — or adopts a state that
// satisfies its design's full constraint set; it never panics, and no count
// in the payload sizes an allocation the bytes cannot back.
func FuzzCheckpoint(f *testing.F) {
	fig3 := figures.Fig3()
	p, err := Open(fig3, WithWALOptions(f.TempDir(), wal.Options{}))
	if err != nil {
		f.Fatal(err)
	}
	defer p.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		f.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	snap, lsn, err := p.ReplSnapshot()
	if err != nil {
		f.Fatal(err)
	}

	// Clipped, so every payload built on head appends to a copy of its own.
	head := slices.Clip(binary.AppendUvarint(relation.AppendString([]byte(snapMagic), sdl.PrintSchema(fig3)), uint64(len(fig3.Relations))))
	// empty writes an empty section per relation, renaming those in rename.
	empty := func(rename map[int]string) []byte {
		buf := head
		for i, rs := range fig3.Relations {
			name := rs.Name
			if to, ok := rename[i]; ok {
				name = to
			}
			buf = appendSection(buf, name, len(rs.Attrs), 0)
		}
		return buf
	}
	first := fig3.Relations[0]
	dupKey := figures.Fig3State()
	dupKey.Relation("OFFER").Add(tup("c1", "cs"))
	for _, seed := range [][]byte{
		snap,
		snap[:len(snap)-1],
		snap[:len(snap)/2],
		snap[:len(snapMagic)+3],
		empty(nil),
		// 2^60 rows claimed in a few bytes.
		append(appendSection(head, first.Name, len(first.Attrs), 1<<60), 1, 1, 'x'),
		empty(map[int]string{0: "NOPE"}),
		empty(map[int]string{1: first.Name}),
		checkpointOf(fig3, dupKey),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		fl, err := Open(fig3, AsReplica(), WithWALOptions(t.TempDir(), wal.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Close()
		if err := fl.IngestSnapshot(snap, lsn); err != nil {
			t.Fatal(err)
		}
		before := seeFollower(fl)
		if err := fl.IngestSnapshot(payload, lsn+1); err != nil {
			before.requireSame(t, fl)
			return
		}
		if err := state.Consistent(fl.Schema, fl.Snapshot()); err != nil {
			t.Fatalf("adopted checkpoint %x holds an inconsistent state: %v", payload, err)
		}
	})
}
