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

// FuzzReplayRecord ships arbitrary bytes as the next record to a follower
// holding the Fig. 3 state. Whatever the bytes, the follower either refuses
// them — and keeps serving exactly what it served — or applies them; it
// never panics, and the state it publishes satisfies its design's full
// constraint set either way.
func FuzzReplayRecord(f *testing.F) {
	p, err := Open(figures.Fig3(), WithWALOptions(f.TempDir(), wal.Options{}))
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

	course := p.bind.tables["COURSE"]
	schemaSDL, digest := migrationOf(f, p, fig3Spec)
	forged := slices.Clone(digest)
	forged[len(forged)-2]++
	unknown := fig3Spec
	unknown.Cluster = []string{"OFFER", "NOPE"}
	for _, seed := range [][]byte{
		encodeOpRecord(effects{{table: course, tuple: tup("c9"), insert: true}}, false),
		encodeOpRecord(effects{{table: course, tuple: tup("c3"), insert: false}}, true),
		encodeOpRecord(effects{{table: p.bind.tables["OFFER"], tuple: tup("c3", "cs"), insert: true}}, false),
		{walRecBegin}, {walRecCommit}, {walRecRollback},
		encodeMigrationRecord(schemaSDL, fig3Spec, digest),
		encodeMigrationRecord(schemaSDL, fig3Spec, forged),
		encodeMigrationRecord(schemaSDL, unknown, digest),
		encodeMigrationRecord(sdl.PrintSchema(figures.Fig3()), fig3Spec, digest),
		wholeStateRecord(sdl.PrintSchema(figures.Fig3()), sdl.PrintState(figures.Fig3(), figures.Fig3State())),
		// An arity of 2^60 claimed in ten bytes, and a 0-ary COURSE insert.
		binary.AppendUvarint([]byte{walRecOp, 0, 1, 1, 1, 'R'}, 1<<60),
		encodeOpRecord(effects{{table: course, tuple: relation.Tuple{}, insert: true}}, false),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		fl, err := Open(figures.Fig3(), AsReplica(), WithWALOptions(t.TempDir(), wal.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Close()
		if err := fl.IngestSnapshot(snap, lsn); err != nil {
			t.Fatal(err)
		}
		before := seeFollower(fl)
		if _, err := fl.IngestReplicated([]wal.Record{{LSN: lsn + 1, Payload: payload}}); err != nil {
			before.requireSame(t, fl)
			return
		}
		if err := state.Consistent(fl.Schema, fl.Snapshot()); err != nil {
			t.Fatalf("applied record %x left an inconsistent state: %v", payload, err)
		}
	})
}
