package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/sdl"
	"repro/internal/state"
	"repro/internal/wal"
)

// fig3Spec is the Fig-3 auto-applicable merge: the Prop. 5.2 cluster
// {OFFER, TEACH, ASSIST} merged around OFFER with every key copy removed.
var fig3Spec = core.Spec{Cluster: []string{"OFFER", "TEACH", "ASSIST"}, Name: "OFFER+", KeyRelation: "OFFER"}

// fig3Merge derives fig3Spec on Fig. 3: the design and the η a migration by
// it installs.
func fig3Merge(t *testing.T) *core.MergedScheme {
	t.Helper()
	m, err := fig3Spec.Derive(figures.Fig3())
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	return m
}

func TestMigrateSchemaLive(t *testing.T) {
	db := MustOpen(figures.Fig3())
	if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	pre := db.Snapshot()
	preView := db.View()
	preLSN := db.VersionLSN()

	m := fig3Merge(t)
	if err := db.MigrateSchema(fig3Spec); err != nil {
		t.Fatalf("MigrateSchema: %v", err)
	}

	// The installed state is exactly η(pre-state).
	want := m.MapState(pre)
	if got := db.Snapshot(); !got.Equal(want) {
		t.Fatalf("post-migration state differs from η(pre):\ngot:\n%s\nwant:\n%s", got, want)
	}
	if db.VersionLSN() <= preLSN {
		t.Fatalf("migration published LSN %d, want > %d", db.VersionLSN(), preLSN)
	}
	// The new design serves reads and FK-chasing fetches.
	if _, ok, _ := db.GetByKeyCtx(context.Background(), "OFFER+", tup("c1")); !ok {
		t.Fatal("merged relation does not answer on the new design")
	}
	if _, ok, _ := db.GetByKeyCtx(context.Background(), "TEACH", tup("c1")); ok {
		t.Fatal("pre-merge relation still answers on the current design")
	}
	if _, _, err := db.FetchWithReferences("OFFER+", tup("c1")); err != nil {
		t.Fatalf("fetch on merged relation: %v", err)
	}
	// Old relation names are gone from the current design…
	if _, _, err := db.FetchWithReferences("OFFER", tup("c1")); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("pre-merge relation still resolves: %v", err)
	}
	// …but the view pinned BEFORE the migration still answers on the old
	// design: names, dependency hops, and contents.
	if _, ok := preView.GetByKey("OFFER", tup("c1")); !ok {
		t.Fatal("pinned pre-migration view lost the old design")
	}
	if _, related, err := preView.FetchWithReferences("TEACH", tup("c1")); err != nil || len(related) != 2 {
		t.Fatalf("pinned view fetch = (%v, %d related), want 2 dependency hops", err, len(related))
	}
	// Writes work on the new design, with constraints enforced against it.
	if err := db.InsertCtx(context.Background(), "OFFER+", tup("c3", "math", "s1", nil)); err != nil {
		t.Fatalf("insert into merged relation: %v", err)
	}
	if err := db.InsertCtx(context.Background(), "OFFER+", tup("c9", "math", nil, nil)); err == nil {
		t.Fatal("insert referencing unknown COURSE c9 must violate the rewritten IND")
	}
	if err := state.Consistent(db.Schema, db.Snapshot()); err != nil {
		t.Fatalf("post-migration state inconsistent: %v", err)
	}
}

func TestMigrateSchemaRefusals(t *testing.T) {
	db := MustOpen(figures.Fig3())
	if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	pre := db.Snapshot()

	// Open transaction: refused with the typed sentinel.
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := db.MigrateSchema(fig3Spec); !errors.Is(err, ErrOpenTransaction) {
		t.Fatalf("migrate inside txn = %v, want ErrOpenTransaction", err)
	}
	if err := db.Rollback(); err != nil {
		t.Fatal(err)
	}

	// A spec that does not resolve on the current design — an unknown
	// member, a key-relation outside the cluster, a name already taken — is
	// refused BEFORE the commit point: nothing installed, nothing logged.
	for _, spec := range []core.Spec{
		{Cluster: []string{"OFFER", "NOPE"}, Name: "X"},
		{Cluster: fig3Spec.Cluster, Name: "X", KeyRelation: "COURSE"},
		{Cluster: fig3Spec.Cluster, Name: "COURSE"},
	} {
		if err := db.MigrateSchema(spec); err == nil {
			t.Fatalf("migrate by unresolvable spec %+v must fail", spec)
		}
	}
	if got := db.Snapshot(); !got.Equal(pre) {
		t.Fatalf("failed migration changed state:\n%s", got)
	}
	if _, ok, _ := db.GetByKeyCtx(context.Background(), "OFFER", tup("c1")); !ok {
		t.Fatal("failed migration changed the design")
	}
}

// TestMigrateCrashMatrix is the live-migration crash-injection matrix: the
// process dies before, during, and after the schema-change WAL record, and
// recovery must land on EXACTLY the pre-merge or post-merge design — full
// state equality plus constraint re-validation — never a mix.
func TestMigrateCrashMatrix(t *testing.T) {
	m := fig3Merge(t)
	mergedSDL := sdl.PrintSchema(m.Schema)
	fig3SDL := sdl.PrintSchema(figures.Fig3())

	// seed builds a durable pre-merge engine in dir and returns its state.
	seed := func(t *testing.T, dir string) *state.DB {
		db := openDurable(t, dir, wal.Options{Policy: wal.SyncAlways})
		if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
			t.Fatal(err)
		}
		pre := db.Snapshot()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return pre
	}

	// The pre-merge cases: the injected fault fires on the schema record —
	// the FIRST write/fsync after the reopen — so the record never becomes
	// durable and the migration reports failure.
	for _, tc := range []struct {
		name string
		fp   *wal.Failpoint
	}{
		{"fail-before-record-write", &wal.Failpoint{FailWrite: 1}},
		{"torn-mid-record", &wal.Failpoint{TornWrite: 1}},
		{"fail-record-fsync", &wal.Failpoint{FailSync: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			pre := seed(t, dir)
			db := openDurable(t, dir, wal.WithFailpoint(wal.SyncAlways, tc.fp))
			if err := db.MigrateSchema(fig3Spec); err == nil {
				t.Fatal("migration must fail when its WAL record cannot commit")
			}
			// The live engine stayed on the old design.
			if _, ok, _ := db.GetByKeyCtx(context.Background(), "OFFER", tup("c1")); !ok {
				t.Fatal("failed migration left the live engine off the old design")
			}
			// Crash (drop without Close) and recover: exactly pre-merge.
			db2 := openDurable(t, dir, wal.Options{Policy: wal.SyncAlways})
			defer db2.Close()
			if got := sdl.PrintSchema(db2.Schema); got != fig3SDL {
				t.Fatalf("recovered schema is not the pre-merge design:\n%s", got)
			}
			if got := db2.Snapshot(); !got.Equal(pre) {
				t.Fatalf("recovered state is not exactly pre-merge:\ngot:\n%s\nwant:\n%s", got, pre)
			}
			if err := state.Consistent(db2.Schema, db2.Snapshot()); err != nil {
				t.Fatalf("recovered pre-merge state fails re-validation: %v", err)
			}
			if n := db2.Recovered().SchemaChanges; n != 0 {
				t.Fatalf("SchemaChanges = %d, want 0", n)
			}
		})
	}

	// Post-merge: the record is durable, then the process dies — with and
	// without post-migration traffic to replay on the new design.
	for _, tailOps := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable-record-tailops-%v", tailOps), func(t *testing.T) {
			dir := t.TempDir()
			pre := seed(t, dir)
			db := openDurable(t, dir, wal.Options{Policy: wal.SyncAlways})
			if err := db.MigrateSchema(fig3Spec); err != nil {
				t.Fatalf("MigrateSchema: %v", err)
			}
			if tailOps {
				if err := db.InsertCtx(context.Background(), "OFFER+", tup("c3", "math", "s1", nil)); err != nil {
					t.Fatalf("post-migration insert: %v", err)
				}
				if err := db.DeleteCtx(context.Background(), "OFFER+", tup("c2")); err != nil {
					t.Fatalf("post-migration delete: %v", err)
				}
			}
			want := db.Snapshot()
			// Crash: no Close.
			db2 := openDurable(t, dir, wal.Options{Policy: wal.SyncAlways})
			defer db2.Close()
			if got := sdl.PrintSchema(db2.Schema); got != mergedSDL {
				t.Fatalf("recovered schema is not the post-merge design:\n%s", got)
			}
			if got := db2.Snapshot(); !got.Equal(want) {
				t.Fatalf("recovered state is not exactly post-merge:\ngot:\n%s\nwant:\n%s", got, want)
			}
			if err := state.Consistent(db2.Schema, db2.Snapshot()); err != nil {
				t.Fatalf("recovered post-merge state fails re-validation: %v", err)
			}
			if n := db2.Recovered().SchemaChanges; n != 1 {
				t.Fatalf("SchemaChanges = %d, want 1", n)
			}
			if !got3(t, db2, pre) {
				t.Fatal("sanity: post-merge recovery must differ from pre-merge state")
			}
			// A post-recovery checkpoint frames the merged schema, so the
			// NEXT generation recovers without replaying the schema record.
			if err := db2.Checkpoint(); err != nil {
				t.Fatalf("post-migration checkpoint: %v", err)
			}
			db3 := openDurable(t, dir, wal.Options{Policy: wal.SyncAlways})
			defer db3.Close()
			if got := sdl.PrintSchema(db3.Schema); got != mergedSDL {
				t.Fatal("framed checkpoint did not carry the merged schema")
			}
			if got := db3.Snapshot(); !got.Equal(want) {
				t.Fatal("third-generation recovery differs")
			}
		})
	}
}

// got3 reports whether the recovered state differs from pre (guards against
// a vacuously passing matrix).
func got3(t *testing.T, db *DB, pre *state.DB) bool {
	t.Helper()
	return !db.Snapshot().Equal(pre)
}

// TestMigrateReaderUnderMigration hammers the lock-free read path from many
// goroutines while the schema migrates under them. Every pinned view must
// answer one design completely — old names with old hops, or new names with
// new hops — and never a mix or a spurious error.
func TestMigrateReaderUnderMigration(t *testing.T) {
	db := MustOpen(figures.Fig3())
	if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}

	var (
		done     atomic.Bool
		sawOld   atomic.Int64
		sawNew   atomic.Int64
		failures atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	report := func(format string, args ...any) {
		failures.Add(1)
		firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				v := db.View()
				tupOld, related, err := v.FetchWithReferences("OFFER", tup("c1"))
				switch {
				case err == nil:
					sawOld.Add(1)
					if tupOld == nil || len(related) != 2 {
						report("old-design fetch incomplete: %v related", len(related))
					}
					// The SAME view must still resolve every old name.
					if _, ok := v.GetByKey("TEACH", tup("c1")); !ok {
						report("old-design view lost TEACH")
					}
				case errors.Is(err, ErrUnknownRelation):
					sawNew.Add(1)
					// The SAME view must fully answer the new design.
					mt, mrel, merr := v.FetchWithReferences("OFFER+", tup("c1"))
					if merr != nil || mt == nil {
						report("new-design view cannot fetch OFFER+: %v", merr)
					}
					if len(mrel) == 0 {
						report("new-design fetch resolved no dependency hops")
					}
					if _, ok := v.GetByKey("TEACH", tup("c1")); ok {
						report("new-design view still resolves TEACH: mixed design")
					}
				default:
					report("unexpected fetch error: %v", err)
				}
			}
		}()
	}
	if err := db.MigrateSchema(fig3Spec); err != nil {
		t.Fatalf("MigrateSchema under readers: %v", err)
	}
	// Let readers observe the new design before stopping.
	for sawNew.Load() == 0 && failures.Load() == 0 {
	}
	done.Store(true)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d reader failures, first: %v", failures.Load(), firstErr.Load())
	}
	if sawNew.Load() == 0 {
		t.Fatal("no reader observed the post-migration design")
	}
}

// TestMigrateShipsToFollower: the primary's schema-change record replicates
// like any other record, landing the follower on the merged design with the
// mapped state at the same LSN.
func TestMigrateShipsToFollower(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := openDurable(t, pdir, wal.Options{Policy: wal.SyncAlways})
	defer p.Close()
	f := openReplica(t, fdir)
	defer f.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	shipAll(t, p, f)

	m := fig3Merge(t)
	if err := p.MigrateSchema(fig3Spec); err != nil {
		t.Fatalf("MigrateSchema on primary: %v", err)
	}
	if err := p.InsertCtx(context.Background(), "OFFER+", tup("c3", "cs", "s2", nil)); err != nil {
		t.Fatal(err)
	}
	shipAll(t, p, f)

	if got, want := sdl.PrintSchema(f.Schema), sdl.PrintSchema(m.Schema); got != want {
		t.Fatalf("follower schema did not follow the migration:\n%s", got)
	}
	if got := f.Snapshot(); !got.Equal(p.Snapshot()) {
		t.Fatalf("follower state diverged:\ngot:\n%s\nwant:\n%s", got, p.Snapshot())
	}
	if f.VersionLSN() != p.VersionLSN() {
		t.Fatalf("follower LSN %d != primary %d", f.VersionLSN(), p.VersionLSN())
	}
	// Follower reads serve the merged design.
	if _, ok, _ := f.GetByKeyCtx(context.Background(), "OFFER+", tup("c3")); !ok {
		t.Fatal("follower does not answer on the merged design")
	}
	// And a follower restart recovers onto it from its own log.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2 := openReplica(t, fdir)
	defer f2.Close()
	if got, want := sdl.PrintSchema(f2.Schema), sdl.PrintSchema(m.Schema); got != want {
		t.Fatal("restarted follower lost the migrated design")
	}
	if got := f2.Snapshot(); !got.Equal(p.Snapshot()) {
		t.Fatal("restarted follower state diverged")
	}
}

// TestCoAccessCounters: the fetch path feeds the per-IND-edge co-access
// counters — both the dependency-hop signal (FetchWithReferences resolving a
// related tuple) and the A-then-B pair signal — and a migration resets them
// with the new binding.
func TestCoAccessCounters(t *testing.T) {
	db := MustOpen(figures.Fig3())
	if err := db.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	hits := func(left, right string) int64 {
		for _, e := range db.CoAccessStats() {
			if e.Left == left && e.Right == right {
				return e.Hits
			}
		}
		t.Fatalf("no co-access edge %s->%s", left, right)
		return 0
	}
	// Dependency hops: TEACH c1 resolves OFFER c1 and FACULTY s1.
	for i := 0; i < 5; i++ {
		if _, _, err := db.FetchWithReferences("TEACH", tup("c1")); err != nil {
			t.Fatal(err)
		}
	}
	if h := hits("TEACH", "OFFER"); h < 5 {
		t.Fatalf("TEACH->OFFER hits = %d, want >= 5 hop bumps", h)
	}
	if h := hits("TEACH", "FACULTY"); h < 5 {
		t.Fatalf("TEACH->FACULTY hits = %d, want >= 5 hop bumps", h)
	}
	// Pair signal: GetByKey STUDENT then PERSON (an IND edge) bumps the edge
	// even without FetchWithReferences.
	before := hits("STUDENT", "PERSON")
	db.GetByKeyCtx(context.Background(), "STUDENT", tup("s3"))
	db.GetByKeyCtx(context.Background(), "PERSON", tup("s3"))
	if h := hits("STUDENT", "PERSON"); h <= before {
		t.Fatalf("STUDENT->PERSON hits = %d, want a pair bump over %d", h, before)
	}
	// Unrelated consecutive fetches (no IND between COURSE and DEPARTMENT)
	// bump nothing.
	db.GetByKeyCtx(context.Background(), "COURSE", tup("c1"))
	db.GetByKeyCtx(context.Background(), "DEPARTMENT", tup("math"))
	for _, e := range db.CoAccessStats() {
		if e.Left == "COURSE" && e.Right == "DEPARTMENT" {
			t.Fatal("co-access edge exists for unrelated pair")
		}
	}
	// Hottest-first ordering.
	stats := db.CoAccessStats()
	for i := 1; i < len(stats); i++ {
		if stats[i].Hits > stats[i-1].Hits {
			t.Fatal("CoAccessStats not sorted hottest-first")
		}
	}
	// Migration installs a fresh binding: counters restart at zero.
	if err := db.MigrateSchema(fig3Spec); err != nil {
		t.Fatal(err)
	}
	for _, e := range db.CoAccessStats() {
		if e.Hits != 0 {
			t.Fatalf("post-migration counter %s->%s = %d, want 0", e.Left, e.Right, e.Hits)
		}
	}
}
