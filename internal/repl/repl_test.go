package repl_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

func tup(vals ...string) relation.Tuple {
	out := make(relation.Tuple, len(vals))
	for i, v := range vals {
		out[i] = relation.NewString(v)
	}
	return out
}

// openEngine opens a durable Fig3 engine rooted at dir.
func openEngine(t *testing.T, dir string) *engine.DB {
	t.Helper()
	db, err := engine.Open(figures.Fig3(), engine.WithWALOptions(dir, wal.Options{Policy: wal.SyncAlways}))
	if err != nil {
		t.Fatalf("open engine: %v", err)
	}
	return db
}

// openReplica is openEngine for follower engines: AsReplica makes a restart
// mid-shipped-transaction resume the buffered suffix.
func openReplica(t *testing.T, dir string) *engine.DB {
	t.Helper()
	db, err := engine.Open(figures.Fig3(), engine.AsReplica(),
		engine.WithWALOptions(dir, wal.Options{Policy: wal.SyncAlways}))
	if err != nil {
		t.Fatalf("open replica engine: %v", err)
	}
	return db
}

// startServer serves backend on a loopback listener and returns its address.
func startServer(t *testing.T, backend server.Backend) (string, *server.Server) {
	t.Helper()
	srv := server.New(backend, server.Config{Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), srv
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitCaughtUp waits until the follower's published version has reached
// horizon. It must not wait on DurableLSN: an ingest appends to the
// follower's log first and publishes second, so the log position leads what
// a read can see for the length of one apply.
func waitCaughtUp(t *testing.T, f *repl.Follower, horizon uint64) {
	t.Helper()
	waitFor(t, "follower catch-up", func() bool {
		if err := f.Err(); err != nil {
			t.Fatalf("follower broke while catching up: %v", err)
		}
		return f.DB().VersionLSN() >= horizon
	})
}

func metricValue(r *obs.Registry, name string) float64 {
	for _, p := range r.Snapshot() {
		if p.Name == name {
			return p.Value
		}
	}
	return -1
}

func fastOpts(reg *obs.Registry) repl.Options {
	return repl.Options{PollInterval: 2 * time.Millisecond, Registry: reg}
}

func TestFollowerCatchesUpServesAndStaysReadOnly(t *testing.T) {
	p := openEngine(t, t.TempDir())
	defer p.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "COURSE", tup("c9")); err != nil {
		t.Fatal(err)
	}
	addr, srv := startServer(t, p)
	defer srv.Close()

	reg := obs.NewRegistry()
	fdb := openReplica(t, t.TempDir())
	defer fdb.Close()
	f, err := repl.Open(addr, fdb, fastOpts(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, p.DurableLSN())
	if got, want := fdb.Snapshot(), p.Snapshot(); !got.Equal(want) {
		t.Fatalf("follower state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Reads serve from the follower; every write path refuses pre-promotion.
	b := f.Backend()
	ctx := context.Background()
	if _, ok, err := b.GetByKeyCtx(ctx, "COURSE", tup("c9")); err != nil || !ok {
		t.Fatalf("follower read: ok=%v err=%v", ok, err)
	}
	if err := b.InsertCtx(ctx, "COURSE", tup("c10")); !errors.Is(err, server.ErrReadOnly) {
		t.Fatalf("follower InsertCtx = %v, want ErrReadOnly", err)
	}
	if err := b.DeleteCtx(ctx, "COURSE", tup("c9")); !errors.Is(err, server.ErrReadOnly) {
		t.Fatalf("follower DeleteCtx = %v, want ErrReadOnly", err)
	}
	if err := b.Begin(); !errors.Is(err, server.ErrReadOnly) {
		t.Fatalf("follower Begin = %v, want ErrReadOnly", err)
	}

	// New primary commits keep flowing.
	if err := p.InsertCtx(context.Background(), "DEPARTMENT", tup("physics")); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, p.DurableLSN())
	if _, ok, _ := b.GetByKeyCtx(ctx, "DEPARTMENT", tup("physics")); !ok {
		t.Fatal("follower missing post-subscribe primary commit")
	}

	info := f.Info()
	if info.PrimaryAddr != addr || info.Promoted || info.Err != "" {
		t.Fatalf("Info = %+v", info)
	}
	if info.LastContact.IsZero() {
		t.Fatal("Info.LastContact never set")
	}
	if info.AppliedLSN != p.DurableLSN() || info.LagRecords != 0 {
		t.Fatalf("Info lag: %+v vs primary LSN %d", info, p.DurableLSN())
	}
	if v := metricValue(reg, "repl.fetches"); v < 1 {
		t.Fatalf("repl.fetches = %v, want >= 1", v)
	}
	if v := metricValue(reg, "repl.lag_records"); v != 0 {
		t.Fatalf("repl.lag_records = %v, want 0 when caught up", v)
	}
	if v := metricValue(reg, "repl.shipped_bytes"); v <= 0 {
		t.Fatalf("repl.shipped_bytes = %v, want > 0", v)
	}
}

// A fresh follower behind the primary's compaction horizon bootstraps from
// the shipped checkpoint over the wire, then tails the log.
func TestFollowerBootstrapsFromSnapshotOverWire(t *testing.T) {
	p := openEngine(t, t.TempDir())
	defer p.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "COURSE", tup("c9")); err != nil {
		t.Fatal(err)
	}
	addr, srv := startServer(t, p)
	defer srv.Close()

	fdb := openReplica(t, t.TempDir())
	defer fdb.Close()
	f, err := repl.Open(addr, fdb, fastOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, p.DurableLSN())
	if got, want := fdb.Snapshot(), p.Snapshot(); !got.Equal(want) {
		t.Fatalf("bootstrapped follower state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if _, ok, _ := fdb.GetByKeyCtx(context.Background(), "COURSE", tup("c9")); !ok {
		t.Fatal("follower missing the post-checkpoint tail record")
	}
}

// Kill the primary, promote the follower: it recovers exactly the acked
// prefix — shipped commits survive, never-shipped ones do not — and starts
// accepting writes that continue the LSN sequence.
func TestFailoverPromoteRecoversAckedPrefix(t *testing.T) {
	p := openEngine(t, t.TempDir())
	defer p.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "COURSE", tup("c-acked")); err != nil {
		t.Fatal(err)
	}
	addr, srv := startServer(t, p)
	defer srv.Close()

	reg := obs.NewRegistry()
	fdb := openReplica(t, t.TempDir())
	defer fdb.Close()
	f, err := repl.Open(addr, fdb, fastOpts(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	acked := p.DurableLSN()
	waitCaughtUp(t, f, acked)
	ackedState := p.Snapshot()

	// Primary dies mid-ship: the server stops answering and two more commits
	// land in its log that will never be shipped.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "COURSE", tup("c-lost1")); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "COURSE", tup("c-lost2")); err != nil {
		t.Fatal(err)
	}

	// Fetch failures are transient: the follower keeps serving reads at its
	// applied horizon while retrying.
	waitFor(t, "a failed fetch", func() bool { return metricValue(reg, "repl.fetch_errors") >= 1 })
	b := f.Backend()
	if _, ok, err := b.GetByKeyCtx(context.Background(), "COURSE", tup("c-acked")); err != nil || !ok {
		t.Fatalf("follower read during primary outage: ok=%v err=%v", ok, err)
	}
	if err := f.Err(); err != nil {
		t.Fatalf("transient fetch failure must not break the follower: %v", err)
	}

	if err := f.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if !f.Promoted() || !f.Info().Promoted {
		t.Fatal("Promoted() false after Promote")
	}
	if got := fdb.DurableLSN(); got != acked {
		t.Fatalf("promoted follower LSN %d, want acked prefix %d", got, acked)
	}
	if got := fdb.Snapshot(); !got.Equal(ackedState) {
		t.Fatalf("promoted follower state differs from acked prefix:\ngot:\n%s\nwant:\n%s", got, ackedState)
	}
	if _, ok, _ := fdb.GetByKeyCtx(context.Background(), "COURSE", tup("c-lost1")); ok {
		t.Fatal("promoted follower holds a commit that was never shipped")
	}

	// The promoted follower is a primary now: writes flow and the LSN
	// sequence continues past the acked prefix.
	if err := b.InsertCtx(context.Background(), "COURSE", tup("c-after")); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if got := fdb.DurableLSN(); got != acked+1 {
		t.Fatalf("post-promotion LSN %d, want %d", got, acked+1)
	}
}

// faultBackend wraps a durable engine and, once armed, corrupts the shipped
// stream: mode "gap" drops the first record of a chunk, mode "reorder" swaps
// the first two. Both leave a follower that must refuse rather than diverge.
// The fault needs two records in one chunk, so an armed backend ships nothing
// (and reports no progress) until two are pending — however the follower's
// polls interleave with the primary's commits, the first chunk it sees after
// arming carries the fault.
type faultBackend struct {
	*engine.DB
	mode  string
	armed atomic.Bool
}

func (g *faultBackend) ReplRead(afterLSN uint64, maxRecords int) ([]wal.Record, uint64, error) {
	recs, horizon, err := g.DB.ReplRead(afterLSN, maxRecords)
	if err != nil || !g.armed.Load() {
		return recs, horizon, err
	}
	if len(recs) < 2 {
		return nil, afterLSN, nil
	}
	switch g.mode {
	case "gap":
		recs = recs[1:]
	case "reorder":
		recs[0], recs[1] = recs[1], recs[0]
	}
	return recs, horizon, err
}

func testStreamFaultBreaksFollower(t *testing.T, mode string) {
	p := openEngine(t, t.TempDir())
	defer p.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	fb := &faultBackend{DB: p, mode: mode}
	addr, srv := startServer(t, fb)
	defer srv.Close()

	fdb := openReplica(t, t.TempDir())
	defer fdb.Close()
	f, err := repl.Open(addr, fdb, fastOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, p.DurableLSN())

	fb.armed.Store(true)
	if err := p.InsertCtx(context.Background(), "COURSE", tup("c-a")); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "COURSE", tup("c-b")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sticky break on "+mode+" stream", func() bool { return f.Err() != nil })
	if !errors.Is(f.Err(), wal.ErrGap) {
		t.Fatalf("follower error = %v, want wal.ErrGap", f.Err())
	}
	if f.Info().Err == "" {
		t.Fatal("Info.Err empty on a broken follower")
	}

	// A broken follower refuses reads — serving a known-holed state would be
	// silent data loss — and refuses promotion.
	if _, _, err := f.Backend().GetByKeyCtx(context.Background(), "COURSE", tup("c1")); !errors.Is(err, engine.ErrRecovery) {
		t.Fatalf("broken follower read = %v, want ErrRecovery", err)
	}
	if err := f.Promote(); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("Promote on broken follower = %v, want refusal", err)
	}
	// The local engine never applied anything past the fault.
	if _, ok, _ := fdb.GetByKeyCtx(context.Background(), "COURSE", tup("c-b")); ok {
		t.Fatal("broken follower applied records past the stream fault")
	}
}

func TestGappedStreamBreaksFollower(t *testing.T)    { testStreamFaultBreaksFollower(t, "gap") }
func TestReorderedStreamBreaksFollower(t *testing.T) { testStreamFaultBreaksFollower(t, "reorder") }

// rewindBackend re-ships an overlapping prefix on every armed fetch:
// duplicate delivery must be skipped, not re-applied.
type rewindBackend struct {
	*engine.DB
	armed atomic.Bool
}

func (g *rewindBackend) ReplRead(afterLSN uint64, maxRecords int) ([]wal.Record, uint64, error) {
	if g.armed.Load() && afterLSN > 1 {
		afterLSN /= 2
	}
	return g.DB.ReplRead(afterLSN, maxRecords)
}

func TestDuplicateDeliveryIsIdempotent(t *testing.T) {
	p := openEngine(t, t.TempDir())
	defer p.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	rb := &rewindBackend{DB: p}
	addr, srv := startServer(t, rb)
	defer srv.Close()

	fdb := openReplica(t, t.TempDir())
	defer fdb.Close()
	f, err := repl.Open(addr, fdb, fastOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, p.DurableLSN())

	rb.armed.Store(true)
	if err := p.InsertCtx(context.Background(), "COURSE", tup("c-dup")); err != nil {
		t.Fatal(err)
	}
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "PERSON", tup("p-dup")); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "STUDENT", tup("p-dup")); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, p.DurableLSN())
	if err := f.Err(); err != nil {
		t.Fatalf("duplicate delivery broke the follower: %v", err)
	}
	if got, want := fdb.Snapshot(), p.Snapshot(); !got.Equal(want) {
		t.Fatalf("follower state differs after duplicated shipping:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// Kill the follower mid-replay: a restarted follower resumes from its durable
// position and converges without resending history it already holds.
func TestFollowerRestartResumes(t *testing.T) {
	p := openEngine(t, t.TempDir())
	defer p.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	addr, srv := startServer(t, p)
	defer srv.Close()

	fdir := t.TempDir()
	fdb := openReplica(t, fdir)
	f, err := repl.Open(addr, fdb, fastOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, p.DurableLSN())

	// Down mid-stream: stop shipping, close the engine, leave the primary
	// committing in the meantime.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fdb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCtx(context.Background(), "COURSE", tup("c-while-down")); err != nil {
		t.Fatal(err)
	}

	fdb2 := openReplica(t, fdir)
	defer fdb2.Close()
	f2, err := repl.Open(addr, fdb2, fastOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitCaughtUp(t, f2, p.DurableLSN())
	if got, want := fdb2.Snapshot(), p.Snapshot(); !got.Equal(want) {
		t.Fatalf("restarted follower state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// A chain: follower B ships from follower A (cascading replication through
// the Backend's Replicator surface), and both converge to the primary.
func TestCascadingReplication(t *testing.T) {
	p := openEngine(t, t.TempDir())
	defer p.Close()
	if err := p.LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	addr, srv := startServer(t, p)
	defer srv.Close()

	adb := openReplica(t, t.TempDir())
	defer adb.Close()
	fa, err := repl.Open(addr, adb, fastOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	addrA, srvA := startServer(t, fa.Backend())
	defer srvA.Close()

	bdb := openReplica(t, t.TempDir())
	defer bdb.Close()
	fb, err := repl.Open(addrA, bdb, fastOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()

	if err := p.InsertCtx(context.Background(), "COURSE", tup("c-chain")); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, fa, p.DurableLSN())
	waitCaughtUp(t, fb, p.DurableLSN())
	if got, want := bdb.Snapshot(), p.Snapshot(); !got.Equal(want) {
		t.Fatalf("second-tier follower state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
