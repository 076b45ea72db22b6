package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/state"
	"repro/pkg/relmerge"
)

// sut is one set-up instance of the program under test.
type sut struct {
	p   *plan
	reg *obs.Registry
	// owner holds the engine (embedded) or router (sharded); sess is what
	// the clients talk to — owner itself, or a remote session to the server
	// wrapped around owner's engine.
	owner, sess relmerge.Session
	srv         *server.Server
	served      chan error
	target      target
	dir         string // WAL directory ("" when not durable)
	timing      map[string]float64
}

func seconds(since time.Time) float64 { return time.Since(since).Seconds() }

// buildState materializes the plan's initial rows as a state.DB.
func buildState(p *plan) *state.DB {
	st := state.New(p.load)
	for rel, rows := range p.initial {
		r := st.Relation(rel)
		for _, t := range rows {
			r.Add(t)
		}
	}
	return st
}

func (s *sut) openOwner(sch *relmerge.Schema) (relmerge.Session, error) {
	cfg := relmerge.Config{Schema: sch, Registry: s.reg}
	if s.p.spec.shards > 0 {
		cfg.Backend, cfg.Shards = relmerge.Sharded, s.p.spec.shards
	}
	if s.dir != "" {
		// The fsync policy is "never": the contract keeps every file inside
		// the checkout, whose disk is the hypervisor's, and a device fsync
		// (≈180 µs ± 10 % between rounds here) would be the only thing the
		// workload measures. Appends, segment rolls and checkpoints still
		// issue their writes; the wal.fsync_commit_us probe reports what
		// "always" costs on this disk.
		cfg.DurableDir, cfg.Sync = s.dir, relmerge.SyncNever
	}
	return relmerge.Open(cfg)
}

// store is what both an engine.DB and a shard.Router are to this package:
// the backend a server can be wrapped around, and a source of snapshots.
type store interface {
	server.Backend
	Snapshot() *state.DB
}

// store returns owner's engine or router.
func (s *sut) store() store {
	switch o := s.owner.(type) {
	case *relmerge.EmbeddedSession:
		return o.Engine()
	case *relmerge.ShardedSession:
		return o.Router()
	}
	panic("relbench: owner session is neither embedded nor sharded")
}

// setup runs rule 6 up to, not including, the warm-up: build the state, open
// the backend, load, migrate, listen, dial. tr is nil for an untraced run.
func setup(ctx context.Context, p *plan, dir string, tr *tracer) (*sut, error) {
	s := &sut{p: p, reg: obs.NewRegistry(), timing: map[string]float64{}}
	if p.spec.durable {
		s.dir = dir
	}
	t0 := time.Now()
	st := buildState(p)
	s.timing["state.generate_s"] = seconds(t0)

	var err error
	if s.owner, err = s.openOwner(p.load); err != nil {
		return nil, err
	}
	s.sess = s.owner
	t0 = time.Now()
	if err := relmerge.ReplayState(ctx, s.owner, p.load, st); err != nil {
		s.close()
		return nil, err
	}
	s.timing["engine.load_s"] = seconds(t0)

	if p.merged != nil {
		t0 = time.Now()
		rec := relmerge.Recommendation{Cluster: memberNames(p), KeyRelation: p.merged.KeyRelation, MergedName: p.merged.Name}
		if err := s.owner.ApplyRecommendation(ctx, rec); err != nil {
			s.close()
			return nil, err
		}
		s.timing["engine.migrate_s"] = seconds(t0)
	}

	var be server.Backend = s.store()
	if tr != nil {
		be = tracedBackend{be, tr}
	}
	if p.spec.remote {
		s.srv = server.New(be, server.Config{Registry: s.reg, Name: "relbench"})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.served = make(chan error, 1)
		go func() { s.served <- s.srv.Serve(ln) }()
		s.sess, err = relmerge.Open(relmerge.Config{
			Backend: relmerge.Remote, Addr: ln.Addr().String(), Registry: s.reg,
			RemoteOptions: []relmerge.RemoteOption{relmerge.WithPoolSize(p.clients)},
		})
		if err != nil {
			s.sess = s.owner
			s.close()
			return nil, err
		}
	}
	switch {
	case tr == nil:
		s.target = s.sess
	case p.spec.remote:
		s.target = tracedTarget{s.sess, tr}
	default:
		s.target = tracedTarget{backendTarget{be}, tr}
	}
	return s, nil
}

func memberNames(p *plan) []string {
	names := make([]string, len(p.merged.Members))
	for i, m := range p.merged.Members {
		names[i] = m.Name
	}
	return names
}

// close tears the instance down: client pool, server, engine, WAL files.
func (s *sut) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.sess != s.owner {
		keep(s.sess.Close())
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(s.srv.Shutdown(ctx))
		cancel()
		<-s.served
	}
	if s.owner != nil {
		keep(s.owner.Close())
	}
	if s.dir != "" {
		keep(os.RemoveAll(s.dir))
	}
	return first
}

// client is one closed-loop caller: it runs its stream in order, blocking on
// every reply, and records each op's outcome and latency into slices sized
// during set-up.
type client struct {
	p    *plan
	t    target
	ops  []op
	got  []uint16 // outcome per op, warm-up included
	lat  []int32  // ns per op of the timed segments
	dur  []int64  // wall ns per timed segment
	tr   *tracer
	ckpt func(context.Context) error // client 0 of a durable workload
	// ckptNs and ckptErr account for the Checkpoint calls the client made.
	ckptNs  int64
	ckptErr error
}

func newClients(s *sut, tr *tracer) []*client {
	cs := make([]*client, s.p.clients)
	for i := range cs {
		cs[i] = &client{
			p: s.p, t: s.target, ops: s.p.streams[i], tr: tr,
			got: make([]uint16, s.p.streamLen()),
			lat: make([]int32, segments*s.p.segOps),
			dur: make([]int64, segments),
		}
	}
	if s.p.checkpointEvery() > 0 {
		cs[0].ckpt = s.sess.CheckpointCtx
	}
	return cs
}

func outcome(err error) uint16 {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, relmerge.ErrConstraintViolation):
		return vRejected
	}
	return vFailed
}

func (c *client) exec(ctx context.Context, o *op) uint16 {
	p := c.p
	switch o.kind {
	case opProfile:
		var got uint16
		for j, name := range p.profile {
			_, ok, err := c.t.FetchCtx(ctx, name, p.keys[o.key])
			if err != nil {
				return vFailed
			}
			if ok {
				got |= 1 << j
			}
		}
		return got
	case opFetch:
		_, ok, err := c.t.FetchCtx(ctx, p.rels[o.rel], p.keys[o.key])
		if err != nil {
			return vFailed
		}
		if ok {
			return 1
		}
		return 0
	case opInsert:
		return outcome(c.t.InsertCtx(ctx, p.rels[o.rel], p.tuples[o.arg]))
	case opUpdate:
		return outcome(c.t.UpdateCtx(ctx, p.rels[o.rel], p.keys[o.key], p.tuples[o.arg]))
	case opDelete:
		return outcome(c.t.DeleteCtx(ctx, p.rels[o.rel], p.keys[o.key]))
	case opBatch:
		return outcome(c.t.ApplyBatchCtx(ctx, p.batches[o.arg]))
	}
	return vFailed
}

// segment runs the seg-th piece of the stream; piece 0 is the warm-up and
// leaves no timing behind. A due checkpoint is charged to the op that
// triggered it: the client could not send its next request any sooner.
func (c *client) segment(ctx context.Context, seg int) {
	n := c.p.segOps
	every := c.p.checkpointEvery()
	begin := time.Now()
	last := begin
	for i := seg * n; i < (seg+1)*n; i++ {
		o := &c.ops[i]
		c.got[i] = c.exec(ctx, o)
		if c.ckpt != nil && (i+1)%every == 0 {
			t := time.Now()
			if err := c.ckpt(ctx); err != nil && c.ckptErr == nil {
				c.ckptErr = err
			}
			c.ckptNs += int64(time.Since(t))
		}
		now := time.Now()
		if seg > 0 {
			c.lat[i-n] = int32(min(int64(now.Sub(last)), 1<<31-1))
			if c.tr != nil && c.tr.on.Load() {
				c.tr.add(layerOp, o.kind, int64(last.Sub(c.tr.base)), int64(now.Sub(c.tr.base)))
			}
		}
		last = now
	}
	if seg > 0 {
		c.dur[seg-1] = int64(last.Sub(begin))
	}
}

// runSegments runs pieces [from, to) of every client's stream, the clients
// in parallel and each at its own pace. traced, when set, says whether a
// piece records spans (single-client traced runs only).
func runSegments(ctx context.Context, cs []*client, from, to int, traced func(seg int) bool) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for seg := from; seg < to; seg++ {
				if traced != nil {
					c.tr.on.Store(traced(seg))
				}
				c.segment(ctx, seg)
			}
			if traced != nil {
				c.tr.on.Store(false)
			}
		}(c)
	}
	wg.Wait()
}

// ready runs set-up to its end: setup, the untimed warm-up piece, a forced
// collection. The returned duration is setup_s for this instance.
func ready(ctx context.Context, p *plan, dir string, tr *tracer) (*sut, []*client, float64, error) {
	t0 := time.Now()
	s, err := setup(ctx, p, dir, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	cs := newClients(s, tr)
	runSegments(ctx, cs, 0, 1, nil)
	runtime.GC()
	return s, cs, seconds(t0), nil
}

// gate is the correctness check that ends every run: the program's verdicts
// and final state must be the model's. It returns one line per disagreement.
func gate(s *sut, cs []*client) (problems []string, rejected int) {
	report := func(format string, a ...any) {
		if len(problems) < 20 {
			problems = append(problems, fmt.Sprintf(format, a...))
		}
	}
	mismatched := 0
	for ci, c := range cs {
		if c.ckptErr != nil {
			report("client %d: checkpoint: %v", ci, c.ckptErr)
		}
		for i, o := range c.ops {
			if c.got[i]&vRejected != 0 {
				rejected++
			}
			if c.got[i] != o.want {
				mismatched++
				report("client %d op %d (%s): outcome %#x, the model says %#x", ci, i, kindNames[o.kind], c.got[i], o.want)
			}
		}
	}
	if mismatched > len(problems) {
		report("… %d outcomes differ in all", mismatched)
	}
	if rejected != s.p.rejected {
		report("%d ops were refused, the streams hold %d that must be", rejected, s.p.rejected)
	}
	snap := s.store().Snapshot()
	if d := s.p.model.digest().diff(stateDigest(snap)); d != "" {
		report("final state: %s", d)
	}
	if err := state.Consistent(s.p.serve, snap); err != nil {
		report("final state violates the served design: %v", err)
	}
	return problems, rejected
}

// recoverGate closes a durable instance, reopens its directory, and requires
// the recovered state to be the pre-close state. It then checkpoints once
// more to measure what the log keeps on disk per byte of live rows.
func recoverGate(s *sut) (problems []string, recoverS, diskPerUserByte float64) {
	before := stateDigest(s.store().Snapshot())
	if err := s.owner.Close(); err != nil {
		return []string{fmt.Sprintf("closing the durable engine: %v", err)}, 0, 0
	}
	t0 := time.Now()
	reopened, err := s.openOwner(s.p.serve)
	if err != nil {
		s.owner = nil
		return []string{fmt.Sprintf("reopening %s: %v", s.dir, err)}, 0, 0
	}
	recoverS = seconds(t0)
	s.owner, s.sess = reopened, reopened
	if d := before.diff(stateDigest(s.store().Snapshot())); d != "" {
		problems = append(problems, "recovered state differs from the state before Close: "+d)
	}
	if err := s.owner.CheckpointCtx(context.Background()); err != nil {
		problems = append(problems, fmt.Sprintf("checkpoint after recovery: %v", err))
	}
	var disk, user int64
	filepath.Walk(s.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			disk += info.Size()
		}
		return nil
	})
	for _, rows := range s.p.model.rels {
		for _, t := range rows {
			user += int64(len(t.EncodeKey()))
		}
	}
	return problems, recoverS, ratio(float64(disk), float64(user))
}
