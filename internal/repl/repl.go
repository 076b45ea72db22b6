// Package repl implements WAL-shipping replication: a Follower tails a
// primary relmerged server's committed log over the v2 replication opcodes
// (repl_subscribe / repl_fetch / repl_heartbeat), ingests the shipped records
// into its own durable engine (internal/engine.IngestReplicated — the local
// log's gap/duplicate validation makes a holed stream unservable rather than
// silently wrong), and serves lock-free read-only sessions pinned at its
// applied-LSN horizon. After primary death the follower can be promoted: the
// poll loop stops and the engine starts accepting writes, continuing the
// primary's LSN sequence from exactly the acked prefix its log holds.
package repl

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/wal"
)

// Metric names of the repl package, labeled repl=<name>.
const (
	metricLagRecords   = "repl.lag_records"
	metricLagSeconds   = "repl.lag_seconds"
	metricShippedBytes = "repl.shipped_bytes"
	metricFetches      = "repl.fetches"
	metricFetchErrors  = "repl.fetch_errors"
)

// Options tunes a Follower.
type Options struct {
	// PollInterval is the fetch cadence when caught up (default 25ms). While
	// behind, the follower fetches continuously without sleeping.
	PollInterval time.Duration
	// MaxRecords caps one fetch chunk (default 1024), bounding frame sizes.
	MaxRecords int
	// Client configures the connection pool to the primary.
	Client server.ClientOptions
	// Registry receives the lag/throughput metrics (nil: none recorded).
	Registry *obs.Registry
	// Name labels this follower's metric series (default "follower").
	Name string
}

func (o Options) withDefaults() Options {
	if o.PollInterval <= 0 {
		o.PollInterval = 25 * time.Millisecond
	}
	if o.MaxRecords <= 0 {
		o.MaxRecords = 1024
	}
	if o.Name == "" {
		o.Name = "follower"
	}
	return o
}

type replMetrics struct {
	lagRecords   *obs.Gauge
	lagSeconds   *obs.Gauge
	shippedBytes *obs.Counter
	fetches      *obs.Counter
	fetchErrors  *obs.Counter
}

func newReplMetrics(r *obs.Registry, name string) *replMetrics {
	lbl := obs.L("repl", name)
	return &replMetrics{
		lagRecords:   r.Gauge(metricLagRecords, lbl),
		lagSeconds:   r.Gauge(metricLagSeconds, lbl),
		shippedBytes: r.Counter(metricShippedBytes, lbl),
		fetches:      r.Counter(metricFetches, lbl),
		fetchErrors:  r.Counter(metricFetchErrors, lbl),
	}
}

// Info is a point-in-time view of a follower's replication state.
type Info struct {
	// PrimaryAddr is the primary server this follower ships from.
	PrimaryAddr string
	// AppliedLSN is the follower's durable (and served) log position.
	AppliedLSN uint64
	// CommitLSN is the primary's commit horizon at the last successful
	// exchange; AppliedLSN trails it by the shipping lag.
	CommitLSN uint64
	// LagRecords is max(CommitLSN-AppliedLSN, 0) at the last exchange.
	LagRecords uint64
	// LagSeconds is how long the follower has been behind the horizon
	// (zero when caught up).
	LagSeconds float64
	// LastContact is when the primary last answered; the zero value means
	// never.
	LastContact time.Time
	// Promoted reports whether Promote was called: the follower stopped
	// shipping and accepts writes.
	Promoted bool
	// Err is the sticky ingest failure that broke replication ("" = healthy).
	// A broken follower refuses reads: serving a known-holed state would be
	// silent data loss at one remove.
	Err string
}

// Follower tails one primary and applies its log to a local durable engine.
type Follower struct {
	db   *engine.DB
	cl   *server.Client
	opt  Options
	addr string
	m    *replMetrics

	mu           sync.Mutex
	horizon      uint64
	lastContact  time.Time
	behindSince  time.Time // zero when caught up
	broken       error     // sticky: gap/corrupt ingest; reads refuse
	promoted     bool
	lastFetchErr error // transient: primary unreachable; reads keep serving

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// Open connects db (which must be durable: the local log IS the replica
// state) to the primary at addr, performs the initial subscribe — adopting a
// bootstrap snapshot when the follower's position was compacted away — and
// starts the shipping loop. The follower serves reads from db the moment
// Open returns.
func Open(addr string, db *engine.DB, opt Options) (*Follower, error) {
	if !db.Durable() {
		return nil, fmt.Errorf("repl: follower engine must be durable (%w)", engine.ErrNotDurable)
	}
	opt = opt.withDefaults()
	cl, err := server.Dial(addr, opt.Client)
	if err != nil {
		return nil, fmt.Errorf("repl: dialing primary %s: %w", addr, err)
	}
	f := &Follower{
		db:   db,
		cl:   cl,
		opt:  opt,
		addr: addr,
		m:    newReplMetrics(opt.Registry, opt.Name),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	// Initial subscribe: validate the resume position and apply the first
	// chunk synchronously, so a fresh follower has bootstrapped (or a
	// restarted one resumed) before it starts serving.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := cl.ReplSubscribeCtx(ctx, db.DurableLSN(), opt.MaxRecords)
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("repl: subscribing to %s: %w", addr, err)
	}
	if err := f.ingest(rep); err != nil {
		cl.Close()
		return nil, fmt.Errorf("repl: initial ingest: %w", err)
	}
	go f.run()
	return f, nil
}

// DB returns the follower's engine (serve reads through it).
func (f *Follower) DB() *engine.DB { return f.db }

// ingest applies one fetched chunk: a snapshot bootstrap when present,
// shipped records otherwise. Called from Open and the poll loop only.
func (f *Follower) ingest(rep *server.WireRepl) error {
	f.mu.Lock()
	f.horizon = rep.CommitLSN
	f.lastContact = time.Now()
	f.mu.Unlock()
	if rep.Snapshot != nil {
		if err := f.db.IngestSnapshot(rep.Snapshot, rep.SnapshotLSN); err != nil {
			return err
		}
		f.m.shippedBytes.Add(int64(len(rep.Snapshot)))
	}
	if len(rep.Records) > 0 {
		if _, err := f.db.IngestReplicated(rep.Records); err != nil {
			return err
		}
		var bytes int64
		for _, r := range rep.Records {
			bytes += int64(len(r.Payload))
		}
		f.m.shippedBytes.Add(bytes)
	}
	f.trackLag()
	return nil
}

// trackLag updates the lag gauges from the current applied position and the
// last reported horizon.
func (f *Follower) trackLag() {
	applied := f.db.DurableLSN()
	f.mu.Lock()
	defer f.mu.Unlock()
	if applied >= f.horizon {
		f.behindSince = time.Time{}
		f.m.lagRecords.Set(0)
		f.m.lagSeconds.Set(0)
		return
	}
	if f.behindSince.IsZero() {
		f.behindSince = time.Now()
	}
	f.m.lagRecords.Set(float64(f.horizon - applied))
	f.m.lagSeconds.Set(time.Since(f.behindSince).Seconds())
}

// run is the shipping loop: fetch the suffix after the applied position,
// ingest, repeat — continuously while behind, on PollInterval when caught
// up. Transient fetch failures (primary down, overload) keep retrying; an
// ingest failure (gap, corrupt snapshot) is sticky and stops the loop.
func (f *Follower) run() {
	defer close(f.done)
	ticker := time.NewTicker(f.opt.PollInterval)
	defer ticker.Stop()
	for {
		behind := f.pollOnce()
		if f.Err() != nil {
			return
		}
		if behind {
			// Catching up: fetch again immediately.
			select {
			case <-f.stop:
				return
			default:
			}
			continue
		}
		select {
		case <-f.stop:
			return
		case <-ticker.C:
		}
	}
}

// pollOnce runs one fetch+ingest exchange, returning whether the follower is
// still behind the horizon (the loop then skips the poll sleep).
func (f *Follower) pollOnce() bool {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.m.fetches.Inc()
	rep, err := f.cl.ReplFetchCtx(ctx, f.db.DurableLSN(), f.opt.MaxRecords)
	if err != nil {
		f.m.fetchErrors.Inc()
		f.mu.Lock()
		f.lastFetchErr = err
		f.mu.Unlock()
		f.trackLag()
		return false
	}
	f.mu.Lock()
	f.lastFetchErr = nil
	f.mu.Unlock()
	if err := f.ingest(rep); err != nil {
		// Gap, corrupt snapshot, undecodable record: the stream cannot be
		// trusted. Fail sticky — serving reads over a known hole would be
		// silent data loss at one remove.
		f.mu.Lock()
		f.broken = err
		f.mu.Unlock()
		return false
	}
	return f.db.DurableLSN() < rep.CommitLSN
}

// Err returns the sticky ingest failure that broke replication (nil while
// healthy). A broken follower refuses reads.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.broken
}

// Info returns the follower's replication state.
func (f *Follower) Info() Info {
	applied := f.db.DurableLSN()
	f.mu.Lock()
	defer f.mu.Unlock()
	info := Info{
		PrimaryAddr: f.addr,
		AppliedLSN:  applied,
		CommitLSN:   f.horizon,
		LastContact: f.lastContact,
		Promoted:    f.promoted,
	}
	if f.horizon > applied {
		info.LagRecords = f.horizon - applied
		if !f.behindSince.IsZero() {
			info.LagSeconds = time.Since(f.behindSince).Seconds()
		}
	}
	if f.broken != nil {
		info.Err = f.broken.Error()
	}
	return info
}

// Promote stops the shipping loop and opens the engine for writes: the
// follower becomes a primary over exactly the acked prefix its log holds,
// continuing the LSN sequence. Irreversible. Promoting a broken follower is
// refused — its log provably misses committed records.
func (f *Follower) Promote() error {
	if err := f.Err(); err != nil {
		return fmt.Errorf("repl: refusing to promote a broken follower: %w", err)
	}
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	// The loop may have broken between the check and the stop.
	if err := f.Err(); err != nil {
		return fmt.Errorf("repl: refusing to promote a broken follower: %w", err)
	}
	f.mu.Lock()
	f.promoted = true
	f.mu.Unlock()
	f.cl.Close()
	return nil
}

// Promoted reports whether Promote has completed.
func (f *Follower) Promoted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoted
}

// Close stops the shipping loop and disconnects from the primary. The
// engine is left open (its owner closes it).
func (f *Follower) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	return f.cl.Close()
}

// checkServes returns the sticky failure if the follower cannot serve reads.
func (f *Follower) checkServes() error {
	if err := f.Err(); err != nil {
		return fmt.Errorf("%w: replication broken: %v", engine.ErrRecovery, err)
	}
	return nil
}

var errReadOnly = server.ErrReadOnly

// Backend wraps the follower as a server.Backend: reads serve from the local
// engine pinned at the applied horizon, writes fail with server.ErrReadOnly
// until promotion, and the Replicator surface chains through — a follower
// can itself be shipped from (cascading replication) and, once promoted,
// serves as the new primary without a restart.
type Backend struct {
	f *Follower
}

// Backend returns the server.Backend view of f.
func (f *Follower) Backend() *Backend { return &Backend{f: f} }

func (b *Backend) writable() error {
	if b.f.Promoted() {
		return nil
	}
	return errReadOnly
}

func (b *Backend) InsertCtx(ctx context.Context, name string, tup relation.Tuple) error {
	if err := b.writable(); err != nil {
		return err
	}
	return b.f.db.InsertCtx(ctx, name, tup)
}

func (b *Backend) DeleteCtx(ctx context.Context, name string, key relation.Tuple) error {
	if err := b.writable(); err != nil {
		return err
	}
	return b.f.db.DeleteCtx(ctx, name, key)
}

func (b *Backend) UpdateCtx(ctx context.Context, name string, key, tup relation.Tuple) error {
	if err := b.writable(); err != nil {
		return err
	}
	return b.f.db.UpdateCtx(ctx, name, key, tup)
}

func (b *Backend) GetByKeyCtx(ctx context.Context, name string, key relation.Tuple) (relation.Tuple, bool, error) {
	if err := b.f.checkServes(); err != nil {
		return nil, false, err
	}
	return b.f.db.GetByKeyCtx(ctx, name, key)
}

func (b *Backend) InsertBatchCtx(ctx context.Context, name string, tuples []relation.Tuple) error {
	if err := b.writable(); err != nil {
		return err
	}
	return b.f.db.InsertBatchCtx(ctx, name, tuples)
}

func (b *Backend) ApplyBatchCtx(ctx context.Context, ops []engine.BatchOp) error {
	if err := b.writable(); err != nil {
		return err
	}
	return b.f.db.ApplyBatchCtx(ctx, ops)
}

func (b *Backend) Begin() error {
	if err := b.writable(); err != nil {
		return err
	}
	return b.f.db.Begin()
}

func (b *Backend) Commit() error {
	if err := b.writable(); err != nil {
		return err
	}
	return b.f.db.Commit()
}

func (b *Backend) Rollback() error {
	if err := b.writable(); err != nil {
		return err
	}
	return b.f.db.Rollback()
}

func (b *Backend) StatsTotals() engine.StatsSnapshot { return b.f.db.StatsTotals() }

func (b *Backend) Checkpoint() error {
	// Local compaction of the replica's own log; allowed pre-promotion (it
	// does not mutate logical state, and keeps follower restarts fast).
	return b.f.db.Checkpoint()
}

func (b *Backend) Durable() bool { return true }

func (b *Backend) Close() error {
	if err := b.f.Close(); err != nil {
		b.f.db.Close()
		return err
	}
	return b.f.db.Close()
}

// Replicator surface: a follower ships its own log (cascading replication),
// and keeps doing so after promotion.

func (b *Backend) ReplRead(afterLSN uint64, maxRecords int) ([]wal.Record, uint64, error) {
	return b.f.db.ReplRead(afterLSN, maxRecords)
}

func (b *Backend) ReplSnapshot() ([]byte, uint64, error) { return b.f.db.ReplSnapshot() }

func (b *Backend) DurableLSN() uint64 { return b.f.db.DurableLSN() }
