package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wal"
)

// Config tunes a Server. The zero value picks sensible defaults.
type Config struct {
	// Workers is the size of the request worker pool (default: GOMAXPROCS,
	// at least 4). The pool — not the connection count — bounds engine
	// concurrency.
	Workers int
	// QueueDepth bounds the admission queue (default 64). A request
	// arriving on a full queue is answered immediately with CodeOverloaded
	// instead of waiting: the client learns to back off while the queue
	// stays short enough that accepted requests meet their deadlines.
	QueueDepth int
	// MaxFrame bounds one protocol frame (default DefaultMaxFrame).
	MaxFrame int
	// CoalesceMax bounds how many queued write requests a worker folds into
	// one engine batch — one WAL record, one fsync — per dequeue (default
	// 16; 1 disables coalescing).
	CoalesceMax int
	// Registry receives server metrics (default obs.Default()).
	Registry *obs.Registry
	// Name labels this server's metrics (default "relmerged").
	Name string
	// Logf, when set, receives one line per lifecycle event and failed
	// connection (default: silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 4 {
			c.Workers = 4
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.CoalesceMax <= 0 {
		c.CoalesceMax = 16
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Name == "" {
		c.Name = "relmerged"
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Backend is what the server serves: the engine's operational surface, as
// implemented by a single *engine.DB or by a shard router fronting several.
// The server is indifferent to which — every request dispatches through
// this interface, so `relmerged -shards N` is the same server wrapped
// around a different backend.
type Backend interface {
	InsertCtx(ctx context.Context, name string, tup relation.Tuple) error
	DeleteCtx(ctx context.Context, name string, key relation.Tuple) error
	UpdateCtx(ctx context.Context, name string, key, tup relation.Tuple) error
	GetByKeyCtx(ctx context.Context, name string, key relation.Tuple) (relation.Tuple, bool, error)
	InsertBatchCtx(ctx context.Context, name string, tuples []relation.Tuple) error
	ApplyBatchCtx(ctx context.Context, ops []engine.BatchOp) error
	Begin() error
	Commit() error
	Rollback() error
	// StatsTotals returns the monotonic counters stamped with the current
	// version LSN (aggregated across shards for a router backend).
	StatsTotals() engine.StatsSnapshot
	Checkpoint() error
	Durable() bool
	Close() error
}

// Replicator is the optional primary-side replication surface of a Backend.
// The server type-asserts for it when dispatching repl_* operations: a
// durable *engine.DB implements it; backends that cannot ship a log (shard
// routers, non-durable engines) answer CodeNotRepl instead.
type Replicator interface {
	// ReplRead returns committed records after afterLSN plus the commit
	// horizon; wal.ErrCompacted means the position predates the newest
	// checkpoint and the caller must bootstrap from ReplSnapshot.
	ReplRead(afterLSN uint64, maxRecords int) ([]wal.Record, uint64, error)
	// ReplSnapshot returns the newest checkpoint's payload and covered LSN.
	ReplSnapshot() ([]byte, uint64, error)
	// DurableLSN returns the log's commit horizon.
	DurableLSN() uint64
}

// Server serves engine operations over the relmerged wire protocol.
type Server struct {
	db  Backend
	cfg Config
	m   *serverMetrics

	baseCtx  context.Context
	baseStop context.CancelFunc

	queue chan *task

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*srvConn]struct{}
	draining bool
	closed   bool

	connWG   sync.WaitGroup
	workerWG sync.WaitGroup
	reapOnce sync.Once
	reaped   chan struct{}
}

type srvConn struct {
	s  *Server
	nc net.Conn
	br *bufio.Reader // buffered reads: frame prefix + body without per-field syscalls

	rbuf []byte    // connection-owned frame read buffer, reused across frames
	dec  binReader // the reader's decoder, remembering the last relation name

	wmu sync.Mutex    // serializes response frames
	fe  *frameEncoder // response frame buffer, guarded by wmu

	mu       sync.Mutex
	inflight map[uint64]struct{}
	free     []*task // finished tasks, reused by the next requests
}

// readFrame reads one frame body into the connection's reusable buffer.
func (c *srvConn) readFrame() ([]byte, error) {
	body, err := ReadFrameInto(c.br, c.s.cfg.MaxFrame, c.rbuf)
	if err != nil {
		return nil, err
	}
	c.rbuf = keepReadBuf(body)
	return body, nil
}

// task is one request's trip through the server. A connection recycles its
// tasks, so a steady connection reuses one request, one response and one
// fetch-key buffer; a pipelining connection holds a task per request in
// flight.
type task struct {
	c        *srvConn
	req      Request
	resp     Response
	key      relation.Tuple // fetch-key storage lent to the decoder
	deadline time.Time      // zero: none
	start    time.Time
}

// newTask returns a finished task of this connection, or a new one when all
// of them are in flight.
func (c *srvConn) newTask() *task {
	c.mu.Lock()
	var t *task
	if n := len(c.free); n > 0 {
		t = c.free[n-1]
		c.free = c.free[:n-1]
	}
	c.mu.Unlock()
	if t == nil {
		t = &task{c: c}
	}
	return t
}

// done forgets t's request ID and recycles t. Its request and response are
// cleared so an idle task pins no tuple; the fetch-key storage stays.
func (c *srvConn) done(t *task) {
	id := t.req.ID
	t.req, t.resp = Request{}, Response{}
	c.mu.Lock()
	delete(c.inflight, id)
	c.free = append(c.free, t)
	c.mu.Unlock()
}

// New builds a server around an open backend — an engine, or a shard
// router — and starts its worker pool. The server assumes ownership of the
// backend's lifecycle: a graceful Shutdown checkpoints (when durable) and
// closes it.
func New(db Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		db:       db,
		cfg:      cfg,
		m:        newServerMetrics(cfg.Registry, cfg.Name),
		baseCtx:  ctx,
		baseStop: stop,
		queue:    make(chan *task, cfg.QueueDepth),
		conns:    make(map[*srvConn]struct{}),
		reaped:   make(chan struct{}),
	}
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Serve accepts connections on ln until Shutdown or Close. It returns nil
// after a shutdown, or the first accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.cfg.Logf("relmerged: serving on %s", ln.Addr())
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.draining || s.closed
			s.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		s.connWG.Add(1)
		go s.handleConn(nc)
	}
}

// ListenAndServe listens on addr and serves until shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the serving address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains gracefully: stop accepting, stop reading new requests,
// finish every in-flight request (and write its response), checkpoint a
// durable engine, close the WAL, then close the connections. If ctx expires
// first, in-flight work is cancelled and connections are closed immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	alreadyDraining := s.draining
	s.draining = true
	ln := s.ln
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if alreadyDraining {
		<-s.reaped
		return nil
	}
	s.m.drains.Inc()
	s.cfg.Logf("relmerged: draining (%d connections)", len(conns))
	if ln != nil {
		ln.Close()
	}
	// Unblock readers parked in ReadFrame; they observe draining and exit
	// without treating the deadline as a connection failure.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}
	go s.reap()
	select {
	case <-s.reaped:
	case <-ctx.Done():
		s.baseStop() // cancel in-flight engine contexts
		s.closeConns()
		<-s.reaped
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.closeConns()
	var err error
	if s.db.Durable() {
		if cerr := s.db.Checkpoint(); cerr != nil && !errors.Is(cerr, engine.ErrOpenTransaction) {
			err = cerr
		}
		if cerr := s.db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.baseStop()
	s.cfg.Logf("relmerged: drained")
	return err
}

// Close kills the server abruptly — no drain, no checkpoint, no WAL close —
// simulating a crash. In-flight requests are cancelled and every connection
// is dropped. The engine is left untouched (and its WAL unsynced), so crash
// tests can reopen the directory and measure what recovery reconstructs.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	s.baseStop()
	if ln != nil {
		ln.Close()
	}
	s.closeConns()
	go s.reap()
	<-s.reaped
	return nil
}

// reap waits for readers, closes the queue (no sender remains), and waits
// for workers to finish the remaining tasks.
func (s *Server) reap() {
	s.reapOnce.Do(func() {
		s.connWG.Wait()
		close(s.queue)
		s.workerWG.Wait()
		close(s.reaped)
	})
}

func (s *Server) closeConns() {
	s.mu.Lock()
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.nc.Close()
	}
}

func (s *Server) drainingNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) handleConn(nc net.Conn) {
	defer s.connWG.Done()
	c := &srvConn{
		s:        s,
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 16<<10),
		fe:       newFrameEncoder(),
		inflight: make(map[uint64]struct{}),
	}
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.m.connections.Add(1)
	defer s.m.connections.Add(-1)

	if err := s.handshake(c); err != nil {
		s.noteViolation(c, err)
		s.untrack(c)
		nc.Close()
		return
	}
	for {
		body, err := c.readFrame()
		if err != nil {
			if s.drainingNow() {
				// Leave the connection open: workers still owe it responses;
				// Shutdown closes it after the queue drains.
				return
			}
			if errors.Is(err, ErrProtocol) {
				s.failConn(c, 0, err)
			}
			s.untrack(c)
			nc.Close()
			return
		}
		s.m.bytesRead.Add(int64(4 + len(body)))
		t := c.newTask()
		req := &t.req
		if err := decodeRequest(body, req, &c.dec, t.key); err != nil {
			s.failConn(c, 0, err)
			s.untrack(c)
			nc.Close()
			return
		}
		if req.Op == OpFetch && req.Key != nil {
			t.key = req.Key
		}
		if req.Op == OpHello {
			s.failConn(c, req.ID, fmt.Errorf("%w: repeated hello", ErrProtocol))
			s.untrack(c)
			nc.Close()
			return
		}
		c.mu.Lock()
		if _, dup := c.inflight[req.ID]; dup {
			c.mu.Unlock()
			s.failConn(c, req.ID, fmt.Errorf("%w: duplicate in-flight request id %d", ErrProtocol, req.ID))
			s.untrack(c)
			nc.Close()
			return
		}
		c.inflight[req.ID] = struct{}{}
		c.mu.Unlock()

		s.m.requests.Inc()
		t.start, t.deadline = time.Now(), time.Time{}
		if req.DeadlineMS > 0 {
			t.deadline = t.start.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
		}
		select {
		case s.queue <- t:
			s.m.inflight.Add(1)
		default:
			// Admission control: reject instantly rather than queue past the
			// depth limit — the engine is already saturated.
			s.m.overloaded.Inc()
			c.send(errorResponse(req.ID, ErrOverloaded))
			c.done(t)
		}
	}
}

// handshake runs the hello (hello.go): the client's JSON hello must offer
// version 2 or more, and the server answers 2, in JSON. A failed hello is
// answered in the same shape, best effort, naming the version the server
// speaks; only this connection is affected.
func (s *Server) handshake(c *srvConn) error {
	var h helloRequest
	body, err := c.readFrame()
	if err == nil {
		s.m.bytesRead.Add(int64(4 + len(body)))
		h, err = decodeHello(body)
	}
	if err == nil && h.Version < ProtoVersionBinary {
		err = fmt.Errorf("%w: protocol version %d not supported (server speaks %d)", ErrProtocol, h.Version, ProtoVersionBinary)
	}
	reply := &helloReply{ID: h.ID, OK: err == nil, Version: ProtoVersionBinary}
	if err != nil {
		reply.Code, reply.Error = CodeOf(err), err.Error()
	}
	n, werr := c.fe.writeHello(c.nc, reply)
	s.m.bytesWritten.Add(int64(n))
	if err == nil {
		err = werr
	}
	return err
}

// noteViolation records a failed connection in the metrics and the log.
func (s *Server) noteViolation(c *srvConn, err error) {
	s.m.protocolErrors.Inc()
	s.cfg.Logf("relmerged: %s: %v", c.nc.RemoteAddr(), err)
}

// failConn records a protocol violation, best-effort answers it, and lets
// the caller close the connection. Only this connection is affected.
func (s *Server) failConn(c *srvConn, id uint64, err error) {
	s.noteViolation(c, err)
	c.send(errorResponse(id, err))
}

func (s *Server) untrack(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// send writes one response frame. Write errors are swallowed: the reader
// side notices the dead connection and tears it down.
func (c *srvConn) send(resp *Response) error {
	c.wmu.Lock()
	n, err := c.fe.write(c.nc, resp)
	c.wmu.Unlock()
	c.s.m.bytesWritten.Add(int64(n))
	return err
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	var batch []*task
	for t := range s.queue {
		if writeOp(t.req.Op) && s.cfg.CoalesceMax > 1 {
			batch = append(batch[:0], t)
		drain:
			// Opportunistically fold queued writes into one engine batch:
			// one writer-mutex acquisition, one WAL record, one fsync for the
			// whole group. Reads and txn ops dequeued along the way execute
			// inline (cross-request ordering is only promised to clients
			// that wait for responses, which cannot have two in flight).
			for len(batch) < s.cfg.CoalesceMax {
				select {
				case t2, ok := <-s.queue:
					if !ok {
						break drain
					}
					if writeOp(t2.req.Op) {
						batch = append(batch, t2)
					} else {
						s.execute(t2)
					}
				default:
					break drain
				}
			}
			s.executeWrites(batch)
			clear(batch)
		} else {
			s.execute(t)
		}
	}
}

// finish answers t and recycles it.
func (s *Server) finish(t *task, resp *Response) {
	resp.ID = t.req.ID
	t.c.send(resp)
	s.m.inflight.Add(-1)
	if h := s.m.wireLat[t.req.Op]; h != nil {
		h.ObserveSince(t.start)
	}
	t.c.done(t)
}

// expired reports why t may no longer run: the server was stopped, or its
// deadline passed while it queued.
func (s *Server) expired(t *task) error {
	if err := s.baseCtx.Err(); err != nil {
		return err
	}
	if !t.deadline.IsZero() && !time.Now().Before(t.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// deadlineCtx is the context a write runs under. Writes can queue on the
// backend's writer mutex, and the engine checks the context again once it
// holds the mutex, so a write whose deadline passes while it waits is
// refused instead of committed. Reads never wait on it and run on baseCtx.
func (s *Server) deadlineCtx(deadline time.Time) (context.Context, context.CancelFunc) {
	if deadline.IsZero() {
		return s.baseCtx, func() {}
	}
	return context.WithDeadline(s.baseCtx, deadline)
}

func (s *Server) execute(t *task) {
	if err := s.expired(t); err != nil {
		s.finish(t, errorResponse(t.req.ID, deadlineError(err)))
		return
	}
	s.finish(t, s.dispatch(t))
}

// executeWrites runs a coalesced group of write requests as one engine
// batch, under the earliest deadline among them: a member whose deadline
// passes while the batch waits for the writer mutex must not commit by
// riding along. If the merged batch fails — that refusal, or any member's
// constraint violation, aborts all of it — fall back to executing each
// request individually under its own deadline, which reproduces the exact
// per-request outcomes of an uncoalesced server.
func (s *Server) executeWrites(batch []*task) {
	live := batch[:0]
	for _, t := range batch {
		if err := s.expired(t); err != nil {
			s.finish(t, errorResponse(t.req.ID, deadlineError(err)))
			continue
		}
		live = append(live, t)
	}
	if len(live) == 0 {
		return
	}
	if len(live) == 1 {
		s.finish(live[0], s.dispatch(live[0]))
		return
	}
	var ops []engine.BatchOp
	var deadline time.Time
	for _, t := range live {
		ops = appendWriteOps(ops, &t.req)
		if !t.deadline.IsZero() && (deadline.IsZero() || t.deadline.Before(deadline)) {
			deadline = t.deadline
		}
	}
	ctx, cancel := s.deadlineCtx(deadline)
	err := s.db.ApplyBatchCtx(ctx, ops)
	cancel()
	if err == nil {
		s.m.coalescedBatch.Inc()
		s.m.coalescedWrites.Add(int64(len(live)))
		for _, t := range live {
			t.resp = Response{OK: true}
			s.finish(t, &t.resp)
		}
		return
	}
	// The combined batch aborted atomically (no effects survive), so per-
	// request execution observes the same starting state.
	for _, t := range live {
		s.execute(t)
	}
}

// appendWriteOps appends the engine batch ops of one write request.
func appendWriteOps(ops []engine.BatchOp, req *Request) []engine.BatchOp {
	switch req.Op {
	case OpInsert:
		return append(ops, engine.Ins(req.Relation, req.Tuple))
	case OpDelete:
		return append(ops, engine.Del(req.Relation, req.Key))
	case OpUpdate:
		return append(ops, engine.Upd(req.Relation, req.Key, req.Tuple))
	case OpInsertBatch:
		for _, t := range req.Tuples {
			ops = append(ops, engine.Ins(req.Relation, t))
		}
		return ops
	}
	return append(ops, req.Ops...)
}

// deadlineError maps a context error to the wire's deadline/cancel sentinel.
func deadlineError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w while queued", ErrDeadline)
	}
	return err
}

// write runs one write request against the backend under ctx.
func (s *Server) write(ctx context.Context, req *Request) error {
	switch req.Op {
	case OpInsert:
		return s.db.InsertCtx(ctx, req.Relation, req.Tuple)
	case OpDelete:
		return s.db.DeleteCtx(ctx, req.Relation, req.Key)
	case OpUpdate:
		return s.db.UpdateCtx(ctx, req.Relation, req.Key, req.Tuple)
	case OpInsertBatch:
		return s.db.InsertBatchCtx(ctx, req.Relation, req.Tuples)
	}
	return s.db.ApplyBatchCtx(ctx, req.Ops)
}

// dispatch executes one request against the backend and builds its
// response, in t's own response unless it failed.
func (s *Server) dispatch(t *task) *Response {
	req, ok := &t.req, &t.resp
	*ok = Response{OK: true}
	reply := func(err error) *Response {
		if err != nil {
			return errorResponse(req.ID, err)
		}
		return ok
	}
	if writeOp(req.Op) {
		ctx, cancel := s.deadlineCtx(t.deadline)
		defer cancel()
		return reply(s.write(ctx, req))
	}
	switch req.Op {
	case OpPing:
		return ok
	case OpFetch:
		tup, found, err := s.db.GetByKeyCtx(s.baseCtx, req.Relation, req.Key)
		// The reply aliases the published row, which no writer mutates.
		ok.Found, ok.Tuple = found, tup
		return reply(err)
	case OpBegin:
		return reply(TxnError(s.db.Begin()))
	case OpCommit:
		return reply(TxnError(s.db.Commit()))
	case OpRollback:
		return reply(TxnError(s.db.Rollback()))
	case OpStats:
		st := s.db.StatsTotals()
		ok.Stats = &st
		return ok
	case OpCheckpoint:
		return reply(s.db.Checkpoint())
	case OpReplSubscribe, OpReplFetch:
		// Subscribe and fetch share semantics: validate the follower's
		// position and return the chunk after it. A position below the
		// compaction horizon ships the checkpoint snapshot instead, so a
		// fresh (or long-dead) follower bootstraps in the same exchange.
		rep, isRep := s.db.(Replicator)
		if !isRep {
			return reply(ErrNotReplicating)
		}
		recs, horizon, err := rep.ReplRead(req.AfterLSN, req.MaxRecords)
		if errors.Is(err, wal.ErrCompacted) {
			data, lsn, err := rep.ReplSnapshot()
			if err == nil {
				err = snapshotFits(data, lsn)
			}
			ok.Repl = &WireRepl{CommitLSN: horizon, Snapshot: data, SnapshotLSN: lsn}
			return reply(err)
		}
		ok.Repl = &WireRepl{CommitLSN: horizon, Records: capReplRecords(recs)}
		return reply(err)
	case OpReplHeartbeat:
		rep, isRep := s.db.(Replicator)
		if !isRep {
			return reply(ErrNotReplicating)
		}
		ok.Repl = &WireRepl{CommitLSN: rep.DurableLSN()}
		return ok
	}
	return reply(fmt.Errorf("%w: unknown op %q", ErrProtocol, req.Op))
}

// TxnError classifies transaction sequencing failures (begin while open,
// commit/rollback without begin) under ErrTxn, leaving sentinel-coded errors
// (e.g. a crashed WAL refusing the marker) untouched. Both the embedded
// session and the server use it, so Code is backend-independent.
func TxnError(err error) error {
	if err == nil || CodeOf(err) != CodeUnknown {
		return err
	}
	return fmt.Errorf("%w: %v", ErrTxn, err)
}

// replReplyFixed bounds the bytes of a repl reply besides its records: the
// ID, commit LSN, snapshot LSN and record count as uvarints, and the flags,
// code, error and (empty) snapshot length as one byte each.
const replReplyFixed = 4*binary.MaxVarintLen64 + 4

// capReplRecords keeps the leading records whose v2 reply fits in one frame
// the client accepts (DefaultMaxFrame), and at least one record: a follower
// fetches again from the last LSN it received.
func capReplRecords(recs []wal.Record) []wal.Record {
	size := replReplyFixed
	for i, r := range recs {
		size += uvarintLen(r.LSN) + uvarintLen(uint64(len(r.Payload))) + len(r.Payload)
		if size > DefaultMaxFrame && i > 0 {
			return recs[:i]
		}
	}
	return recs
}

// snapshotFits refuses a checkpoint whose v2 reply would not fit in one
// frame the client accepts (DefaultMaxFrame): the follower's frame reader
// would drop it as a protocol error, so the primary names the sizes instead.
// A snapshot ships whole; bootstrapping from a larger one is not supported.
func snapshotFits(data []byte, lsn uint64) error {
	if size := replReplyFixed + uvarintLen(uint64(len(data))) + len(data); size > DefaultMaxFrame {
		return fmt.Errorf("%w: the checkpoint at LSN %d is %d bytes, over the %d-byte frame limit a bootstrap reply must fit in", ErrUnsupported, lsn, len(data), DefaultMaxFrame)
	}
	return nil
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}
