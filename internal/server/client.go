package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
)

// ClientOptions tunes a Client. The zero value picks sensible defaults.
type ClientOptions struct {
	// PoolSize bounds the open connections (default 4). Checkouts beyond
	// the pool block until a connection frees up.
	PoolSize int
	// DialTimeout bounds one dial + handshake (default 5s).
	DialTimeout time.Duration
	// RequestTimeout is the per-request deadline applied when the caller's
	// context has none (default 30s; negative disables).
	RequestTimeout time.Duration
	// Retries is how many times an idempotent request is retried after a
	// retryable failure — connection errors and CodeOverloaded (default 2).
	// Mutating requests are NEVER retried: a connection that dies after the
	// request was sent leaves the outcome unknown, and retrying could
	// double-apply.
	Retries int
	// RetryBackoff is the base of the jittered exponential backoff between
	// retries (default 5ms; attempt n sleeps base·2ⁿ scaled by a random
	// factor in [0.5, 1.5)).
	RetryBackoff time.Duration
	// Seed seeds the backoff jitter; 0 derives one from the clock.
	Seed int64
	// Registry receives the client-side byte/request counters, labeled
	// client=<addr>. Nil means no metrics are recorded.
	Registry *obs.Registry
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	return o
}

// Client is a pooled connection to a relmerged server. It is safe for
// concurrent use; up to PoolSize requests proceed in parallel.
type Client struct {
	addr string
	opt  ClientOptions
	m    *clientMetrics

	slots chan struct{} // counting semaphore: open-connection budget

	mu     sync.Mutex
	idle   []*clientConn
	rng    *rand.Rand
	closed bool
}

type clientConn struct {
	nc     net.Conn
	br     *bufio.Reader
	rbuf   []byte        // reusable frame read buffer
	fe     *frameEncoder // reusable frame write buffer
	nextID uint64

	// The request being sent and the response being read, reused by every
	// call the connection carries.
	req  Request
	resp Response
}

// Dial connects to a relmerged server (verifying the protocol handshake on
// the first connection eagerly, so a wrong address or version fails fast).
func Dial(addr string, opt ClientOptions) (*Client, error) {
	opt = opt.withDefaults()
	c := &Client{
		addr:  addr,
		opt:   opt,
		m:     newClientMetrics(opt.Registry, addr),
		slots: make(chan struct{}, opt.PoolSize),
		rng:   rand.New(rand.NewSource(opt.Seed)),
	}
	for i := 0; i < opt.PoolSize; i++ {
		c.slots <- struct{}{}
	}
	// Eager probe: dial and handshake one connection, then park it idle.
	<-c.slots
	cc, err := c.dial()
	if err != nil {
		c.slots <- struct{}{}
		return nil, err
	}
	c.release(cc, nil)
	return c, nil
}

// Close closes every pooled connection. In-flight requests fail as their
// connections die; subsequent requests fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cc := range idle {
		cc.nc.Close()
	}
	return nil
}

// dial opens one connection and runs the hello (hello.go): it offers
// version 2 and requires 2 back.
func (c *Client) dial() (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, c.opt.DialTimeout)
	if err != nil {
		return nil, err
	}
	cc := &clientConn{nc: nc, br: bufio.NewReaderSize(nc, 16<<10), fe: newFrameEncoder()}
	if err := c.hello(cc); err != nil {
		nc.Close()
		return nil, err
	}
	return cc, nil
}

// hello runs the handshake on a fresh connection within DialTimeout.
func (c *Client) hello(cc *clientConn) error {
	cc.nc.SetDeadline(time.Now().Add(c.opt.DialTimeout))
	cc.nextID++
	n, err := cc.fe.writeHello(cc.nc, &helloRequest{ID: cc.nextID, Op: OpHello, Version: ProtoVersionBinary})
	c.m.bytesWritten.Add(int64(n))
	if err != nil {
		return err
	}
	body, err := c.readFrame(cc)
	if err != nil {
		return err
	}
	h, err := decodeHelloReply(body)
	if err != nil {
		return err
	}
	if !h.OK {
		return remoteError(h.Code, h.Error)
	}
	if h.Version != ProtoVersionBinary {
		return fmt.Errorf("%w: server answered protocol %d, client speaks %d", ErrProtocol, h.Version, ProtoVersionBinary)
	}
	return cc.nc.SetDeadline(time.Time{})
}

// checkout takes a connection from the pool, dialing if none is idle. Only
// when every connection is busy does it wait, and only then is a timer armed
// for the deadline.
func (c *Client) checkout(ctx context.Context, deadline time.Time) (*clientConn, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	select {
	case <-c.slots:
	default:
		var expiry <-chan time.Time
		if !deadline.IsZero() {
			t := time.NewTimer(time.Until(deadline))
			defer t.Stop()
			expiry = t.C
		}
		select {
		case <-c.slots:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-expiry:
			return nil, context.DeadlineExceeded
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.slots <- struct{}{}
		return nil, ErrClosed
	}
	var cc *clientConn
	if n := len(c.idle); n > 0 {
		cc = c.idle[n-1]
		c.idle = c.idle[:n-1]
	}
	c.mu.Unlock()
	if cc != nil {
		return cc, nil
	}
	cc, err := c.dial()
	if err != nil {
		c.slots <- struct{}{}
		return nil, err
	}
	return cc, nil
}

// release returns a healthy connection to the pool; a connection whose
// request failed with an I/O error is closed instead (its server-side state
// is unknown).
func (c *Client) release(cc *clientConn, err error) {
	if err != nil {
		cc.nc.Close()
		c.slots <- struct{}{}
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cc.nc.Close()
		c.slots <- struct{}{}
		return
	}
	c.idle = append(c.idle, cc)
	c.mu.Unlock()
	c.slots <- struct{}{}
}

// readFrame reads one frame into the connection's reusable buffer.
func (c *Client) readFrame(cc *clientConn) ([]byte, error) {
	body, err := ReadFrameInto(cc.br, DefaultMaxFrame, cc.rbuf)
	if err != nil {
		return nil, err
	}
	cc.rbuf = keepReadBuf(body)
	c.m.bytesRead.Add(int64(4 + len(body)))
	return body, nil
}

// readResponse reads one frame and decodes it into the connection's
// reusable response. Everything the response references is freshly
// decoded, so it survives the next frame.
func (c *Client) readResponse(cc *clientConn) error {
	body, err := c.readFrame(cc)
	if err != nil {
		return err
	}
	return decodeResponse(body, &cc.resp)
}

// do sends one request, retrying idempotent requests after retryable
// failures with jittered exponential backoff. The deadline is a value — the
// caller's, or now plus RequestTimeout — sent to the server and applied to
// the socket; no context is derived per call. The response is returned as a
// copy taken before the connection went back to the pool.
func (c *Client) do(ctx context.Context, req *Request, idempotent bool) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	deadline, has := ctx.Deadline()
	if !has && c.opt.RequestTimeout > 0 {
		deadline = time.Now().Add(c.opt.RequestTimeout)
	}
	attempts := 1
	if idempotent {
		attempts += c.opt.Retries
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.m.retries.Add(1)
			if err := c.backoff(ctx, deadline, i); err != nil {
				return Response{}, lastErr
			}
		}
		resp, err := c.doOnce(ctx, deadline, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !retryable(err) || ctx.Err() != nil {
			return Response{}, err
		}
	}
	return Response{}, lastErr
}

// retryable: transport failures and fast-rejections, where the server
// provably did not (overload, protocol handshake) or may not have (dial)
// executed anything. Typed engine failures are final.
func retryable(err error) bool {
	if errors.Is(err, ErrOverloaded) {
		return true
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// backoff sleeps before retry number attempt, or fails at once when the
// deadline would pass first.
func (c *Client) backoff(ctx context.Context, deadline time.Time, attempt int) error {
	d := c.opt.RetryBackoff << (attempt - 1)
	c.mu.Lock()
	factor := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	d = time.Duration(float64(d) * factor)
	if !deadline.IsZero() && time.Until(deadline) <= d {
		return context.DeadlineExceeded
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// doOnce sends req on one pooled connection, through the connection's own
// request, and returns a copy of the decoded response.
func (c *Client) doOnce(ctx context.Context, deadline time.Time, req *Request) (Response, error) {
	cc, err := c.checkout(ctx, deadline)
	if err != nil {
		return Response{}, err
	}
	c.m.requests.Add(1)
	cc.nextID++
	id := cc.nextID
	var ms int64
	if !deadline.IsZero() {
		if ms = time.Until(deadline).Milliseconds(); ms <= 0 {
			c.release(cc, nil)
			return Response{}, context.DeadlineExceeded
		}
		cc.nc.SetDeadline(deadline.Add(500 * time.Millisecond))
	} else {
		cc.nc.SetDeadline(time.Time{})
	}
	cc.req = *req
	cc.req.ID, cc.req.DeadlineMS = id, ms
	n, err := cc.fe.write(cc.nc, &cc.req)
	cc.req = Request{} // hold none of the caller's tuples
	c.m.bytesWritten.Add(int64(n))
	if err != nil {
		c.release(cc, err)
		return Response{}, err
	}
	if err := c.readResponse(cc); err != nil {
		c.release(cc, err)
		return Response{}, err
	}
	resp := cc.resp
	cc.resp = Response{}
	if resp.ID != id {
		err := fmt.Errorf("%w: response id %d for request %d", ErrProtocol, resp.ID, id)
		c.release(cc, err)
		return Response{}, err
	}
	c.release(cc, nil)
	if !resp.OK {
		return Response{}, responseError(&resp)
	}
	return resp, nil
}

// --- typed operations ---

// InsertCtx inserts one tuple. Not retried (not idempotent).
func (c *Client) InsertCtx(ctx context.Context, relName string, tup relation.Tuple) error {
	_, err := c.do(ctx, &Request{Op: OpInsert, Relation: relName, Tuple: tup}, false)
	return err
}

// DeleteCtx deletes by primary key. Not retried.
func (c *Client) DeleteCtx(ctx context.Context, relName string, key relation.Tuple) error {
	_, err := c.do(ctx, &Request{Op: OpDelete, Relation: relName, Key: key}, false)
	return err
}

// UpdateCtx replaces the tuple with the given key. Not retried.
func (c *Client) UpdateCtx(ctx context.Context, relName string, key, tup relation.Tuple) error {
	_, err := c.do(ctx, &Request{Op: OpUpdate, Relation: relName, Key: key, Tuple: tup}, false)
	return err
}

// FetchCtx looks up by primary key. Idempotent: retried on transport errors
// and overload.
func (c *Client) FetchCtx(ctx context.Context, relName string, key relation.Tuple) (relation.Tuple, bool, error) {
	resp, err := c.do(ctx, &Request{Op: OpFetch, Relation: relName, Key: key}, true)
	if err != nil {
		return nil, false, err
	}
	if !resp.Found {
		return nil, false, nil
	}
	return resp.Tuple, true, nil
}

// InsertBatchCtx inserts an atomic batch. Not retried.
func (c *Client) InsertBatchCtx(ctx context.Context, relName string, tuples []relation.Tuple) error {
	_, err := c.do(ctx, &Request{Op: OpInsertBatch, Relation: relName, Tuples: tuples}, false)
	return err
}

// ApplyBatchCtx applies an atomic mixed batch. Not retried.
func (c *Client) ApplyBatchCtx(ctx context.Context, ops []engine.BatchOp) error {
	_, err := c.do(ctx, &Request{Op: OpApplyBatch, Ops: ops}, false)
	return err
}

// BeginCtx opens the (single, global) transaction.
func (c *Client) BeginCtx(ctx context.Context) error {
	_, err := c.do(ctx, &Request{Op: OpBegin}, false)
	return err
}

// CommitCtx commits the open transaction.
func (c *Client) CommitCtx(ctx context.Context) error {
	_, err := c.do(ctx, &Request{Op: OpCommit}, false)
	return err
}

// RollbackCtx rolls back the open transaction.
func (c *Client) RollbackCtx(ctx context.Context) error {
	_, err := c.do(ctx, &Request{Op: OpRollback}, false)
	return err
}

// StatsCtx fetches the server's monotonic engine counters. Idempotent.
func (c *Client) StatsCtx(ctx context.Context) (engine.StatsSnapshot, error) {
	resp, err := c.do(ctx, &Request{Op: OpStats}, true)
	if err != nil {
		return engine.StatsSnapshot{}, err
	}
	if resp.Stats == nil {
		return engine.StatsSnapshot{}, nil
	}
	return *resp.Stats, nil
}

// CheckpointCtx forces a snapshot checkpoint on a durable server. Not
// retried (it is cheap to re-issue, but a retry after a WAL crash would
// just re-fail).
func (c *Client) CheckpointCtx(ctx context.Context) error {
	_, err := c.do(ctx, &Request{Op: OpCheckpoint}, false)
	return err
}

// PingCtx round-trips a no-op frame. Idempotent.
func (c *Client) PingCtx(ctx context.Context) error {
	_, err := c.do(ctx, &Request{Op: OpPing}, true)
	return err
}

// ReplSubscribeCtx validates a follower's start position with the primary
// and returns the first chunk (records, or a bootstrap snapshot when the
// position was compacted away). Idempotent.
func (c *Client) ReplSubscribeCtx(ctx context.Context, afterLSN uint64, maxRecords int) (*WireRepl, error) {
	return c.repl(ctx, OpReplSubscribe, afterLSN, maxRecords)
}

// ReplFetchCtx returns the committed records after afterLSN plus the
// primary's commit horizon. Idempotent: a duplicate delivery is skipped by
// the follower's log, so retries are safe.
func (c *Client) ReplFetchCtx(ctx context.Context, afterLSN uint64, maxRecords int) (*WireRepl, error) {
	return c.repl(ctx, OpReplFetch, afterLSN, maxRecords)
}

func (c *Client) repl(ctx context.Context, op string, afterLSN uint64, maxRecords int) (*WireRepl, error) {
	resp, err := c.do(ctx, &Request{Op: op, AfterLSN: afterLSN, MaxRecords: maxRecords}, true)
	if err != nil {
		return nil, err
	}
	if resp.Repl == nil {
		return nil, fmt.Errorf("%w: %s response without repl payload", ErrProtocol, op)
	}
	return resp.Repl, nil
}
