package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/wal"
)

// testSchema is the minimal schema the integration tests serve: one
// relation, string key, one payload attribute.
func testSchema() *schema.Schema {
	return schema.New().AddScheme(schema.NewScheme("R",
		[]schema.Attribute{{Name: "R.K", Domain: "k"}, {Name: "R.V", Domain: "v"}},
		[]string{"R.K"}))
}

func row(k, v string) relation.Tuple {
	return relation.Tuple{relation.NewString(k), relation.NewString(v)}
}

func key(k string) relation.Tuple { return relation.Tuple{relation.NewString(k)} }

// openEngine opens an engine over testSchema.
func openEngine(t *testing.T, engOpts ...engine.Option) *engine.DB {
	t.Helper()
	eng, err := engine.Open(testSchema(), engOpts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// serve wraps db in a server with an isolated registry and serves it on a
// loopback listener. The cleanup closes the server (and through it db).
func serve(t *testing.T, db Backend, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	srv := New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// startServer serves a fresh in-memory engine.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	return serve(t, openEngine(t), cfg)
}

// slowBackend makes the write operations these tests drive slow: it sleeps d
// before delegating, so a worker is busy for at least d per write. entered
// holds one announcement that a write has arrived, for tests that must not
// proceed until a worker is inside the backend.
type slowBackend struct {
	Backend
	d       time.Duration
	entered chan struct{}
}

func slow(db Backend, d time.Duration) *slowBackend {
	return &slowBackend{Backend: db, d: d, entered: make(chan struct{}, 1)}
}

func (b *slowBackend) pause() {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	time.Sleep(b.d)
}

func (b *slowBackend) InsertCtx(ctx context.Context, name string, tup relation.Tuple) error {
	b.pause()
	return b.Backend.InsertCtx(ctx, name, tup)
}

func (b *slowBackend) ApplyBatchCtx(ctx context.Context, ops []engine.BatchOp) error {
	b.pause()
	return b.Backend.ApplyBatchCtx(ctx, ops)
}

// rawConn is a hand-driven protocol connection for abuse tests. Until its
// hello succeeds it reads replies in the hello's JSON shape; afterwards it
// writes and reads v2 frames, the codec that serves traffic.
type rawConn struct {
	t     *testing.T
	nc    net.Conn
	ready bool // the hello succeeded
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t: t, nc: nc}
}

func (c *rawConn) send(req *Request) {
	c.t.Helper()
	if _, err := WriteFrameVersion(c.nc, ProtoVersionBinary, req); err != nil {
		c.t.Fatalf("writing %s frame: %v", req.Op, err)
	}
}

// sendHello sends a JSON hello offering version.
func (c *rawConn) sendHello(version int) {
	c.t.Helper()
	if _, err := newFrameEncoder().writeHello(c.nc, &helloRequest{ID: 1, Op: OpHello, Version: version}); err != nil {
		c.t.Fatalf("writing hello: %v", err)
	}
}

func (c *rawConn) sendRaw(frame []byte) {
	c.t.Helper()
	if _, err := c.nc.Write(frame); err != nil {
		c.t.Fatalf("writing raw frame: %v", err)
	}
}

func (c *rawConn) recv() (*Response, error) {
	body, err := ReadFrame(c.nc, DefaultMaxFrame)
	if err != nil {
		return nil, err
	}
	if c.ready {
		return DecodeResponseVersion(body, ProtoVersionBinary)
	}
	h, err := decodeHelloReply(body)
	if err != nil {
		return nil, err
	}
	return &Response{ID: h.ID, OK: h.OK, Code: h.Code, Error: h.Error, Version: h.Version}, nil
}

func (c *rawConn) hello() {
	c.t.Helper()
	c.sendHello(ProtoVersionBinary)
	resp, err := c.recv()
	if err != nil {
		c.t.Fatalf("handshake: %v", err)
	}
	if !resp.OK || resp.Version != ProtoVersionBinary {
		c.t.Fatalf("handshake refused: %+v", resp)
	}
	c.ready = true
}

// drainResponses reads frames until the server closes the connection,
// returning everything received.
func (c *rawConn) drainResponses() []*Response {
	var out []*Response
	for {
		resp, err := c.recv()
		if err != nil {
			return out
		}
		out = append(out, resp)
	}
}

func frameWithLength(n uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], n)
	return b[:]
}

// TestProtocolViolationsFailClosed drives each class of malformed traffic at
// a live server: the offending connection must be answered (best effort)
// with a protocol error and closed, without panicking the server or
// poisoning other connections.
func TestProtocolViolationsFailClosed(t *testing.T) {
	_, addr := serve(t, slow(openEngine(t), 20*time.Millisecond), Config{})

	cases := []struct {
		name  string
		abuse func(c *rawConn)
	}{
		{"oversized frame", func(c *rawConn) {
			c.hello()
			c.sendRaw(frameWithLength(uint32(DefaultMaxFrame) + 1))
		}},
		{"zero-length frame", func(c *rawConn) {
			c.hello()
			c.sendRaw(frameWithLength(0))
		}},
		{"truncated frame", func(c *rawConn) {
			c.hello()
			// Announce 100 bytes, deliver 3, then half-close: the server's
			// read fails mid-body and the connection dies.
			c.sendRaw(append(frameWithLength(100), 'x', 'y', 'z'))
			c.nc.(*net.TCPConn).CloseWrite()
		}},
		{"malformed body", func(c *rawConn) {
			c.hello()
			// An insert cut off after its request ID.
			body := []byte{binOpInsert, 2}
			c.sendRaw(append(frameWithLength(uint32(len(body))), body...))
		}},
		{"unknown op", func(c *rawConn) {
			c.hello()
			body := []byte{0x7f, 2, 0, 0, 0, 0, 0, 0, 0}
			c.sendRaw(append(frameWithLength(uint32(len(body))), body...))
		}},
		{"repeated hello", func(c *rawConn) {
			c.hello()
			c.send(&Request{ID: 2, Op: OpHello, Version: ProtoVersionBinary})
		}},
		{"hello version garbage", func(c *rawConn) {
			c.sendHello(0)
		}},
		{"first frame not hello", func(c *rawConn) {
			c.send(&Request{ID: 1, Op: OpPing})
		}},
		{"duplicate in-flight id", func(c *rawConn) {
			c.hello()
			// The first insert spends 20ms in the slow backend, so it is
			// still in flight when the duplicate arrives.
			c.send(&Request{ID: 7, Op: OpInsert, Relation: "R", Tuple: EncodeTuple(row("dup", "v"))})
			c.send(&Request{ID: 7, Op: OpFetch, Relation: "R", Key: EncodeTuple(key("dup"))})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := dialRaw(t, addr)
			tc.abuse(c)
			responses := c.drainResponses() // returns only once the server closed the conn
			sawProtocol := false
			for _, resp := range responses {
				if resp.Code == CodeProtocol {
					sawProtocol = true
				}
			}
			// The truncated-frame case dies on an io error, not a decodable
			// violation, so no protocol response is owed — only the close.
			if !sawProtocol && tc.name != "truncated frame" {
				t.Errorf("no protocol-error response among %d responses", len(responses))
			}
		})
	}

	// The server survived every abuse case: a fresh, well-behaved client
	// works end to end.
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatalf("healthy client after abuse: %v", err)
	}
	defer c.Close()
	if err := c.InsertCtx(context.Background(), "R", row("alive", "yes")); err != nil {
		t.Fatalf("healthy insert after abuse: %v", err)
	}
	tup, found, err := c.FetchCtx(context.Background(), "R", key("alive"))
	if err != nil || !found || tup[1].AsString() != "yes" {
		t.Fatalf("healthy fetch after abuse: tup=%v found=%v err=%v", tup, found, err)
	}
}

// TestAdmissionControl saturates a one-worker, depth-one queue and checks
// that surplus requests are refused instantly with CodeOverloaded rather
// than queued past the depth limit.
func TestAdmissionControl(t *testing.T) {
	_, addr := serve(t, slow(openEngine(t), 30*time.Millisecond),
		Config{Workers: 1, QueueDepth: 1, CoalesceMax: 1})

	c := dialRaw(t, addr)
	c.hello()
	const n = 8
	for i := 0; i < n; i++ {
		c.send(&Request{ID: uint64(10 + i), Op: OpInsert, Relation: "R",
			Tuple: EncodeTuple(row(fmt.Sprintf("k%d", i), "v"))})
	}
	var ok, overloaded int
	for i := 0; i < n; i++ {
		resp, err := c.recv()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		switch {
		case resp.OK:
			ok++
		case resp.Code == CodeOverloaded:
			overloaded++
		default:
			t.Fatalf("unexpected response %+v", resp)
		}
	}
	if ok == 0 || overloaded == 0 {
		t.Fatalf("want both accepted and refused requests, got ok=%d overloaded=%d", ok, overloaded)
	}
}

// TestDeadlineExpiresInQueue arms a deadline shorter than the time the single
// worker is busy: whether it expires queued or mid-operation, the request
// must be answered with the deadline code and must not commit after the
// fact.
func TestDeadlineExpiresInQueue(t *testing.T) {
	db := slow(openEngine(t), 60*time.Millisecond)
	_, addr := serve(t, db, Config{Workers: 1, CoalesceMax: 1})

	client, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Occupy the single worker, then race a short-deadline insert behind it.
	blocker := make(chan error, 1)
	go func() {
		blocker <- client.InsertCtx(context.Background(), "R", row("blocker", "v"))
	}()
	<-db.entered // the worker is inside the blocker's insert
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = client.InsertCtx(ctx, "R", row("late", "v"))
	if err == nil {
		t.Fatal("short-deadline insert succeeded behind a busy worker")
	}
	if code := CodeOf(err); code != CodeDeadline && code != CodeCanceled {
		t.Fatalf("want deadline/canceled code, got %q (%v)", code, err)
	}
	if err := <-blocker; err != nil {
		t.Fatalf("blocker insert: %v", err)
	}
	if _, found, err := client.FetchCtx(context.Background(), "R", key("late")); err != nil || found {
		t.Fatalf("expired insert must not commit: found=%v err=%v", found, err)
	}
}

// TestGracefulDrain verifies the Shutdown sequence: in-flight requests
// finish and are answered, the durable engine is checkpointed and its WAL
// closed, and new connections are refused.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	db := slow(openEngine(t, engine.WithDurability(dir, wal.SyncNever)), 50*time.Millisecond)
	srv, addr := serve(t, db, Config{})

	client, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	inflight := make(chan error, 1)
	go func() {
		inflight <- client.InsertCtx(context.Background(), "R", row("inflight", "v"))
	}()
	<-db.entered // the insert has reached the backend

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight insert during drain: %v", err)
	}

	// Dialing the drained server must fail (handshake or connect).
	if c2, err := Dial(addr, ClientOptions{DialTimeout: 500 * time.Millisecond}); err == nil {
		c2.Close()
		t.Fatal("dial succeeded against a drained server")
	}

	// The drain checkpointed: a reopened engine restores from the snapshot
	// (not a log replay) and holds the acknowledged write.
	re, err := engine.Open(testSchema(), engine.WithDurability(dir, wal.SyncNever))
	if err != nil {
		t.Fatalf("reopening drained WAL dir: %v", err)
	}
	defer re.Close()
	if !re.Recovered().SnapshotLoaded {
		t.Error("drain did not leave a checkpoint snapshot")
	}
	if re.Count("R") != 1 {
		t.Errorf("recovered %d rows, want 1", re.Count("R"))
	}
}

// TestKillMidBatchRecoversAckedPrefix reuses the WAL failpoints for the
// crash test the Makefile's serve-test target runs: a client streams
// acknowledged inserts, the WAL is armed to fail a write mid-stream, the
// server is killed abruptly, and recovery must reconstruct exactly the
// acknowledged prefix — every acked write present, nothing else.
func TestKillMidBatchRecoversAckedPrefix(t *testing.T) {
	dir := t.TempDir()
	const failAt = 11
	fp := &wal.Failpoint{FailWrite: failAt}
	eng, err := engine.Open(testSchema(),
		engine.WithWALOptions(dir, wal.Options{Policy: wal.SyncAlways, Failpoint: fp}))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{Workers: 2, CoalesceMax: 1, Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	client, err := Dial(ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var acked []string
	for i := 0; i < 2*failAt; i++ {
		k := fmt.Sprintf("k%03d", i)
		if err := client.InsertCtx(context.Background(), "R", row(k, "v")); err != nil {
			break // the armed write failed: not acknowledged
		}
		acked = append(acked, k)
	}
	client.Close()
	srv.Close() // crash: no drain, no checkpoint, no WAL close

	if len(acked) == 0 || len(acked) >= 2*failAt {
		t.Fatalf("failpoint did not bite where expected: %d acked", len(acked))
	}

	re, err := engine.Open(testSchema(), engine.WithDurability(dir, wal.SyncAlways))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if got := re.Count("R"); got != len(acked) {
		t.Fatalf("recovered %d rows, want exactly the %d acked", got, len(acked))
	}
	for _, k := range acked {
		if _, ok, _ := re.GetByKeyCtx(context.Background(), "R", key(k)); !ok {
			t.Errorf("acknowledged write %s lost in recovery", k)
		}
	}
}

// TestWriteCoalescing floods concurrent writers through a coalescing server
// at fsync=always and checks the batching actually amortized fsyncs: fewer
// WAL appends than acknowledged writes, with every write still recovered.
func TestWriteCoalescing(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	eng, err := engine.Open(testSchema(),
		engine.WithRegistry(reg),
		engine.WithDurability(dir, wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(slow(eng, 2*time.Millisecond), Config{Workers: 2, CoalesceMax: 16, Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	const writers, each = 8, 8
	client, err := Dial(ln.Addr().String(), ClientOptions{PoolSize: writers})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				k := fmt.Sprintf("w%d-%d", w, i)
				if err := client.InsertCtx(context.Background(), "R", row(k, "v")); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errc; err != nil {
			t.Fatalf("writer: %v", err)
		}
	}
	client.Close()

	var appends float64
	for _, p := range reg.Snapshot() {
		if p.Name == "wal.appends" {
			appends = p.Value
		}
	}
	if appends == 0 || int(appends) >= writers*each {
		t.Errorf("coalescing did not amortize: %v WAL appends for %d writes", appends, writers*each)
	}
	var coalesced float64
	for _, p := range reg.Snapshot() {
		if p.Name == metricCoalescedWrites {
			coalesced += p.Value
		}
	}
	if coalesced == 0 {
		t.Error("no writes recorded as coalesced")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	re, err := engine.Open(testSchema(), engine.WithDurability(dir, wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Count("R"); got != writers*each {
		t.Errorf("recovered %d rows, want %d", got, writers*each)
	}
}

// TestClientRetriesIdempotentOnly kills the server's listener between
// operations: a fetch against the dead server exhausts its retries with a
// transport error, and the retry accounting never resurrects a mutation.
func TestClientRetriesIdempotentOnly(t *testing.T) {
	srv, addr := startServer(t, Config{})
	client, err := Dial(addr, ClientOptions{Retries: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.InsertCtx(context.Background(), "R", row("k", "v")); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// Fetch (idempotent) retries, then surfaces a transport error — not a
	// remote error, since no server ever answered.
	_, _, err = client.FetchCtx(context.Background(), "R", key("k"))
	if err == nil {
		t.Fatal("fetch against a dead server succeeded")
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Fatalf("transport failure misreported as remote error %v", re)
	}
	// A mutation fails immediately on the dead connection without retrying;
	// its error is equally a transport error.
	if err := client.InsertCtx(context.Background(), "R", row("k2", "v")); err == nil {
		t.Fatal("insert against a dead server succeeded")
	}
}

// TestStatsAndPing exercises the read-only ops end to end.
func TestStatsAndPing(t *testing.T) {
	_, addr := startServer(t, Config{})
	client, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.PingCtx(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := client.InsertCtx(context.Background(), "R", row("s", "v")); err != nil {
		t.Fatal(err)
	}
	st, err := client.StatsCtx(context.Background())
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Inserts != 1 {
		t.Fatalf("stats inserts = %d, want 1", st.Inserts)
	}
}

// TestFrameEncodingStable pins the frame layout: a 4-byte big-endian length
// prefix followed by the v2 body, whose first byte is the opcode, so
// independent client implementations can rely on it.
func TestFrameEncodingStable(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteFrameVersion(&buf, ProtoVersionBinary, &Request{ID: 7, Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if n != len(raw) {
		t.Fatalf("WriteFrameVersion reported %d bytes, wrote %d", n, len(raw))
	}
	if got := binary.BigEndian.Uint32(raw[:4]); int(got) != len(raw)-4 {
		t.Fatalf("length prefix %d, body %d", got, len(raw)-4)
	}
	if got, want := hex.EncodeToString(raw[4:]), "020700000000000000"; got != want {
		t.Fatalf("ping body %s, want %s", got, want)
	}
}
