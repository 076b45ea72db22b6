package server

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
)

// gateBackend holds writes until the test lets them through. InsertCtx
// announces itself on entered and waits for release to be closed;
// ApplyBatchCtx — a coalesced batch — hands the test its context on batches
// and waits for a token on batchGo.
type gateBackend struct {
	Backend
	entered chan struct{}
	release chan struct{}
	batches chan context.Context
	batchGo chan struct{}
}

func (g *gateBackend) InsertCtx(ctx context.Context, name string, tup relation.Tuple) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	return g.Backend.InsertCtx(ctx, name, tup)
}

func (g *gateBackend) ApplyBatchCtx(ctx context.Context, ops []engine.BatchOp) error {
	g.batches <- ctx
	<-g.batchGo
	return g.Backend.ApplyBatchCtx(ctx, ops)
}

// TestCoalescedWriteKeepsItsDeadline: a write coalesced with others must be
// refused, as it would be if sent alone, when its deadline passes while the
// merged batch waits for the writer mutex. A blocker occupies the single
// worker; write A (short deadline) and write B (none) queue behind it and
// coalesce; the gate holds their batch until A's deadline has passed. A is
// answered with the deadline code and absent, B is committed.
func TestCoalescedWriteKeepsItsDeadline(t *testing.T) {
	eng := openEngine(t)
	g := &gateBackend{Backend: eng, entered: make(chan struct{}, 1), release: make(chan struct{}),
		batches: make(chan context.Context, 1), batchGo: make(chan struct{})}
	_, addr := serve(t, g, Config{Workers: 1, QueueDepth: 2})
	c := dialRaw(t, addr)
	c.hello()

	c.send(&Request{ID: 10, Op: OpInsert, Relation: "R", Tuple: EncodeTuple(row("blocker", "v"))})
	<-g.entered // the only worker is inside the blocker's insert
	c.send(&Request{ID: 11, Op: OpInsert, Relation: "R", Tuple: EncodeTuple(row("a", "v")), DeadlineMS: 500})
	c.send(&Request{ID: 12, Op: OpInsert, Relation: "R", Tuple: EncodeTuple(row("b", "v"))})
	// The queue holds two requests, so a third is refused on arrival — which
	// proves A and B are queued.
	c.send(&Request{ID: 13, Op: OpPing})
	if resp, err := c.recv(); err != nil || resp.ID != 13 || resp.Code != CodeOverloaded {
		t.Fatalf("want request 13 refused as overloaded, got %+v, %v", resp, err)
	}
	close(g.release)

	var batchCtx context.Context
	select {
	case batchCtx = <-g.batches:
	case <-time.After(10 * time.Second):
		t.Fatal("A and B were not coalesced into one batch")
	}
	// Hold the batch until A's deadline has passed. A batch that does not
	// carry A's deadline never sees its context end; the timeout bounds the
	// wait for it.
	select {
	case <-batchCtx.Done():
	case <-time.After(2 * time.Second):
	}
	g.batchGo <- struct{}{}

	got := make(map[uint64]*Response)
	for len(got) < 3 {
		resp, err := c.recv()
		if err != nil {
			t.Fatalf("after %d responses: %v", len(got), err)
		}
		got[resp.ID] = resp
	}
	if !got[10].OK || !got[12].OK {
		t.Fatalf("blocker and B must commit: %+v, %+v", got[10], got[12])
	}
	if got[11].Code != CodeDeadline {
		t.Fatalf("A answered %+v, want code %q", got[11], CodeDeadline)
	}
	ctx := context.Background()
	if _, found, err := eng.GetByKeyCtx(ctx, "R", key("a")); err != nil || found {
		t.Fatalf("A committed after its deadline: found=%v err=%v", found, err)
	}
	if _, found, err := eng.GetByKeyCtx(ctx, "R", key("b")); err != nil || !found {
		t.Fatalf("B lost: found=%v err=%v", found, err)
	}
}

// TestReadFrameBuffersStayBounded: a frame above frameKeepCap grows a
// connection's read buffer for that frame only. Afterwards the buffer of
// both ends is back within the cap, and later frames still decode.
func TestReadFrameBuffersStayBounded(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c, err := Dial(addr, ClientOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	big := strings.Repeat("x", 2*frameKeepCap)
	// A large request frame for the server, a large reply for the client.
	if err := c.InsertCtx(ctx, "R", row("big", big)); err != nil {
		t.Fatal(err)
	}
	if tup, ok, err := c.FetchCtx(ctx, "R", key("big")); err != nil || !ok || tup[1].AsString() != big {
		t.Fatalf("large fetch: ok=%v err=%v", ok, err)
	}
	if err := c.InsertCtx(ctx, "R", row("small", "v")); err != nil {
		t.Fatal(err)
	}
	if tup, ok, err := c.FetchCtx(ctx, "R", key("small")); err != nil || !ok || !tup.Identical(row("small", "v")) {
		t.Fatalf("fetch after the large frames: %v ok=%v err=%v", tup, ok, err)
	}

	c.mu.Lock()
	for _, cc := range c.idle {
		if n := cap(cc.rbuf); n > frameKeepCap {
			t.Errorf("client read buffer kept %d bytes, cap %d", n, frameKeepCap)
		}
	}
	c.mu.Unlock()
	srv.mu.Lock()
	for sc := range srv.conns {
		sc.mu.Lock() // the reader took it after its last read
		if n := cap(sc.rbuf); n > frameKeepCap {
			t.Errorf("server read buffer kept %d bytes, cap %d", n, frameKeepCap)
		}
		sc.mu.Unlock()
	}
	srv.mu.Unlock()
}

// TestRemoteTuplesAreOwned: the connections reuse their buffers, requests
// and responses, so nothing handed out or kept may alias them. A tuple
// returned by FetchCtx is unchanged after 1 000 further fetches on the same
// connection, and a row inserted over the wire still equals its original,
// read through the embedded engine, after as many later frames.
func TestRemoteTuplesAreOwned(t *testing.T) {
	// The subtest is named after the wire version it runs over.
	t.Run(fmt.Sprintf("v%d", ProtoVersionBinary), func(t *testing.T) {
		eng := openEngine(t)
		_, addr := serve(t, eng, Config{})
		c, err := Dial(addr, ClientOptions{PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		val := func(i int) string { return fmt.Sprintf("value-%04d", i) }
		const rows = 16
		for i := 0; i < rows; i++ {
			if err := c.InsertCtx(ctx, "R", row(fmt.Sprintf("k%02d", i), val(i))); err != nil {
				t.Fatal(err)
			}
		}
		first, ok, err := c.FetchCtx(ctx, "R", key("k00"))
		if err != nil || !ok {
			t.Fatalf("fetch: ok=%v err=%v", ok, err)
		}
		for i := 0; i < 1000; i++ {
			if _, ok, err := c.FetchCtx(ctx, "R", key(fmt.Sprintf("k%02d", 1+i%(rows-1)))); err != nil || !ok {
				t.Fatalf("fetch %d: ok=%v err=%v", i, ok, err)
			}
		}
		if !first.Identical(row("k00", val(0))) {
			t.Fatalf("fetched tuple changed under later frames: %v", first)
		}
		for i := 0; i < 1000; i++ {
			if err := c.UpdateCtx(ctx, "R", key(fmt.Sprintf("k%02d", 1+i%(rows-1))), row(fmt.Sprintf("k%02d", 1+i%(rows-1)), val(1000+i))); err != nil {
				t.Fatal(err)
			}
		}
		if got, ok, err := eng.GetByKeyCtx(ctx, "R", key("k00")); err != nil || !ok || !got.Identical(row("k00", val(0))) {
			t.Fatalf("row inserted over the wire changed under later frames: %v ok=%v err=%v", got, ok, err)
		}
	})
}

// TestPipelinedConnectionRecyclesTasks pipelines fetches and inserts on one
// binary connection served by four workers, so the connection's tasks — and
// the fetch-key storage they lend the decoder — are recycled while others of
// the same connection are still in flight. Every response must answer its
// own request.
func TestPipelinedConnectionRecyclesTasks(t *testing.T) {
	eng := openEngine(t)
	_, addr := serve(t, eng, Config{Workers: 4, QueueDepth: 256})
	ctx := context.Background()
	const n = 64
	name := func(i int) string { return fmt.Sprintf("k%02d", i) }
	val := func(i int) string { return fmt.Sprintf("v%02d", i) }
	for i := 0; i < n; i++ {
		if err := eng.InsertCtx(ctx, "R", row(name(i), val(i))); err != nil {
			t.Fatal(err)
		}
	}
	c := dialRaw(t, addr)
	c.hello()
	write := func(req *Request) {
		if _, err := WriteFrameVersion(c.nc, ProtoVersionBinary, req); err != nil {
			t.Fatal(err)
		}
	}
	next := uint64(2)
	for round := 0; round < 20; round++ {
		fetches := make(map[uint64]int)
		for i := 0; i < n; i++ {
			fetches[next] = i
			write(&Request{ID: next, Op: OpFetch, Relation: "R", Key: EncodeTuple(key(name(i)))})
			write(&Request{ID: next + 1, Op: OpInsert, Relation: "R", Tuple: EncodeTuple(row(fmt.Sprintf("r%02d-%02d", round, i), "x"))})
			next += 2
		}
		for j := 0; j < 2*n; j++ {
			body, err := ReadFrame(c.nc, DefaultMaxFrame)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := DecodeResponseVersion(body, ProtoVersionBinary)
			if err != nil || !resp.OK {
				t.Fatalf("response %+v, %v", resp, err)
			}
			if i, ok := fetches[resp.ID]; ok {
				if want := row(name(i), val(i)); !resp.Found || !resp.Tuple.Identical(want) {
					t.Fatalf("fetch %d answered %v, want %v", resp.ID, resp.Tuple, want)
				}
			}
		}
	}
	if got := eng.Count("R"); got != n+20*n {
		t.Fatalf("%d rows, want %d", got, n+20*n)
	}
}
