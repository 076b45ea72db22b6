package server

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
)

// TestVersionNegotiationMatrix covers the server's answer to each offer it
// accepts: a client offering 2 gets 2 and a full round trip over v2, and a
// peer offering more than 2 is answered with 2 and served v2.
func TestVersionNegotiationMatrix(t *testing.T) {
	_, addr := startServer(t, Config{})
	t.Run("v2 client, v2 server", func(t *testing.T) {
		c, err := Dial(addr, ClientOptions{PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// A mutation, a hit, and a miss must all round-trip.
		if err := c.InsertCtx(nil, "R", row("neg", "v")); err != nil {
			t.Fatal(err)
		}
		tup, found, err := c.FetchCtx(nil, "R", key("neg"))
		if err != nil || !found {
			t.Fatalf("fetch: found=%v err=%v", found, err)
		}
		if tup[1].AsString() != "v" {
			t.Fatalf("fetched %v", tup)
		}
		if _, found, err := c.FetchCtx(nil, "R", key("absent")); err != nil || found {
			t.Fatalf("miss: found=%v err=%v", found, err)
		}
	})
	t.Run("offer 3, v2 server", func(t *testing.T) {
		c := dialRaw(t, addr)
		c.sendHello(3)
		resp, err := c.recv()
		if err != nil || !resp.OK || resp.Version != ProtoVersionBinary {
			t.Fatalf("offer 3 answered %+v, %v; want version %d", resp, err, ProtoVersionBinary)
		}
		c.ready = true
		c.send(&Request{ID: 2, Op: OpPing})
		if resp, err := c.recv(); err != nil || !resp.OK || resp.ID != 2 {
			t.Fatalf("ping after offer 3: %+v, %v", resp, err)
		}
	})
}

// TestGarbageVersionFailsOnlyThatConnection sends hellos offering versions
// the server does not speak: each is answered with a JSON protocol error
// naming version 2 and closed, while a healthy client keeps working
// throughout.
func TestGarbageVersionFailsOnlyThatConnection(t *testing.T) {
	_, addr := startServer(t, Config{})

	good, err := Dial(addr, ClientOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var pingErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := good.PingCtx(nil); err != nil {
				pingErr = err
				return
			}
		}
	}()

	for _, offer := range []int{0, 1} {
		bad := dialRaw(t, addr)
		bad.sendHello(offer)
		body, err := ReadFrame(bad.nc, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("offer %d: expected an error response before close, got %v", offer, err)
		}
		h, err := decodeHelloReply(body)
		if err != nil {
			t.Fatalf("offer %d: reply is not a hello reply: %v", offer, err)
		}
		if h.OK || h.Code != CodeProtocol || h.Version != ProtoVersionBinary || !strings.Contains(h.Error, "server speaks 2") {
			t.Fatalf("offer %d answered %+v, want code %q naming version 2", offer, h, CodeProtocol)
		}
		if !errors.Is(remoteError(h.Code, h.Error), ErrProtocol) {
			t.Fatalf("reply %+v does not map to ErrProtocol", h)
		}
		if offer == 1 {
			if want := versionRefusalJSON + "\n"; string(body) != want {
				t.Fatalf("refusal body %s, want %s", body, want)
			}
		}
		if _, err := ReadFrame(bad.nc, DefaultMaxFrame); err == nil {
			t.Fatalf("connection survived a hello offering version %d", offer)
		}
	}

	// The abuse must not have poisoned the healthy connection.
	close(stop)
	wg.Wait()
	if pingErr != nil {
		t.Fatalf("healthy connection broken during another conn's bad hello: %v", pingErr)
	}
	if err := good.PingCtx(nil); err != nil {
		t.Fatalf("healthy connection broken after another conn's bad hello: %v", err)
	}
}

// TestClientRefusesVersion1Server runs a fake server that answers every
// hello with version 1 and then holds the connection open: Dial must fail
// with ErrProtocol on the reply, well within DialTimeout.
func TestClientRefusesVersion1Server(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				body, err := ReadFrame(nc, DefaultMaxFrame)
				if err != nil {
					return
				}
				h, err := decodeHello(body)
				if err != nil {
					return
				}
				newFrameEncoder().writeHello(nc, &helloReply{ID: h.ID, OK: true, Version: 1})
				ReadFrame(nc, DefaultMaxFrame) // hold the connection until the client hangs up
			}(nc)
		}
	}()

	const timeout = 2 * time.Second
	start := time.Now()
	c, err := Dial(ln.Addr().String(), ClientOptions{PoolSize: 1, DialTimeout: timeout})
	if err == nil {
		c.Close()
		t.Fatal("client accepted a server answering version 1")
	}
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("dial failed with %v, want ErrProtocol", err)
	}
	if took := time.Since(start); took >= timeout {
		t.Fatalf("refusal took %v, not within DialTimeout %v", took, timeout)
	}
}

// TestErrorTaxonomyOverTheWire issues the same failing operations over a
// client and against an engine of its own: the Code, the sentinel it maps to,
// and the typed constraint violation must match exactly.
func TestErrorTaxonomyOverTheWire(t *testing.T) {
	_, addr := startServer(t, Config{})
	c, err := Dial(addr, ClientOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	local := openEngine(t)
	defer local.Close()
	ctx := context.Background()

	type pair struct{ remote, local error }
	cases := map[string]pair{
		"unknown relation": {c.InsertCtx(ctx, "NOPE", row("a", "b")), local.InsertCtx(ctx, "NOPE", row("a", "b"))},
		"arity mismatch": {c.InsertCtx(ctx, "R", relation.Tuple{relation.NewString("only")}),
			local.InsertCtx(ctx, "R", relation.Tuple{relation.NewString("only")})},
		"no such tuple":          {c.DeleteCtx(ctx, "R", key("absent")), local.DeleteCtx(ctx, "R", key("absent"))},
		"commit without begin":   {c.CommitCtx(ctx), TxnError(local.Commit())},
		"checkpoint non-durable": {c.CheckpointCtx(ctx), local.Checkpoint()},
	}
	for _, db := range []func(relation.Tuple) error{
		func(r relation.Tuple) error { return c.InsertCtx(ctx, "R", r) },
		func(r relation.Tuple) error { return local.InsertCtx(ctx, "R", r) },
	} {
		if err := db(row("dup", "x")); err != nil {
			t.Fatal(err)
		}
	}
	cases["duplicate key"] = pair{c.InsertCtx(ctx, "R", row("dup", "x")), local.InsertCtx(ctx, "R", row("dup", "x"))}

	for name, p := range cases {
		if p.remote == nil || p.local == nil {
			t.Errorf("%s: remote %v, local %v; want both to fail", name, p.remote, p.local)
			continue
		}
		code := CodeOf(p.remote)
		if want := CodeOf(p.local); code != want {
			t.Errorf("%s: remote code %q, local code %q", name, code, want)
		}
		if s := sentinelOf(code); s != nil && !errors.Is(p.remote, s) {
			t.Errorf("%s: remote error %v does not match sentinel %v", name, p.remote, s)
		}
		var rv, lv *engine.ConstraintViolation
		errors.As(p.remote, &rv)
		errors.As(p.local, &lv)
		if (rv == nil) != (lv == nil) {
			t.Errorf("%s: violation presence differs (remote %v, local %v)", name, rv, lv)
		} else if rv != nil && *rv != *lv {
			t.Errorf("%s: violation differs:\n  remote %+v\n  local  %+v", name, *rv, *lv)
		}
	}
}
