package relmerge_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/pkg/relmerge"
)

// scriptedServer speaks just enough of the wire protocol to exercise the
// remote client's retry machinery: it answers the hello handshake honestly
// and hands every other request to a per-test script, counting attempts per
// op so tests can assert exactly how many times the client really asked.
// Returning nil from the script closes the connection mid-request,
// simulating a transport failure.
type scriptedServer struct {
	ln     net.Listener
	mu     sync.Mutex
	counts map[string]int
	script func(attempt int, req *server.Request) *server.Response
}

func newScriptedServer(t *testing.T, script func(attempt int, req *server.Request) *server.Response) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &scriptedServer{ln: ln, counts: make(map[string]int), script: script}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go s.handle(nc)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

// handle answers the JSON hello with version 2, then serves v2 frames.
func (s *scriptedServer) handle(nc net.Conn) {
	defer nc.Close()
	body, err := server.ReadFrame(nc, server.DefaultMaxFrame)
	if err != nil {
		return
	}
	var hello struct {
		ID uint64 `json:"id"`
	}
	if json.Unmarshal(body, &hello) != nil {
		return
	}
	reply := fmt.Appendf(nil, `{"id":%d,"ok":true,"version":2}`, hello.ID)
	if _, err := nc.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(reply))), reply...)); err != nil {
		return
	}
	for {
		body, err := server.ReadFrame(nc, server.DefaultMaxFrame)
		if err != nil {
			return
		}
		req, err := server.DecodeRequestVersion(body, server.ProtoVersionBinary)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.counts[req.Op]++
		attempt := s.counts[req.Op]
		s.mu.Unlock()
		resp := s.script(attempt, req)
		if resp == nil {
			return // drop the connection: the client sees a transport error
		}
		resp.ID = req.ID
		if _, err := server.WriteFrameVersion(nc, server.ProtoVersionBinary, resp); err != nil {
			return
		}
	}
}

func (s *scriptedServer) count(op string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[op]
}

func (s *scriptedServer) addr() string { return s.ln.Addr().String() }

func overloadedResponse() *server.Response {
	return &server.Response{OK: false, Code: server.CodeOverloaded, Error: "server: overloaded"}
}

func dialScripted(t *testing.T, s *scriptedServer, opts ...relmerge.RemoteOption) relmerge.Session {
	t.Helper()
	opts = append([]relmerge.RemoteOption{relmerge.WithDialTimeout(2 * time.Second)}, opts...)
	sess, err := relmerge.Open(relmerge.Config{Backend: relmerge.Remote, Addr: s.addr(), RemoteOptions: opts})
	if err != nil {
		t.Fatalf("Open(Remote): %v", err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// An idempotent request (fetch) is retried past transient overload and
// succeeds once the server recovers — and the server really was asked once
// per attempt, not once.
func TestRemoteRetryIdempotentFetchSucceeds(t *testing.T) {
	srv := newScriptedServer(t, func(attempt int, req *server.Request) *server.Response {
		if attempt <= 2 {
			return overloadedResponse()
		}
		return &server.Response{OK: true, Found: true, Tuple: req.Key}
	})
	sess := dialScripted(t, srv, relmerge.WithRetries(2), relmerge.WithRetryBackoff(time.Millisecond))

	tup, found, err := sess.FetchCtx(context.Background(), "D", relmerge.Tuple{relmerge.NewString("k1")})
	if err != nil || !found {
		t.Fatalf("Fetch after retries: tup=%v found=%v err=%v", tup, found, err)
	}
	if got := srv.count(server.OpFetch); got != 3 {
		t.Fatalf("fetch attempts = %d, want 3 (1 + 2 retries)", got)
	}
}

// A fetch whose connection dies mid-request is retried on a fresh
// connection: transport errors are retryable for idempotent ops.
func TestRemoteRetryTransportError(t *testing.T) {
	srv := newScriptedServer(t, func(attempt int, req *server.Request) *server.Response {
		if attempt == 1 {
			return nil // hang up without answering
		}
		return &server.Response{OK: true, Found: false}
	})
	sess := dialScripted(t, srv, relmerge.WithRetries(2), relmerge.WithRetryBackoff(time.Millisecond))

	_, found, err := sess.FetchCtx(context.Background(), "D", relmerge.Tuple{relmerge.NewString("k1")})
	if err != nil || found {
		t.Fatalf("Fetch after reconnect: found=%v err=%v", found, err)
	}
	if got := srv.count(server.OpFetch); got != 2 {
		t.Fatalf("fetch attempts = %d, want 2", got)
	}
}

// Mutations are never retried: a rejected insert surfaces immediately, after
// exactly one wire attempt, still recognizable through the error taxonomy.
func TestRemoteRetryMutationsNotRetried(t *testing.T) {
	srv := newScriptedServer(t, func(int, *server.Request) *server.Response {
		return overloadedResponse()
	})
	sess := dialScripted(t, srv, relmerge.WithRetries(5), relmerge.WithRetryBackoff(time.Millisecond))

	err := sess.InsertCtx(context.Background(), "D", relmerge.Tuple{relmerge.NewString("k1"), relmerge.NewString("n")})
	if !errors.Is(err, relmerge.ErrOverloaded) {
		t.Fatalf("Insert error = %v, want ErrOverloaded", err)
	}
	if got := srv.count(server.OpInsert); got != 1 {
		t.Fatalf("insert attempts = %d, want exactly 1 (mutations are not idempotent)", got)
	}
}

// Retry exhaustion preserves the wire error taxonomy: after the last attempt
// fails, errors.Is and Code still see the server's overload rejection, not a
// generic retry wrapper.
func TestRemoteRetryExhaustionPreservesTaxonomy(t *testing.T) {
	srv := newScriptedServer(t, func(int, *server.Request) *server.Response {
		return overloadedResponse()
	})
	sess := dialScripted(t, srv, relmerge.WithRetries(2), relmerge.WithRetryBackoff(time.Millisecond))

	_, _, err := sess.FetchCtx(context.Background(), "D", relmerge.Tuple{relmerge.NewString("k1")})
	if !errors.Is(err, relmerge.ErrOverloaded) {
		t.Fatalf("exhausted fetch error = %v, want ErrOverloaded", err)
	}
	if code := relmerge.Code(err); code != "overloaded" {
		t.Fatalf("Code(err) = %q, want overloaded", code)
	}
	if got := srv.count(server.OpFetch); got != 3 {
		t.Fatalf("fetch attempts = %d, want 3 (1 + 2 retries)", got)
	}
}

// The backoff sleep respects the caller's context: with a backoff far longer
// than the deadline, the client gives up promptly when the context expires
// mid-backoff — and still reports the server's rejection, not a timeout of
// its own invention.
func TestRemoteRetryBackoffRespectsDeadline(t *testing.T) {
	srv := newScriptedServer(t, func(int, *server.Request) *server.Response {
		return overloadedResponse()
	})
	sess := dialScripted(t, srv, relmerge.WithRetries(5), relmerge.WithRetryBackoff(10*time.Second))

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := sess.FetchCtx(ctx, "D", relmerge.Tuple{relmerge.NewString("k1")})
	elapsed := time.Since(start)
	if !errors.Is(err, relmerge.ErrOverloaded) {
		t.Fatalf("deadline-bounded fetch error = %v, want ErrOverloaded (last real failure)", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("fetch blocked %v in backoff; want prompt return at the ~150ms deadline", elapsed)
	}
	if got := srv.count(server.OpFetch); got != 1 {
		t.Fatalf("fetch attempts = %d, want 1 (deadline expired during first backoff)", got)
	}
}
