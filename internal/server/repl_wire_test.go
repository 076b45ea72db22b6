package server

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/wal"
)

// Round-trip the replication request/response shapes: the repl fields are
// additions on top of the frozen v2 layout, so they must survive
// encode/decode exactly.
func TestReplFramesRoundTrip(t *testing.T) {
	reqs := []*Request{
		{ID: 7, Op: OpReplSubscribe, AfterLSN: 42, MaxRecords: 512},
		{ID: 8, Op: OpReplFetch, AfterLSN: 0, MaxRecords: 0, DeadlineMS: 250},
		{ID: 9, Op: OpReplHeartbeat},
	}
	resps := []*Response{
		{ID: 7, OK: true, Repl: &WireRepl{CommitLSN: 99, Records: []wal.Record{
			{LSN: 43, Payload: []byte{0x01, 0x00, 0xff}},
			{LSN: 44, Payload: []byte("record")},
		}}},
		{ID: 8, OK: true, Repl: &WireRepl{CommitLSN: 99, Snapshot: []byte("STATE"), SnapshotLSN: 90}},
		{ID: 9, OK: true, Repl: &WireRepl{CommitLSN: 99}},
	}
	for _, req := range reqs {
		var buf bytes.Buffer
		if _, err := WriteFrameVersion(&buf, ProtoVersionBinary, req); err != nil {
			t.Fatalf("encode %s: %v", req.Op, err)
		}
		body, err := ReadFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequestVersion(body, ProtoVersionBinary)
		if err != nil {
			t.Fatalf("decode %s: %v", req.Op, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("request round-trip:\ngot  %+v\nwant %+v", got, req)
		}
	}
	for _, resp := range resps {
		var buf bytes.Buffer
		if _, err := WriteFrameVersion(&buf, ProtoVersionBinary, resp); err != nil {
			t.Fatalf("encode response %d: %v", resp.ID, err)
		}
		body, err := ReadFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResponseVersion(body, ProtoVersionBinary)
		if err != nil {
			t.Fatalf("decode response %d: %v", resp.ID, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("response round-trip:\ngot  %+v\nwant %+v", got, resp)
		}
	}
}

// TestReplFetchFramesFitTheClient loads a durable primary with more than
// DefaultMaxFrame of log in fewer than 1 024 records, then fetches it as a
// follower does, each time from the last LSN received, asking for 1 024
// records. Every reply must fit a frame the client accepts (a larger one
// would fail the same fetch on every poll, wedging the follower), hold fewer
// records than asked for, continue the LSN sequence, and the fetches must
// reach the commit horizon.
func TestReplFetchFramesFitTheClient(t *testing.T) {
	eng := openEngine(t, engine.WithDurability(t.TempDir(), wal.SyncNever))
	_, addr := serve(t, eng, Config{})
	c, err := Dial(addr, ClientOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	pad := strings.Repeat("x", 1000)
	const batches, perBatch, maxRecords = 1100, 5, 1024
	for i := 0; i < batches; i++ {
		rows := make([]relation.Tuple, perBatch)
		for j := range rows {
			rows[j] = row(fmt.Sprintf("k%04d-%d", i, j), pad)
		}
		if err := c.InsertBatchCtx(ctx, "R", rows); err != nil {
			t.Fatal(err)
		}
	}

	var after uint64
	replies := 0
	for {
		rep, err := c.ReplFetchCtx(ctx, after, maxRecords)
		if err != nil {
			t.Fatalf("fetch after LSN %d: %v", after, err)
		}
		replies++
		if n := len(rep.Records); n == 0 || n >= maxRecords {
			t.Fatalf("reply %d holds %d records, want 1..%d", replies, n, maxRecords-1)
		}
		for _, r := range rep.Records {
			if r.LSN <= after {
				t.Fatalf("LSN %d after %d", r.LSN, after)
			}
			after = r.LSN
		}
		if after >= rep.CommitLSN {
			break
		}
	}
	if replies < 2 {
		t.Fatalf("the log arrived in %d reply, want it split", replies)
	}
}
