package server

import (
	"context"
	"fmt"
	"net"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
)

// wideSchema is one four-column relation holding every non-null value kind
// but bool, so a fetched row exercises the codec's string block and its
// scalar tags.
func wideSchema() *schema.Schema {
	return schema.New().AddScheme(schema.NewScheme("W", []schema.Attribute{
		{Name: "W.K", Domain: "k"}, {Name: "W.S", Domain: "s"},
		{Name: "W.I", Domain: "i"}, {Name: "W.F", Domain: "f"},
	}, []string{"W.K"}))
}

func wideRow(k string) relation.Tuple {
	return relation.Tuple{relation.NewString(k), relation.NewString("payload-" + k),
		relation.NewInt(int64(len(k))), relation.NewFloat(2.5)}
}

// TestAllocBudget pins what one remote round trip allocates, client and
// server together (AllocsPerRun counts the whole process), as totals over 64
// fixed operations of each kind: a Client with one pooled connection against
// a loopback Server over an in-memory engine, binary codec. A ping allocates
// nothing. A fetch of a four-column row allocates the row the caller keeps
// (the tuple and one block for its strings) and the string block of the key
// the server decodes; the engine's read allocates nothing. An insert adds to
// the engine's own write path the tuple handed to it (tuple and string
// block) and the deadline context a write runs under. Per operation: ping 0,
// fetch 3, insert 13.7 — 0, 4 and 17.7 while the engine boxed the co-access
// name per read and staged each write in fresh structures; 16, 28 and 34.7
// when both ends derived a context per request, converted every tuple
// through []WireValue and allocated request, response and task structs per
// frame.
func TestAllocBudget(t *testing.T) {
	const ops, runs = 64, 4
	eng, err := engine.Open(wideSchema())
	if err != nil {
		t.Fatal(err)
	}
	_, addr := serve(t, eng, Config{})
	c, err := Dial(addr, ClientOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	keys := make([]relation.Tuple, ops)
	for i := range keys {
		row := wideRow(fmt.Sprintf("k%03d", i))
		if err := c.InsertCtx(ctx, "W", row); err != nil {
			t.Fatal(err)
		}
		keys[i] = row[:1]
	}
	pings := testing.AllocsPerRun(runs, func() {
		for range ops {
			if err := c.PingCtx(ctx); err != nil {
				t.Fatal(err)
			}
		}
	})
	fetches := testing.AllocsPerRun(runs, func() {
		for _, k := range keys {
			if _, ok, err := c.FetchCtx(ctx, "W", k); err != nil || !ok {
				t.Fatalf("fetch of %v: ok=%v err=%v", k, ok, err)
			}
		}
	})
	// AllocsPerRun calls its function runs+1 times; every call inserts rows
	// of its own.
	rows := make([]relation.Tuple, (runs+1)*ops)
	for i := range rows {
		rows[i] = wideRow(fmt.Sprintf("fresh-%04d", i))
	}
	next := 0
	inserts := testing.AllocsPerRun(runs, func() {
		for _, row := range rows[next : next+ops] {
			if err := c.InsertCtx(ctx, "W", row); err != nil {
				t.Fatal(err)
			}
		}
		next += ops
	})

	const pingBudget, fetchBudget, insertBudget = 0, 192, 876 // 0, 3 and 13.7 per operation
	if pings > pingBudget {
		t.Errorf("%d PingCtx allocate %.0f, budget %d", ops, pings, pingBudget)
	}
	if fetches > fetchBudget {
		t.Errorf("%d FetchCtx allocate %.0f, budget %d", ops, fetches, fetchBudget)
	}
	if inserts > insertBudget {
		t.Errorf("%d InsertCtx allocate %.0f, budget %d", ops, inserts, insertBudget)
	}
}

// BenchmarkRemoteRoundTrip times a Client round trip against a loopback
// Server over an in-memory engine, binary codec: a fetch of a four-column
// row, and an insert of one. `make allocs` profiles it by allocation site.
func BenchmarkRemoteRoundTrip(b *testing.B) {
	eng, err := engine.Open(wideSchema())
	if err != nil {
		b.Fatal(err)
	}
	srv := New(eng, Config{Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(ln.Addr().String(), ClientOptions{PoolSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const keys = 1024
	for i := 0; i < keys; i++ {
		if err := c.InsertCtx(ctx, "W", wideRow(fmt.Sprintf("k%04d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fetch", func(b *testing.B) {
		key := relation.Tuple{relation.NewString("k0042")}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := c.FetchCtx(ctx, "W", key); err != nil || !ok {
				b.Fatalf("fetch: ok=%v err=%v", ok, err)
			}
		}
	})
	inserted := 0
	b.Run("insert", func(b *testing.B) {
		rows := make([]relation.Tuple, b.N)
		for i := range rows {
			rows[i] = wideRow(fmt.Sprintf("bench-%08d", inserted+i))
		}
		inserted += b.N
		b.ReportAllocs()
		b.ResetTimer()
		for _, row := range rows {
			if err := c.InsertCtx(ctx, "W", row); err != nil {
				b.Fatal(err)
			}
		}
	})
}
