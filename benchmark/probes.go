package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/immap"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/state"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/pkg/relmerge"
)

// Layer probes: the layers the program builds for itself (the WAL inside the
// engine, the engine inside the router, the codec inside the server) cannot
// be wrapped from outside, so the traced run replays the workload's own
// inputs straight into their public functions. Every probe is single-threaded
// and runs after the timed phase.

// perCall times n calls of f and returns ns, mallocs and bytes per call.
func perCall(n int, f func(i int)) (ns, allocs, bytes float64) {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&b)
	return float64(el) / float64(n), float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// medianCallUs times each of n calls of f on its own and returns the median
// in µs — for calls long enough (a syscall or more) that a clock read per
// call does not matter.
func medianCallUs(n int, f func(i int)) float64 {
	d := make([]int64, n)
	for i := range d {
		t0 := time.Now()
		f(i)
		d[i] = int64(time.Since(t0))
	}
	slices.Sort(d)
	return float64(percentile(d, 0.5)) / 1e3
}

// probeImmap measures the HAMT at the cardinality of the workload's largest
// relation: Get of a present key, and Set of a fresh key on the full map
// (the path copy a write publishes; the result is dropped, so the map keeps
// its size).
func probeImmap(p *plan, n func(int) int, out map[string]float64) {
	var keys []string
	for _, rows := range p.model.rels {
		if len(rows) > len(keys) {
			keys = keys[:0]
			for _, t := range rows {
				keys = append(keys, t[:1].EncodeKey())
			}
		}
	}
	sort.Strings(keys) // map order is random; the probe's inputs must not be
	m := immap.New[relation.Tuple]()
	row := relation.Tuple{relation.NewString("x")}
	for _, k := range keys {
		m = m.Set(k, row)
	}
	rng := rand.New(rand.NewSource(1))
	pick := make([]string, n(1<<16))
	fresh := make([]string, n(1<<16))
	for i := range pick {
		pick[i] = keys[rng.Intn(len(keys))]
		fresh[i] = relation.Tuple{relation.NewString(fmt.Sprintf("fresh-%d", i))}.EncodeKey()
	}
	var sink int
	out["immap.get_ns"], _, _ = perCall(len(pick), func(i int) {
		if _, ok := m.Get(pick[i]); ok {
			sink++
		}
	})
	out["immap.set_ns"], out["immap.set_allocs"], out["immap.set_bytes"] = perCall(len(fresh), func(i int) {
		sink += m.Set(fresh[i], row).Len()
	})
	_ = sink
}

// probeWAL commits payloads of the workload's mean record size to a log of
// its own under dir: under the workload's policy (never) for the budget, and
// under "always" to say what a device fsync costs where the checkout lives.
func probeWAL(dir string, payloadBytes int, n func(int) int, out map[string]float64) error {
	if payloadBytes < 1 {
		payloadBytes = 64
	}
	payload := bytes.Repeat([]byte{0x5a}, payloadBytes)
	for _, pr := range []struct {
		policy wal.SyncPolicy
		n      int
		metric string
	}{{wal.SyncNever, 20000, "wal.commit_us"}, {wal.SyncAlways, 300, "wal.fsync_commit_us"}} {
		l, _, err := wal.Open(filepath.Join(dir, "probe-"+pr.policy.String()), wal.Options{Policy: pr.policy})
		if err != nil {
			return err
		}
		var cerr error
		commit := func(int) {
			if _, err := l.Commit(payload); err != nil {
				cerr = err
			}
		}
		if pr.policy == wal.SyncNever {
			var ns float64
			ns, out["wal.commit_allocs"], _ = perCall(n(pr.n), commit)
			out[pr.metric] = ns / 1e3
		} else {
			out[pr.metric] = medianCallUs(n(pr.n), commit)
		}
		if err := l.Close(); err != nil && cerr == nil {
			cerr = err
		}
		if cerr != nil {
			return fmt.Errorf("wal probe (%s): %w", pr.policy, cerr)
		}
	}
	return nil
}

// probeCodec encodes and decodes the frames of the workload's commonest
// request — a Fetch of one merged row — with the v2 binary codec: request and
// response, tuple conversion included, so the numbers add up to one op's
// codec work on both ends of the connection.
func probeCodec(p *plan, n func(int) int, out map[string]float64) error {
	key := p.keys[0]
	row, ok := p.model.get("MERGED", key)
	if !ok {
		for _, r := range p.model.rels["MERGED"] {
			row = r
			break
		}
	}
	req := &server.Request{ID: 7, Op: server.OpFetch, Relation: "MERGED", Key: server.EncodeTuple(key), DeadlineMS: 30000}
	resp := &server.Response{ID: 7, OK: true, Found: true, Tuple: server.EncodeTuple(row)}
	var reqFrame, respFrame bytes.Buffer
	if _, err := server.WriteFrameVersion(&reqFrame, server.ProtoVersionBinary, req); err != nil {
		return err
	}
	if _, err := server.WriteFrameVersion(&respFrame, server.ProtoVersionBinary, resp); err != nil {
		return err
	}
	reqBody, respBody := reqFrame.Bytes()[4:], respFrame.Bytes()[4:]
	calls := n(200000)
	var buf bytes.Buffer
	var perr error
	encNs, encAllocs, _ := perCall(calls, func(int) {
		buf.Reset()
		req.Key, resp.Tuple = server.EncodeTuple(key), server.EncodeTuple(row)
		if _, err := server.WriteFrameVersion(&buf, server.ProtoVersionBinary, req); err != nil {
			perr = err
		}
		if _, err := server.WriteFrameVersion(&buf, server.ProtoVersionBinary, resp); err != nil {
			perr = err
		}
	})
	decNs, decAllocs, _ := perCall(calls, func(int) {
		rq, err := server.DecodeRequestVersion(reqBody, server.ProtoVersionBinary)
		if err == nil {
			_, err = server.DecodeTuple(rq.Key)
		}
		if err != nil {
			perr = err
		}
		rs, err := server.DecodeResponseVersion(respBody, server.ProtoVersionBinary)
		if err == nil {
			_, err = server.DecodeTuple(rs.Tuple)
		}
		if err != nil {
			perr = err
		}
	})
	out["server.encode_ns"], out["server.decode_ns"] = encNs, decNs
	out["server.codec_allocs_per_frame"] = (encAllocs + decAllocs) / 2
	return perr
}

// probePing times the round trip that touches everything but the engine:
// client pool, framing, TCP loopback, admission queue, worker, reply.
func probePing(ctx context.Context, sess relmerge.Session, n func(int) int, out map[string]float64) error {
	rs, ok := sess.(*relmerge.RemoteSession)
	if !ok {
		return fmt.Errorf("ping probe: session is %T, not remote", sess)
	}
	var perr error
	out["server.ping_us"] = medianCallUs(n(5000), func(int) {
		if err := rs.PingCtx(ctx); err != nil {
			perr = err
		}
	})
	return perr
}

// probeHashKey times the router's partitioning hash on the workload's keys.
func probeHashKey(p *plan, out map[string]float64) {
	n := min(len(p.keys), 1<<16)
	enc := make([]string, n)
	for i := range enc {
		enc[i] = p.keys[i].EncodeKey()
	}
	var sink uint64
	out["shard.hashkey_ns"], _, _ = perCall(n, func(i int) { sink += shard.HashKey(enc[i]) })
	_ = sink
}

// probeBareEngine replays client 0's warm-up piece — the same inserts,
// batches and fetches — on one unpartitioned engine.DB holding the same
// initial state, and returns the median insert latency in µs: what the
// router's insert would cost with no routing, edge locks or remote probes.
func probeBareEngine(ctx context.Context, p *plan, st *state.DB) (insertUs float64, err error) {
	db, err := engine.Open(p.load)
	if err != nil {
		return 0, err
	}
	if err := db.LoadCtx(ctx, st); err != nil {
		return 0, err
	}
	var d []int64
	for i := range p.streams[0][:p.segOps] {
		o := &p.streams[0][i]
		t0 := time.Now()
		switch o.kind {
		case opInsert:
			err = db.InsertCtx(ctx, p.rels[o.rel], p.tuples[o.arg])
			d = append(d, int64(time.Since(t0)))
		case opBatch:
			err = db.ApplyBatchCtx(ctx, p.batches[o.arg])
		case opFetch:
			_, _, err = db.GetByKeyCtx(ctx, p.rels[o.rel], p.keys[o.key])
		}
		if err != nil {
			return 0, fmt.Errorf("bare-engine probe: op %d: %w", i, err)
		}
	}
	slices.Sort(d)
	return float64(percentile(d, 0.5)) / 1e3, nil
}

// probeCore times the paper's algorithm on the workload's own schema and
// state: Merge (Def. 4.1), RemoveAll (Def. 4.3) and the η state mapping.
func probeCore(p *plan, st *state.DB, out map[string]float64) error {
	t0 := time.Now()
	m, err := core.Merge(p.load, workload.MergeSetFor(p.load, "E0"), "MERGED")
	if err != nil {
		return err
	}
	out["core.merge_s"] = seconds(t0)
	t0 = time.Now()
	m.RemoveAll()
	out["core.removeall_s"] = seconds(t0)
	t0 = time.Now()
	mapped := m.MapState(st)
	out["core.mapstate_s"] = seconds(t0)
	if n := mapped.Relation("MERGED").Len(); n != len(p.initial["E0"]) {
		return fmt.Errorf("core probe: η mapped %d E0 objects to %d merged rows", len(p.initial["E0"]), n)
	}
	return nil
}
