package main

import (
	"context"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/server"
)

// The traced run records spans only from this package: around each op of
// the loop, around each Session call (layer relmerge), and around each call
// into the server.Backend the engine or router is handed over as (layer
// backend). With one client the spans of an op nest by time, so a span's
// parent is the innermost earlier span that still covers it.
const (
	layerOp uint8 = iota
	layerRelmerge
	layerBackend
	numLayers
)

var layerNames = [numLayers]string{"op", "relmerge", "backend"}

type span struct {
	Layer uint8 `json:"layer"`
	Kind  uint8 `json:"kind"` // an opKind
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer is a preallocated span buffer. Recording is one atomic add and one
// store; a full buffer drops further spans and counts them.
type tracer struct {
	base    time.Time
	on      atomic.Bool
	n       atomic.Int64
	dropped atomic.Int64
	buf     []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), buf: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin returns the start stamp of a span, or -1 while tracing is off; end
// records the span unless begin said off. The pair costs one atomic load
// when tracing is off.
func (t *tracer) begin() int64 {
	if !t.on.Load() {
		return -1
	}
	return t.now()
}

func (t *tracer) end(layer uint8, kind opKind, start int64) {
	if start >= 0 {
		t.add(layer, kind, start, t.now())
	}
}

func (t *tracer) add(layer uint8, kind opKind, start, end int64) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[i] = span{Layer: layer, Kind: uint8(kind), Start: start, End: end}
}

func (t *tracer) spans() []span {
	n := t.n.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	return t.buf[:n]
}

// selfTimes orders spans by start (outer layers first on a tie) and returns,
// in that order, each span's duration minus the part its children cover.
func selfTimes(spans []span) (ordered []span, self []int64) {
	ordered = append([]span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		return ordered[i].Layer < ordered[j].Layer
	})
	self = make([]int64, len(ordered))
	var stack []int // indexes of the spans still open, outermost first
	for i, s := range ordered {
		for len(stack) > 0 && ordered[stack[len(stack)-1]].End <= s.Start {
			stack = stack[:len(stack)-1]
		}
		self[i] = s.End - s.Start
		if len(stack) > 0 {
			parent := stack[len(stack)-1]
			if ordered[parent].Layer < s.Layer && s.End <= ordered[parent].End {
				self[parent] -= s.End - s.Start
			}
		}
		stack = append(stack, i)
	}
	return ordered, self
}

// target is the part of relmerge.Session the op loop drives.
type target interface {
	InsertCtx(ctx context.Context, relName string, tup relation.Tuple) error
	DeleteCtx(ctx context.Context, relName string, key relation.Tuple) error
	UpdateCtx(ctx context.Context, relName string, key, tup relation.Tuple) error
	FetchCtx(ctx context.Context, relName string, key relation.Tuple) (relation.Tuple, bool, error)
	ApplyBatchCtx(ctx context.Context, ops []engine.BatchOp) error
}

// tracedTarget is the Session decorator: one relmerge span per call.
type tracedTarget struct {
	inner target
	tr    *tracer
}

func (t tracedTarget) InsertCtx(ctx context.Context, rel string, tup relation.Tuple) error {
	start := t.tr.begin()
	err := t.inner.InsertCtx(ctx, rel, tup)
	t.tr.end(layerRelmerge, opInsert, start)
	return err
}

func (t tracedTarget) DeleteCtx(ctx context.Context, rel string, key relation.Tuple) error {
	start := t.tr.begin()
	err := t.inner.DeleteCtx(ctx, rel, key)
	t.tr.end(layerRelmerge, opDelete, start)
	return err
}

func (t tracedTarget) UpdateCtx(ctx context.Context, rel string, key, tup relation.Tuple) error {
	start := t.tr.begin()
	err := t.inner.UpdateCtx(ctx, rel, key, tup)
	t.tr.end(layerRelmerge, opUpdate, start)
	return err
}

func (t tracedTarget) FetchCtx(ctx context.Context, rel string, key relation.Tuple) (relation.Tuple, bool, error) {
	start := t.tr.begin()
	tup, ok, err := t.inner.FetchCtx(ctx, rel, key)
	t.tr.end(layerRelmerge, opFetch, start)
	return tup, ok, err
}

func (t tracedTarget) ApplyBatchCtx(ctx context.Context, ops []engine.BatchOp) error {
	start := t.tr.begin()
	err := t.inner.ApplyBatchCtx(ctx, ops)
	t.tr.end(layerRelmerge, opBatch, start)
	return err
}

// tracedBackend is the server.Backend decorator: it is wrapped around the
// engine (or router) before server.New receives it, so a backend span is the
// time spent below the serving layer. The server coalesces queued single
// writes into ApplyBatchCtx, so a remote insert can surface here as a batch.
type tracedBackend struct {
	server.Backend
	tr *tracer
}

func (b tracedBackend) InsertCtx(ctx context.Context, rel string, tup relation.Tuple) error {
	start := b.tr.begin()
	err := b.Backend.InsertCtx(ctx, rel, tup)
	b.tr.end(layerBackend, opInsert, start)
	return err
}

func (b tracedBackend) DeleteCtx(ctx context.Context, rel string, key relation.Tuple) error {
	start := b.tr.begin()
	err := b.Backend.DeleteCtx(ctx, rel, key)
	b.tr.end(layerBackend, opDelete, start)
	return err
}

func (b tracedBackend) UpdateCtx(ctx context.Context, rel string, key, tup relation.Tuple) error {
	start := b.tr.begin()
	err := b.Backend.UpdateCtx(ctx, rel, key, tup)
	b.tr.end(layerBackend, opUpdate, start)
	return err
}

func (b tracedBackend) GetByKeyCtx(ctx context.Context, rel string, key relation.Tuple) (relation.Tuple, bool, error) {
	start := b.tr.begin()
	tup, ok, err := b.Backend.GetByKeyCtx(ctx, rel, key)
	b.tr.end(layerBackend, opFetch, start)
	return tup, ok, err
}

func (b tracedBackend) ApplyBatchCtx(ctx context.Context, ops []engine.BatchOp) error {
	start := b.tr.begin()
	err := b.Backend.ApplyBatchCtx(ctx, ops)
	b.tr.end(layerBackend, opBatch, start)
	return err
}

// backendTarget lets the op loop drive a server.Backend directly. The traced
// embedded and sharded runs use it in place of EmbeddedSession and
// ShardedSession — both pure delegation — because those take the concrete
// engine and so leave no seam to put the backend decorator in.
type backendTarget struct{ server.Backend }

func (b backendTarget) FetchCtx(ctx context.Context, rel string, key relation.Tuple) (relation.Tuple, bool, error) {
	return b.GetByKeyCtx(ctx, rel, key)
}

// spanStats summarizes one (layer, kind) group of the trace.
type spanStats struct {
	Layer     string  `json:"layer"`
	Kind      string  `json:"kind"`
	Count     int     `json:"count"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
	SelfP50us float64 `json:"self_p50_us"`
}

func groupSpans(spans []span) map[[2]uint8]spanStats {
	ordered, self := selfTimes(spans)
	durs := map[[2]uint8][]int64{}
	selfs := map[[2]uint8][]int64{}
	for i, s := range ordered {
		k := [2]uint8{s.Layer, s.Kind}
		durs[k] = append(durs[k], s.End-s.Start)
		selfs[k] = append(selfs[k], self[i])
	}
	out := map[[2]uint8]spanStats{}
	for k, d := range durs {
		slices.Sort(d)
		sf := selfs[k]
		slices.Sort(sf)
		out[k] = spanStats{
			Layer: layerNames[k[0]], Kind: kindNames[k[1]], Count: len(d),
			P50us:     float64(percentile(d, 0.50)) / 1e3,
			P99us:     float64(percentile(d, 0.99)) / 1e3,
			SelfP50us: float64(percentile(sf, 0.50)) / 1e3,
		}
	}
	return out
}
