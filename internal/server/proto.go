// Package server implements the relmerged network service: a length-prefixed
// TCP protocol (a JSON hello, then binary v2 frames) serving engine
// operations (insert/delete/update/fetch/batch/txn/stats/checkpoint) from a
// bounded worker pool with admission control, per-request deadlines, and
// write coalescing aligned with the WAL's group commit. The matching
// client (with connection pooling and retries for idempotent operations)
// lives in this package too; pkg/relmerge wraps both behind the Session
// interface.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/wal"
)

// ProtoVersionBinary is the one protocol version this build speaks: after
// the JSON hello (hello.go), every frame in both directions is a v2 binary
// body (binary.go).
const ProtoVersionBinary = 2

// DefaultMaxFrame bounds a single frame (4-byte length prefix + body).
// Frames announcing a larger body fail the connection closed before any
// allocation proportional to the announced size.
const DefaultMaxFrame = 4 << 20

// Operation names carried in Request.Op.
const (
	OpHello       = "hello"
	OpPing        = "ping"
	OpInsert      = "insert"
	OpDelete      = "delete"
	OpUpdate      = "update"
	OpFetch       = "fetch"
	OpInsertBatch = "insert_batch"
	OpApplyBatch  = "apply_batch"
	OpBegin       = "begin"
	OpCommit      = "commit"
	OpRollback    = "rollback"
	OpStats       = "stats"
	OpCheckpoint  = "checkpoint"

	// Replication ops (v2 additions; see repl.go in internal/repl for the
	// shipping loop). All three are reads against the primary's log: subscribe
	// validates a start position (shipping a snapshot when it was compacted
	// away), fetch returns the next chunk of committed records plus the commit
	// horizon, heartbeat returns the horizon alone.
	OpReplSubscribe = "repl_subscribe"
	OpReplFetch     = "repl_fetch"
	OpReplHeartbeat = "repl_heartbeat"
)

// writeOp reports whether op mutates the database and is therefore a
// candidate for server-side coalescing into one WAL group commit.
func writeOp(op string) bool {
	switch op {
	case OpInsert, OpDelete, OpUpdate, OpInsertBatch, OpApplyBatch:
		return true
	}
	return false
}

// replOp reports whether op is a replication operation; these carry the
// repl-only request fields (AfterLSN, MaxRecords) in the binary codec.
func replOp(op string) bool {
	switch op {
	case OpReplSubscribe, OpReplFetch, OpReplHeartbeat:
		return true
	}
	return false
}

// Request is one client frame. ID must be unique among the connection's
// in-flight requests; reusing a live ID is a protocol violation. The tuples
// and batch ops are the engine's own: the codec reads and writes their
// values directly.
type Request struct {
	ID      uint64
	Op      string
	Version int // hello only; see hello.go

	Relation string
	Key      relation.Tuple
	Tuple    relation.Tuple
	Tuples   []relation.Tuple // insert_batch
	Ops      []engine.BatchOp // apply_batch

	// DeadlineMS is the client's remaining time budget in milliseconds;
	// zero means no deadline. The server turns it into a deadline on
	// arrival, so a request that expires while queued is answered with
	// CodeDeadline without touching the engine.
	DeadlineMS int64

	// Replication fields (repl_subscribe / repl_fetch only): the follower's
	// durable position and the record-count cap for one fetch chunk.
	AfterLSN   uint64
	MaxRecords int
}

// Response is one server frame, correlated to its request by ID.
type Response struct {
	ID      uint64
	OK      bool
	Code    Code
	Error   string
	Version int // hello only

	// Violation carries the full typed constraint violation when Code is
	// CodeConstraint, so the client returns the *engine.ConstraintViolation
	// itself (which null-constraint regime fired, on which relation and
	// attribute).
	Violation *engine.ConstraintViolation

	Found bool                  // fetch
	Tuple relation.Tuple        // fetch
	Stats *engine.StatsSnapshot // stats
	Repl  *WireRepl             // repl_*
}

// WireRepl is the payload of a replication response: the primary's commit
// horizon, a chunk of committed records (repl_fetch), each the primary's LSN
// and the opaque record payload the follower's log replays verbatim, and —
// when the requested position was compacted away — a full snapshot to
// bootstrap from.
type WireRepl struct {
	CommitLSN   uint64
	Records     []wal.Record
	Snapshot    []byte
	SnapshotLSN uint64
}

// EncodeTuple is the wire form of a tuple: the tuple itself, as the wire
// structs carry engine tuples.
func EncodeTuple(t relation.Tuple) relation.Tuple { return t }

// DecodeTuple returns t; its values were checked when their frame was
// decoded, so the error is always nil.
func DecodeTuple(t relation.Tuple) (relation.Tuple, error) { return t, nil }

// frameEncoder is a reusable frame buffer: the 4-byte length prefix plus the
// encoded body, assembled in place and written with ONE Write, so
// steady-state serving neither allocates a fresh body per frame nor copies
// it into a second framing buffer. Every connection owns one (its sends are
// serialized); WriteFrameVersion borrows one from a pool.
type frameEncoder struct {
	buf []byte
}

func newFrameEncoder() *frameEncoder { return &frameEncoder{buf: make([]byte, 0, 512)} }

var framePool = sync.Pool{New: func() any { return newFrameEncoder() }}

// frameKeepCap bounds what a reused frame buffer may retain: a rare huge
// frame should not pin its allocation for the life of a connection or pool.
const frameKeepCap = 64 << 10

// WriteFrameVersion writes one length-prefixed v2 frame; v must be *Request
// or *Response. The version parameter predates the single codec and must be
// ProtoVersionBinary.
func WriteFrameVersion(w io.Writer, version int, v any) (int, error) {
	if version != ProtoVersionBinary {
		return 0, fmt.Errorf("unsupported protocol version %d", version)
	}
	fe := framePool.Get().(*frameEncoder)
	n, err := fe.write(w, v)
	framePool.Put(fe)
	return n, err
}

// write encodes v as one v2 frame into the buffer and writes it with one
// Write.
func (fe *frameEncoder) write(w io.Writer, v any) (int, error) {
	fe.buf = append(fe.buf[:0], 0, 0, 0, 0)
	var err error
	switch m := v.(type) {
	case *Request:
		fe.buf, err = appendRequestBinary(fe.buf, m)
	case *Response:
		fe.buf = appendResponseBinary(fe.buf, m)
	default:
		err = fmt.Errorf("binary codec cannot encode %T", v)
	}
	if err != nil {
		return 0, err
	}
	return fe.flush(w)
}

// flush fills in the length prefix of the frame in the buffer and writes it.
func (fe *frameEncoder) flush(w io.Writer) (int, error) {
	binary.BigEndian.PutUint32(fe.buf, uint32(len(fe.buf)-4))
	n, err := w.Write(fe.buf)
	if cap(fe.buf) > frameKeepCap {
		fe.buf = nil
	}
	return n, err
}

// ReadFrame reads one length-prefixed frame body of at most maxFrame bytes.
// An announced length of zero or beyond the limit is a protocol violation
// (returned before reading — and before allocating — the body). io.EOF is
// returned unwrapped on a clean close before the prefix.
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	return ReadFrameInto(r, maxFrame, nil)
}

// ReadFrameInto is ReadFrame with a reusable buffer: when buf's capacity
// covers the announced length the body is read into it and the returned
// slice aliases buf. Connections keep one scratch buffer and pass it here,
// so steady-state reads allocate nothing (the length prefix is read into buf
// too: a local array would escape through the io.Reader).
func ReadFrameInto(r io.Reader, maxFrame int, buf []byte) ([]byte, error) {
	var prefix []byte
	if cap(buf) >= 4 {
		prefix = buf[:4]
	} else {
		prefix = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, prefix); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("reading frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(prefix)
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", ErrProtocol)
	}
	if int64(n) > int64(maxFrame) {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrProtocol, n, maxFrame)
	}
	var body []byte
	if uint64(cap(buf)) >= uint64(n) {
		body = buf[:n]
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("reading frame body: %w", err)
	}
	return body, nil
}

// keepReadBuf applies frameKeepCap to a connection's read buffer: the buffer
// a frame was read into is kept for the next frame unless the frame was
// large, so one big frame (a snapshot reply, a large insert_batch) does not
// pin its allocation for the connection's life.
func keepReadBuf(body []byte) []byte {
	if cap(body) > frameKeepCap {
		return nil
	}
	return body
}

// DecodeRequestVersion parses and validates one v2 request frame. Malformed
// bodies — bad binary, unknown ops, malformed values, trailing bytes — are
// all ErrProtocol: the connection fails closed. The version parameter
// predates the single codec and must be ProtoVersionBinary.
func DecodeRequestVersion(body []byte, version int) (*Request, error) {
	if version != ProtoVersionBinary {
		return nil, fmt.Errorf("%w: unsupported protocol version %d", ErrProtocol, version)
	}
	req := new(Request)
	if err := decodeRequest(body, req, &binReader{}, nil); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeRequest is DecodeRequestVersion into a caller-owned request, which it
// overwrites. r is the connection's decoder (it remembers the last relation
// name); key, when it has room, holds a fetch key, the one tuple nobody
// keeps past its request.
func decodeRequest(body []byte, req *Request, r *binReader, key relation.Tuple) error {
	r.b, r.off = body, 0
	if err := r.request(req, key); err != nil {
		return fmt.Errorf("%w: bad binary request: %v", ErrProtocol, err)
	}
	return nil
}

// DecodeResponseVersion parses one v2 response frame. The version parameter
// predates the single codec and must be ProtoVersionBinary.
func DecodeResponseVersion(body []byte, version int) (*Response, error) {
	if version != ProtoVersionBinary {
		return nil, fmt.Errorf("%w: unsupported protocol version %d", ErrProtocol, version)
	}
	resp := new(Response)
	if err := decodeResponse(body, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// decodeResponse is DecodeResponseVersion into a caller-owned response, which
// it overwrites. Everything the response references is freshly allocated, so
// it outlives both the body and the response.
func decodeResponse(body []byte, resp *Response) error {
	r := binReader{b: body}
	if err := r.response(resp); err != nil {
		return fmt.Errorf("%w: bad binary response: %v", ErrProtocol, err)
	}
	return nil
}
