// Package server implements the relmerged network service: a length-prefixed
// TCP protocol (JSON v1 or binary v2, negotiated per connection) serving
// engine operations (insert/delete/update/fetch/batch/txn/stats/checkpoint)
// from a bounded worker pool with admission control, per-request deadlines,
// and write coalescing aligned with the WAL's group commit. The matching
// client (with connection pooling and retries for idempotent operations)
// lives in this package too; pkg/relmerge wraps both behind the Session
// interface.
package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/relation"
)

// Protocol versions. The hello handshake is a negotiation: the client offers
// its highest supported version, the server answers min(offered, its own
// maximum), and both sides speak the agreed codec for the rest of the
// connection. The hello exchange itself is always v1 JSON, so any client can
// talk to any server regardless of what they go on to negotiate.
const (
	// ProtoVersion is the v1 JSON codec — the floor every peer supports.
	ProtoVersion = 1
	// ProtoVersionBinary is the v2 binary codec (see binary.go).
	ProtoVersionBinary = 2
	// MaxProtoVersion is the highest version this build speaks.
	MaxProtoVersion = ProtoVersionBinary
)

// DefaultMaxFrame bounds a single frame (4-byte length prefix + JSON body).
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

// knownOp reports whether op is part of the protocol. Unknown operations are
// a protocol violation: the connection fails closed.
func knownOp(op string) bool {
	_, ok := opcodes[op] // every operation has a binary opcode
	return ok
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
// in-flight requests; reusing a live ID is a protocol violation.
type Request struct {
	ID      uint64 `json:"id"`
	Op      string `json:"op"`
	Version int    `json:"version,omitempty"` // hello only

	Relation string      `json:"relation,omitempty"`
	Key      WireTuple   `json:"key,omitempty"`
	Tuple    WireTuple   `json:"tuple,omitempty"`
	Tuples   []WireTuple `json:"tuples,omitempty"` // insert_batch
	Ops      []WireOp    `json:"ops,omitempty"`    // apply_batch

	// DeadlineMS is the client's remaining time budget in milliseconds;
	// zero means no deadline. The server turns it into a deadline on
	// arrival, so a request that expires while queued is answered with
	// CodeDeadline without touching the engine.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Replication fields (repl_subscribe / repl_fetch only): the follower's
	// durable position and the record-count cap for one fetch chunk.
	AfterLSN   uint64 `json:"after_lsn,omitempty"`
	MaxRecords int    `json:"max_records,omitempty"`
}

// WireOp is one operation of an apply_batch request.
type WireOp struct {
	Kind     string    `json:"kind"` // insert | delete | update
	Relation string    `json:"relation"`
	Key      WireTuple `json:"key,omitempty"`
	Tuple    WireTuple `json:"tuple,omitempty"`
}

// Response is one server frame, correlated to its request by ID.
type Response struct {
	ID      uint64 `json:"id"`
	OK      bool   `json:"ok"`
	Code    Code   `json:"code,omitempty"`
	Error   string `json:"error,omitempty"`
	Version int    `json:"version,omitempty"` // hello only

	// Violation carries the full typed constraint violation when Code is
	// CodeConstraint, so clients can reconstruct *engine.ConstraintViolation
	// (which null-constraint regime fired, on which relation/attribute).
	Violation *WireViolation `json:"violation,omitempty"`

	Found bool       `json:"found,omitempty"` // fetch
	Tuple WireTuple  `json:"tuple,omitempty"` // fetch
	Stats *WireStats `json:"stats,omitempty"` // stats
	Repl  *WireRepl  `json:"repl,omitempty"`  // repl_*
}

// WireRepl is the payload of a replication response: the primary's commit
// horizon, a chunk of committed records (repl_fetch), and — when the
// requested position was compacted away — a full snapshot to bootstrap from.
// Byte fields ride v1 JSON as base64 ([]byte marshaling) and v2 binary raw.
type WireRepl struct {
	CommitLSN   uint64       `json:"commit_lsn"`
	Records     []WireRecord `json:"records,omitempty"`
	Snapshot    []byte       `json:"snapshot,omitempty"`
	SnapshotLSN uint64       `json:"snapshot_lsn,omitempty"`
}

// WireRecord is one shipped WAL record: the primary's LSN and the opaque
// record payload (the engine's op encoding, replayed verbatim by the
// follower's log).
type WireRecord struct {
	LSN     uint64 `json:"lsn"`
	Payload []byte `json:"payload"`
}

// WireViolation mirrors engine.ConstraintViolation on the wire.
type WireViolation struct {
	Kind       uint8  `json:"kind"`
	Relation   string `json:"relation,omitempty"`
	Attr       string `json:"attr,omitempty"`
	Constraint string `json:"constraint,omitempty"`
	Op         string `json:"op,omitempty"`
}

// WireStats mirrors engine.StatsSnapshot with stable lowercase field names.
// version_lsn is omitempty for cross-version compatibility: a client reading
// an older server sees zero, an older client ignores the unknown key.
type WireStats struct {
	Inserts           int    `json:"inserts"`
	Deletes           int    `json:"deletes"`
	Updates           int    `json:"updates"`
	Lookups           int    `json:"lookups"`
	DeclarativeChecks int    `json:"declarative_checks"`
	TriggerFirings    int    `json:"trigger_firings"`
	IndexLookups      int    `json:"index_lookups"`
	TuplesScanned     int    `json:"tuples_scanned"`
	VersionLSN        uint64 `json:"version_lsn,omitempty"`
}

func toWireStats(s engine.StatsSnapshot) *WireStats {
	return &WireStats{
		Inserts:           s.Inserts,
		Deletes:           s.Deletes,
		Updates:           s.Updates,
		Lookups:           s.Lookups,
		DeclarativeChecks: s.DeclarativeChecks,
		TriggerFirings:    s.TriggerFirings,
		IndexLookups:      s.IndexLookups,
		TuplesScanned:     s.TuplesScanned,
		VersionLSN:        s.VersionLSN,
	}
}

func fromWireStats(w *WireStats) engine.StatsSnapshot {
	if w == nil {
		return engine.StatsSnapshot{}
	}
	return engine.StatsSnapshot{
		Inserts:           w.Inserts,
		Deletes:           w.Deletes,
		Updates:           w.Updates,
		Lookups:           w.Lookups,
		DeclarativeChecks: w.DeclarativeChecks,
		TriggerFirings:    w.TriggerFirings,
		IndexLookups:      w.IndexLookups,
		TuplesScanned:     w.TuplesScanned,
		VersionLSN:        w.VersionLSN,
	}
}

// WireTuple is a tuple as the wire structs carry it: the engine's own values,
// so converting to and from relation.Tuple costs nothing. The v2 codec
// appends and decodes the values directly; only v1 JSON spells them out, as
// an array of WireValue objects (MarshalJSON / UnmarshalJSON).
type WireTuple []relation.Value

// WireValue is the v1 JSON form of one relation.Value: a kind tag plus a
// string payload. Floats travel as hex-encoded IEEE 754 bits rather than JSON
// numbers so NaN and signed-zero survive the round trip bit-exactly.
type WireValue struct {
	T string `json:"t"`           // n | s | i | f | b
	V string `json:"v,omitempty"` // payload, kind-dependent
}

// EncodeValue converts an engine value to its v1 JSON form.
func EncodeValue(v relation.Value) WireValue {
	switch v.Kind() {
	case relation.KindString:
		return WireValue{T: "s", V: v.AsString()}
	case relation.KindInt:
		return WireValue{T: "i", V: strconv.FormatInt(v.AsInt(), 10)}
	case relation.KindFloat:
		return WireValue{T: "f", V: strconv.FormatUint(math.Float64bits(v.AsFloat()), 16)}
	case relation.KindBool:
		if v.AsBool() {
			return WireValue{T: "b", V: "1"}
		}
		return WireValue{T: "b", V: "0"}
	default:
		return WireValue{T: "n"}
	}
}

// DecodeValue converts a v1 JSON value back to an engine value.
func DecodeValue(w WireValue) (relation.Value, error) {
	switch w.T {
	case "n":
		return relation.Null(), nil
	case "s":
		return relation.NewString(w.V), nil
	case "i":
		n, err := strconv.ParseInt(w.V, 10, 64)
		if err != nil {
			return relation.Value{}, fmt.Errorf("bad int value %q", w.V)
		}
		return relation.NewInt(n), nil
	case "f":
		bits, err := strconv.ParseUint(w.V, 16, 64)
		if err != nil {
			return relation.Value{}, fmt.Errorf("bad float value %q", w.V)
		}
		return relation.NewFloat(math.Float64frombits(bits)), nil
	case "b":
		switch w.V {
		case "1":
			return relation.NewBool(true), nil
		case "0":
			return relation.NewBool(false), nil
		}
		return relation.Value{}, fmt.Errorf("bad bool value %q", w.V)
	default:
		return relation.Value{}, fmt.Errorf("unknown value kind %q", w.T)
	}
}

// MarshalJSON writes the tuple as an array of WireValue objects (null for a
// nil tuple, as a plain slice would be).
func (t WireTuple) MarshalJSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	ws := make([]WireValue, len(t))
	for i, v := range t {
		ws[i] = EncodeValue(v)
	}
	return json.Marshal(ws)
}

// UnmarshalJSON reads an array of WireValue objects. A malformed value fails
// the whole frame, as a malformed v2 value does.
func (t *WireTuple) UnmarshalJSON(b []byte) error {
	var ws []WireValue
	if err := json.Unmarshal(b, &ws); err != nil || ws == nil {
		*t = nil
		return err
	}
	out := make(WireTuple, len(ws))
	for i, w := range ws {
		v, err := DecodeValue(w)
		if err != nil {
			return err
		}
		out[i] = v
	}
	*t = out
	return nil
}

// EncodeTuple is the wire form of a tuple: the same values, not a copy.
func EncodeTuple(t relation.Tuple) WireTuple { return WireTuple(t) }

// DecodeTuple is the engine form of a wire tuple: the same values, not a
// copy. The values were checked when their frame was decoded, so the error
// is always nil.
func DecodeTuple(w WireTuple) (relation.Tuple, error) { return relation.Tuple(w), nil }

// EncodeOps converts batch ops to their wire form.
func EncodeOps(ops []engine.BatchOp) ([]WireOp, error) {
	out := make([]WireOp, len(ops))
	for i, op := range ops {
		var kind string
		switch op.Kind {
		case engine.BatchInsert:
			kind = OpInsert
		case engine.BatchDelete:
			kind = OpDelete
		case engine.BatchUpdate:
			kind = OpUpdate
		default:
			return nil, fmt.Errorf("unknown batch kind %d", op.Kind)
		}
		out[i] = WireOp{Kind: kind, Relation: op.Relation, Key: WireTuple(op.Key), Tuple: WireTuple(op.Tuple)}
	}
	return out, nil
}

// DecodeOps converts wire batch ops back to engine batch ops.
func DecodeOps(ws []WireOp) ([]engine.BatchOp, error) {
	out := make([]engine.BatchOp, len(ws))
	for i, w := range ws {
		var kind engine.BatchKind
		switch w.Kind {
		case OpInsert:
			kind = engine.BatchInsert
		case OpDelete:
			kind = engine.BatchDelete
		case OpUpdate:
			kind = engine.BatchUpdate
		default:
			return nil, fmt.Errorf("unknown batch kind %q", w.Kind)
		}
		out[i] = engine.BatchOp{Kind: kind, Relation: w.Relation, Key: relation.Tuple(w.Key), Tuple: relation.Tuple(w.Tuple)}
	}
	return out, nil
}

// frameEncoder is a reusable frame buffer: the 4-byte length prefix plus the
// encoded body, and a json.Encoder bound to it for the v1 path. Both codecs
// assemble the whole frame here and issue ONE Write, so steady-state serving
// neither allocates a fresh body per frame nor copies it into a second
// framing buffer. Every connection owns one (its sends are serialized);
// WriteFrameVersion borrows one from a pool.
type frameEncoder struct {
	buf []byte
	enc *json.Encoder
}

func newFrameEncoder() *frameEncoder {
	fe := &frameEncoder{buf: make([]byte, 0, 512)}
	fe.enc = json.NewEncoder(fe)
	return fe
}

// Write appends to the frame buffer; it is the json.Encoder's sink.
func (fe *frameEncoder) Write(p []byte) (int, error) {
	fe.buf = append(fe.buf, p...)
	return len(p), nil
}

var framePool = sync.Pool{New: func() any { return newFrameEncoder() }}

// frameKeepCap bounds what a reused frame buffer may retain: a rare huge
// frame should not pin its allocation for the life of a connection or pool.
const frameKeepCap = 64 << 10

// WriteFrame writes one length-prefixed v1 JSON frame: encode into a pooled
// buffer, one Write. Kept as the v1-only entrypoint (the hello handshake and
// pre-negotiation peers).
func WriteFrame(w io.Writer, v any) (int, error) {
	return WriteFrameVersion(w, ProtoVersion, v)
}

// WriteFrameVersion writes one length-prefixed frame in the given protocol
// version's codec. v must be *Request or *Response for the binary codec; the
// JSON codec takes anything marshalable.
func WriteFrameVersion(w io.Writer, version int, v any) (int, error) {
	fe := framePool.Get().(*frameEncoder)
	n, err := fe.write(w, version, v)
	framePool.Put(fe)
	return n, err
}

// write encodes v as one frame into the buffer and writes it with one Write.
func (fe *frameEncoder) write(w io.Writer, version int, v any) (int, error) {
	fe.buf = append(fe.buf[:0], 0, 0, 0, 0)
	var err error
	switch version {
	case ProtoVersion:
		// Encoder appends a trailing newline; it rides inside the frame as
		// JSON whitespace, which every decoder tolerates.
		err = fe.enc.Encode(v)
	case ProtoVersionBinary:
		switch m := v.(type) {
		case *Request:
			fe.buf, err = appendRequestBinary(fe.buf, m)
		case *Response:
			fe.buf = appendResponseBinary(fe.buf, m)
		default:
			err = fmt.Errorf("binary codec cannot encode %T", v)
		}
	default:
		err = fmt.Errorf("unsupported protocol version %d", version)
	}
	if err != nil {
		return 0, err
	}
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

// DecodeRequest parses and validates one v1 JSON request frame.
func DecodeRequest(body []byte) (*Request, error) {
	return DecodeRequestVersion(body, ProtoVersion)
}

// DecodeRequestVersion parses and validates one request frame in the given
// protocol version's codec. Malformed bodies — bad JSON, bad binary, unknown
// ops, malformed values, trailing bytes — are all ErrProtocol: the
// connection fails closed.
func DecodeRequestVersion(body []byte, version int) (*Request, error) {
	req := new(Request)
	if err := decodeRequest(body, version, req, &binReader{}, nil); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeRequest is DecodeRequestVersion into a caller-owned request, which it
// overwrites. r is the connection's v2 decoder (it remembers the last
// relation name); key, when it has room, holds a fetch key, the one tuple
// nobody keeps past its request.
func decodeRequest(body []byte, version int, req *Request, r *binReader, key WireTuple) error {
	switch version {
	case ProtoVersion:
		*req = Request{}
		if err := json.Unmarshal(body, req); err != nil {
			return fmt.Errorf("%w: bad request JSON: %v", ErrProtocol, err)
		}
		if !knownOp(req.Op) {
			return fmt.Errorf("%w: unknown op %q", ErrProtocol, req.Op)
		}
		return nil
	case ProtoVersionBinary:
		r.b, r.off = body, 0
		if err := r.request(req, key); err != nil {
			return fmt.Errorf("%w: bad binary request: %v", ErrProtocol, err)
		}
		return nil
	}
	return fmt.Errorf("%w: unsupported protocol version %d", ErrProtocol, version)
}

// DecodeResponseVersion parses one response frame in the given protocol
// version's codec.
func DecodeResponseVersion(body []byte, version int) (*Response, error) {
	resp := new(Response)
	if err := decodeResponse(body, version, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// decodeResponse is DecodeResponseVersion into a caller-owned response, which
// it overwrites. Everything the response references is freshly allocated, so
// it outlives both the body and the response.
func decodeResponse(body []byte, version int, resp *Response) error {
	switch version {
	case ProtoVersion:
		*resp = Response{}
		if err := json.Unmarshal(body, resp); err != nil {
			return fmt.Errorf("%w: bad response JSON: %v", ErrProtocol, err)
		}
		return nil
	case ProtoVersionBinary:
		r := binReader{b: body}
		if err := r.response(resp); err != nil {
			return fmt.Errorf("%w: bad binary response: %v", ErrProtocol, err)
		}
		return nil
	}
	return fmt.Errorf("%w: unsupported protocol version %d", ErrProtocol, version)
}
