package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/wal"
)

// The protocol v2 binary codec, the one codec of every frame after the
// hello. A frame is a 4-byte big-endian length prefix (bounded by MaxFrame)
// and a compact binary body: one opcode byte, unsigned varints for IDs,
// lengths, and counts, signed varints for integer values, and raw
// little-endian IEEE 754 bits for floats — so NaN payloads and signed zero
// survive bit-exactly. Strings travel as length-prefixed raw bytes.
//
// The encoding is a frozen compatibility contract: wire_golden_test.go pins
// byte-exact vectors for every frame shape, and any change that breaks them
// needs a new protocol version, not an edit. Both request and response
// bodies are strict — trailing bytes after the last field fail the decode
// (and therefore the connection) closed.
//
// Field order is fixed and every field is always present (absent fields
// encode as a zero count or empty string, one byte each), which keeps the
// decoder branch-free and the golden vectors total:
//
//	Request  = opcode u8 | id uvarint | deadline_ms uvarint | version uvarint
//	         | relation string | key tuple | tuple tuple
//	         | ntuples uvarint tuple... | nops uvarint op...
//	op       = kind u8 (insert/delete/update opcode) | relation string
//	         | key tuple | tuple tuple
//	Response = id uvarint | flags u8 | code string | error string
//	         | [version uvarint] | [violation] | [tuple] | [stats]
//	violation= kind u8 | relation string | attr string | constraint string | op string
//	stats    = 9 uvarints (inserts deletes updates lookups declarative_checks
//	           trigger_firings index_lookups tuples_scanned version_lsn)
//	tuple    = count uvarint | value...          (count 0 = absent/nil)
//	string   = len uvarint | raw bytes
//	value    = tag u8 | payload (tag-dependent, see binVal*)

// Binary opcodes, one per protocol operation. Frozen.
const (
	binOpHello       = 0x01
	binOpPing        = 0x02
	binOpInsert      = 0x03
	binOpDelete      = 0x04
	binOpUpdate      = 0x05
	binOpFetch       = 0x06
	binOpInsertBatch = 0x07
	binOpApplyBatch  = 0x08
	binOpBegin       = 0x09
	binOpCommit      = 0x0a
	binOpRollback    = 0x0b
	binOpStats       = 0x0c
	binOpCheckpoint  = 0x0d
	// Replication opcodes, appended in v2 without touching the frozen ones.
	// Their requests carry two extra trailing fields (after_lsn uvarint,
	// max_records uvarint) and their responses may carry the repl section
	// (binFlagRepl); both are invisible to the pre-replication frame shapes,
	// so the golden vectors stand.
	binOpReplSubscribe = 0x0e
	binOpReplFetch     = 0x0f
	binOpReplHeartbeat = 0x10
)

// Binary value tags. Booleans fold their value into the tag. Frozen.
const (
	binValNull   = 0x00
	binValString = 0x01 // uvarint length + raw bytes
	binValInt    = 0x02 // signed (zigzag) varint
	binValFloat  = 0x03 // 8 bytes, little-endian IEEE 754 bits
	binValFalse  = 0x04
	binValTrue   = 0x05
)

// Response flag bits. Frozen.
const (
	binFlagOK        = 1 << 0
	binFlagFound     = 1 << 1
	binFlagTuple     = 1 << 2
	binFlagViolation = 1 << 3
	binFlagStats     = 1 << 4
	binFlagVersion   = 1 << 5
	binFlagRepl      = 1 << 6
)

// opNames names the operation of every binary opcode. Frozen.
var opNames = [...]string{
	binOpHello:         OpHello,
	binOpPing:          OpPing,
	binOpInsert:        OpInsert,
	binOpDelete:        OpDelete,
	binOpUpdate:        OpUpdate,
	binOpFetch:         OpFetch,
	binOpInsertBatch:   OpInsertBatch,
	binOpApplyBatch:    OpApplyBatch,
	binOpBegin:         OpBegin,
	binOpCommit:        OpCommit,
	binOpRollback:      OpRollback,
	binOpStats:         OpStats,
	binOpCheckpoint:    OpCheckpoint,
	binOpReplSubscribe: OpReplSubscribe,
	binOpReplFetch:     OpReplFetch,
	binOpReplHeartbeat: OpReplHeartbeat,
}

// opcodes is opNames inverted.
var opcodes = func() map[string]byte {
	m := make(map[string]byte, len(opNames))
	for oc, op := range opNames {
		if op != "" {
			m[op] = byte(oc)
		}
	}
	return m
}()

func opcodeToOp(b byte) (string, bool) {
	if int(b) >= len(opNames) || opNames[b] == "" {
		return "", false
	}
	return opNames[b], true
}

// batchOpcode is the frozen opcode of a batch op's kind: the opcode of the
// single-row operation it performs.
func batchOpcode(k engine.BatchKind) (byte, bool) {
	switch k {
	case engine.BatchInsert:
		return binOpInsert, true
	case engine.BatchDelete:
		return binOpDelete, true
	case engine.BatchUpdate:
		return binOpUpdate, true
	}
	return 0, false
}

// batchKind inverts batchOpcode.
func batchKind(oc byte) (engine.BatchKind, bool) {
	switch oc {
	case binOpInsert:
		return engine.BatchInsert, true
	case binOpDelete:
		return engine.BatchDelete, true
	case binOpUpdate:
		return engine.BatchUpdate, true
	}
	return 0, false
}

// --- encoding (append into the caller's pooled buffer, no allocation) ---

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendValue encodes one engine value.
func appendValue(dst []byte, v relation.Value) []byte {
	switch v.Kind() {
	case relation.KindString:
		return appendString(append(dst, binValString), v.AsString())
	case relation.KindInt:
		return binary.AppendVarint(append(dst, binValInt), v.AsInt())
	case relation.KindFloat:
		return binary.LittleEndian.AppendUint64(append(dst, binValFloat), math.Float64bits(v.AsFloat()))
	case relation.KindBool:
		if v.AsBool() {
			return append(dst, binValTrue)
		}
		return append(dst, binValFalse)
	}
	return append(dst, binValNull)
}

func appendTuple(dst []byte, t relation.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = appendValue(dst, v)
	}
	return dst
}

// appendRequestBinary encodes one request as a v2 body.
func appendRequestBinary(dst []byte, req *Request) ([]byte, error) {
	oc, ok := opcodes[req.Op]
	if !ok {
		return nil, fmt.Errorf("unknown op %q", req.Op)
	}
	dst = append(dst, oc)
	dst = binary.AppendUvarint(dst, req.ID)
	dst = binary.AppendUvarint(dst, uint64(req.DeadlineMS))
	dst = binary.AppendUvarint(dst, uint64(req.Version))
	dst = appendString(dst, req.Relation)
	dst = appendTuple(dst, req.Key)
	dst = appendTuple(dst, req.Tuple)
	dst = binary.AppendUvarint(dst, uint64(len(req.Tuples)))
	for _, t := range req.Tuples {
		dst = appendTuple(dst, t)
	}
	dst = binary.AppendUvarint(dst, uint64(len(req.Ops)))
	for _, op := range req.Ops {
		kc, ok := batchOpcode(op.Kind)
		if !ok {
			return nil, fmt.Errorf("unknown batch kind %d", op.Kind)
		}
		dst = append(dst, kc)
		dst = appendString(dst, op.Relation)
		dst = appendTuple(dst, op.Key)
		dst = appendTuple(dst, op.Tuple)
	}
	if replOp(req.Op) {
		dst = binary.AppendUvarint(dst, req.AfterLSN)
		dst = binary.AppendUvarint(dst, uint64(req.MaxRecords))
	}
	return dst, nil
}

// appendResponseBinary encodes one response as a v2 body.
func appendResponseBinary(dst []byte, resp *Response) []byte {
	dst = binary.AppendUvarint(dst, resp.ID)
	var flags byte
	if resp.OK {
		flags |= binFlagOK
	}
	if resp.Found {
		flags |= binFlagFound
	}
	if len(resp.Tuple) > 0 {
		flags |= binFlagTuple
	}
	if resp.Violation != nil {
		flags |= binFlagViolation
	}
	if resp.Stats != nil {
		flags |= binFlagStats
	}
	if resp.Version != 0 {
		flags |= binFlagVersion
	}
	if resp.Repl != nil {
		flags |= binFlagRepl
	}
	dst = append(dst, flags)
	dst = appendString(dst, string(resp.Code))
	dst = appendString(dst, resp.Error)
	if flags&binFlagVersion != 0 {
		dst = binary.AppendUvarint(dst, uint64(resp.Version))
	}
	if v := resp.Violation; v != nil {
		dst = append(dst, byte(v.Kind))
		dst = appendString(dst, v.Relation)
		dst = appendString(dst, v.Attr)
		dst = appendString(dst, v.Constraint)
		dst = appendString(dst, v.Op)
	}
	if flags&binFlagTuple != 0 {
		dst = appendTuple(dst, resp.Tuple)
	}
	if s := resp.Stats; s != nil {
		for _, n := range []int{s.Inserts, s.Deletes, s.Updates, s.Lookups,
			s.DeclarativeChecks, s.TriggerFirings, s.IndexLookups, s.TuplesScanned} {
			dst = binary.AppendUvarint(dst, uint64(n))
		}
		dst = binary.AppendUvarint(dst, s.VersionLSN)
	}
	if rp := resp.Repl; rp != nil {
		dst = binary.AppendUvarint(dst, rp.CommitLSN)
		dst = binary.AppendUvarint(dst, rp.SnapshotLSN)
		dst = binary.AppendUvarint(dst, uint64(len(rp.Snapshot)))
		dst = append(dst, rp.Snapshot...)
		dst = binary.AppendUvarint(dst, uint64(len(rp.Records)))
		for _, rec := range rp.Records {
			dst = binary.AppendUvarint(dst, rec.LSN)
			dst = binary.AppendUvarint(dst, uint64(len(rec.Payload)))
			dst = append(dst, rec.Payload...)
		}
	}
	return dst
}

// --- decoding (strict: bounds-checked, no trailing bytes) ---

// binReader walks one v2 body. Every length and count is validated against
// the remaining bytes before any allocation sized from it, so a hostile
// frame can announce, at most, what its own (MaxFrame-bounded) body holds.
// Nothing decoded aliases the body, which is the connection's reused read
// buffer.
type binReader struct {
	b   []byte
	off int

	payload []byte // the last string value's payload, in place in the body
	strs    int    // string payload bytes read since tuple reset it
	name    string // the last relation name read; see relName
}

func (r *binReader) remaining() int { return len(r.b) - r.off }

func (r *binReader) u8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("truncated body at byte %d", r.off)
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *binReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

// count reads a collection count, rejecting any that could not fit in the
// remaining bytes even at one byte per element.
func (r *binReader) count() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()) {
		return 0, fmt.Errorf("count %d exceeds remaining %d bytes", n, r.remaining())
	}
	return int(n), nil
}

// raw reads a length-prefixed byte run in place: the result aliases the body.
func (r *binReader) raw() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, r.remaining())
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *binReader) str() (string, error) {
	b, err := r.raw()
	return string(b), err
}

// relName reads a relation name. A connection addresses few relations, and
// usually the one it named last: that string is returned again instead of a
// fresh copy. Names are kept (the engine remembers what was fetched), so
// they are never sliced from a reused buffer.
func (r *binReader) relName() (string, error) {
	b, err := r.raw()
	if err != nil {
		return "", err
	}
	if string(b) != r.name {
		r.name = string(b)
	}
	return r.name, nil
}

// bytes reads a length-prefixed byte blob into fresh storage. A zero length
// returns nil: the field is absent.
func (r *binReader) bytes() ([]byte, error) {
	b, err := r.raw()
	if err != nil || len(b) == 0 {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// value decodes one value. A string comes back empty, its payload left in
// place in r.payload (and counted in r.strs): tuple copies the payloads out.
func (r *binReader) value() (relation.Value, error) {
	tag, err := r.u8()
	if err != nil {
		return relation.Value{}, err
	}
	switch tag {
	case binValNull:
		return relation.Null(), nil
	case binValString:
		if r.payload, err = r.raw(); err != nil {
			return relation.Value{}, err
		}
		r.strs += len(r.payload)
		return relation.NewString(""), nil
	case binValInt:
		n, err := r.varint()
		if err != nil {
			return relation.Value{}, err
		}
		return relation.NewInt(n), nil
	case binValFloat:
		if r.remaining() < 8 {
			return relation.Value{}, fmt.Errorf("truncated float at byte %d", r.off)
		}
		bits := binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
		return relation.NewFloat(math.Float64frombits(bits)), nil
	case binValFalse:
		return relation.NewBool(false), nil
	case binValTrue:
		return relation.NewBool(true), nil
	}
	return relation.Value{}, fmt.Errorf("unknown value tag 0x%02x", tag)
}

// tuple decodes one tuple; count 0 is an absent tuple (nil). A first pass
// validates the values and sizes their string payloads, so the tuple is
// allocated only for values the body really holds. The second decodes them,
// copying every string payload into one block: a tuple costs at most two
// allocations however many columns it has, and references nothing reused.
// The values go into dst when it has room (the caller's reused storage),
// fresh storage otherwise.
func (r *binReader) tuple(dst relation.Tuple) (relation.Tuple, error) {
	n, err := r.count()
	if err != nil || n == 0 {
		return nil, err
	}
	start := r.off
	r.strs = 0
	for i := 0; i < n; i++ {
		if _, err := r.value(); err != nil {
			return nil, err
		}
	}
	if cap(dst) < n {
		dst = make(relation.Tuple, n)
	}
	dst = dst[:n]
	var block strings.Builder
	block.Grow(r.strs)
	r.off = start
	for i := range dst {
		dst[i], _ = r.value() // validated by the first pass
		if dst[i].Kind() == relation.KindString && len(r.payload) > 0 {
			block.Write(r.payload)
			s := block.String()
			dst[i] = relation.NewString(s[len(s)-len(r.payload):])
		}
	}
	return dst, nil
}

// request decodes one v2 request body into req, overwriting every field;
// key lends storage for a fetch key (see decodeRequest).
func (r *binReader) request(req *Request, key relation.Tuple) error {
	oc, err := r.u8()
	if err != nil {
		return err
	}
	op, ok := opcodeToOp(oc)
	if !ok {
		return fmt.Errorf("unknown opcode 0x%02x", oc)
	}
	*req = Request{Op: op}
	if req.ID, err = r.uvarint(); err != nil {
		return err
	}
	deadline, err := r.uvarint()
	if err != nil {
		return err
	}
	if deadline > math.MaxInt64 {
		return fmt.Errorf("deadline %d overflows", deadline)
	}
	req.DeadlineMS = int64(deadline)
	version, err := r.uvarint()
	if err != nil {
		return err
	}
	if version > math.MaxInt32 {
		return fmt.Errorf("version %d overflows", version)
	}
	req.Version = int(version)
	if req.Relation, err = r.relName(); err != nil {
		return err
	}
	if op != OpFetch {
		key = nil // any other key is handed to a write and kept
	}
	if req.Key, err = r.tuple(key); err != nil {
		return err
	}
	if req.Tuple, err = r.tuple(nil); err != nil {
		return err
	}
	ntuples, err := r.count()
	if err != nil {
		return err
	}
	if ntuples > 0 {
		req.Tuples = make([]relation.Tuple, ntuples)
		for i := range req.Tuples {
			if req.Tuples[i], err = r.tuple(nil); err != nil {
				return err
			}
		}
	}
	nops, err := r.count()
	if err != nil {
		return err
	}
	if nops > 0 {
		req.Ops = make([]engine.BatchOp, nops)
		for i := range req.Ops {
			kc, err := r.u8()
			if err != nil {
				return err
			}
			kind, ok := batchKind(kc)
			if !ok {
				return fmt.Errorf("unknown batch kind opcode 0x%02x", kc)
			}
			req.Ops[i].Kind = kind
			if req.Ops[i].Relation, err = r.relName(); err != nil {
				return err
			}
			if req.Ops[i].Key, err = r.tuple(nil); err != nil {
				return err
			}
			if req.Ops[i].Tuple, err = r.tuple(nil); err != nil {
				return err
			}
		}
	}
	if replOp(req.Op) {
		if req.AfterLSN, err = r.uvarint(); err != nil {
			return err
		}
		maxRecords, err := r.uvarint()
		if err != nil {
			return err
		}
		if maxRecords > math.MaxInt32 {
			return fmt.Errorf("max_records %d overflows", maxRecords)
		}
		req.MaxRecords = int(maxRecords)
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%d trailing bytes after request", r.remaining())
	}
	return nil
}

// response decodes one v2 response body into resp, overwriting every field.
func (r *binReader) response(resp *Response) error {
	*resp = Response{}
	var err error
	if resp.ID, err = r.uvarint(); err != nil {
		return err
	}
	flags, err := r.u8()
	if err != nil {
		return err
	}
	resp.OK = flags&binFlagOK != 0
	resp.Found = flags&binFlagFound != 0
	code, err := r.str()
	if err != nil {
		return err
	}
	resp.Code = Code(code)
	if resp.Error, err = r.str(); err != nil {
		return err
	}
	if flags&binFlagVersion != 0 {
		version, err := r.uvarint()
		if err != nil {
			return err
		}
		if version > math.MaxInt32 {
			return fmt.Errorf("version %d overflows", version)
		}
		resp.Version = int(version)
	}
	if flags&binFlagViolation != 0 {
		v := &engine.ConstraintViolation{}
		kind, err := r.u8()
		if err != nil {
			return err
		}
		v.Kind = engine.ViolationKind(kind)
		if v.Relation, err = r.str(); err != nil {
			return err
		}
		if v.Attr, err = r.str(); err != nil {
			return err
		}
		if v.Constraint, err = r.str(); err != nil {
			return err
		}
		if v.Op, err = r.str(); err != nil {
			return err
		}
		resp.Violation = v
	}
	if flags&binFlagTuple != 0 {
		if resp.Tuple, err = r.tuple(nil); err != nil {
			return err
		}
	}
	if flags&binFlagStats != 0 {
		st := &engine.StatsSnapshot{}
		for _, p := range []*int{&st.Inserts, &st.Deletes, &st.Updates, &st.Lookups,
			&st.DeclarativeChecks, &st.TriggerFirings, &st.IndexLookups, &st.TuplesScanned} {
			n, err := r.uvarint()
			if err != nil {
				return err
			}
			if n > math.MaxInt64 {
				return fmt.Errorf("stat counter %d overflows", n)
			}
			*p = int(n)
		}
		if st.VersionLSN, err = r.uvarint(); err != nil {
			return err
		}
		resp.Stats = st
	}
	if flags&binFlagRepl != 0 {
		rp := &WireRepl{}
		if rp.CommitLSN, err = r.uvarint(); err != nil {
			return err
		}
		if rp.SnapshotLSN, err = r.uvarint(); err != nil {
			return err
		}
		if rp.Snapshot, err = r.bytes(); err != nil {
			return err
		}
		nrecs, err := r.count()
		if err != nil {
			return err
		}
		if nrecs > 0 {
			rp.Records = make([]wal.Record, nrecs)
			for i := range rp.Records {
				if rp.Records[i].LSN, err = r.uvarint(); err != nil {
					return err
				}
				if rp.Records[i].Payload, err = r.bytes(); err != nil {
					return err
				}
			}
		}
		resp.Repl = rp
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%d trailing bytes after response", r.remaining())
	}
	return nil
}
