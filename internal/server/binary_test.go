package server

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
)

// FuzzBinaryRoundTrip builds a request and a response from arbitrary engine
// values — nulls, strings of any size, any int, any float bits (NaN payloads,
// signed zero, infinities), both booleans — and requires encode→decode to be
// the identity, bit-exactly.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(uint64(1), "rel", "str", int64(-5), math.NaN(), true, int64(0))
	f.Add(uint64(0), "", "", int64(math.MinInt64), math.Copysign(0, -1), false, int64(1))
	f.Add(uint64(math.MaxUint64), "R", strings.Repeat("x", 1<<16), int64(math.MaxInt64), math.Inf(-1), true, int64(250))
	f.Add(uint64(2), "R", "k", int64(7), math.Float64frombits(0xfff0000000000abc), false, int64(9)) // NaN with a payload
	f.Fuzz(func(t *testing.T, id uint64, rel, s string, i int64, fv float64, b bool, deadline int64) {
		if deadline < 0 {
			deadline = -deadline
		}
		if deadline < 0 { // MinInt64 negates to itself
			deadline = 0
		}
		tuple := relation.Tuple{relation.Null(), str(s), num(i), relation.NewFloat(fv), relation.NewBool(b)}
		req := &Request{
			ID: id, Op: OpUpdate, Relation: rel, DeadlineMS: deadline,
			Key:   relation.Tuple{str(s)},
			Tuple: tuple,
		}
		body, err := appendRequestBinary(nil, req)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := DecodeRequestVersion(body, ProtoVersionBinary)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !sameWire(got, req) {
			t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got, req)
		}
		// Float bits must survive exactly, not just as equal values.
		if math.Float64bits(got.Tuple[3].AsFloat()) != math.Float64bits(fv) {
			t.Fatalf("float bits %016x, want %016x", math.Float64bits(got.Tuple[3].AsFloat()), math.Float64bits(fv))
		}

		resp := &Response{
			ID: id, OK: b, Found: true, Tuple: tuple,
			Code: Code(rel), Error: s,
		}
		rgot, err := DecodeResponseVersion(appendResponseBinary(nil, resp), ProtoVersionBinary)
		if err != nil {
			t.Fatalf("decode response: %v", err)
		}
		if !sameWire(rgot, resp) {
			t.Fatalf("response round trip mismatch:\n got  %+v\n want %+v", rgot, resp)
		}
	})
}

// singleWriteRecorder counts Write calls: the pooled frame path must issue
// exactly one per frame (prefix and body together).
type singleWriteRecorder struct {
	writes int
	buf    bytes.Buffer
}

func (r *singleWriteRecorder) Write(p []byte) (int, error) {
	r.writes++
	return r.buf.Write(p)
}

func TestWriteFrameSingleWrite(t *testing.T) {
	req := &Request{ID: 9, Op: OpInsert, Relation: "R", Tuple: relation.Tuple{str("v")}}
	var rec singleWriteRecorder
	if _, err := WriteFrameVersion(&rec, ProtoVersionBinary, req); err != nil {
		t.Fatal(err)
	}
	if rec.writes != 1 {
		t.Errorf("frame took %d writes, want 1", rec.writes)
	}
	body, err := ReadFrame(&rec.buf, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequestVersion(body, ProtoVersionBinary)
	if err != nil {
		t.Fatal(err)
	}
	if !sameWire(got, req) {
		t.Errorf("frame round trip mismatch: %+v", got)
	}
}

// TestEncodeAllocsSteadyState pins the binary codec's allocations for a
// three-column fetch reply. Encoding appends the engine values straight into
// a warm frame buffer: 0 per frame (2 at the parent, where the tuple was first
// converted to []WireValue and the float spelled as a hex string). Decoding
// into a reused response allocates only what the caller keeps — the tuple and
// one block holding all its strings: 2 per frame (5 at the parent: the
// response, the []WireValue, two payload strings and the relation.Tuple).
func TestEncodeAllocsSteadyState(t *testing.T) {
	row := relation.Tuple{str("k1"), num(42), relation.NewFloat(42)}
	resp := &Response{ID: 3, OK: true, Found: true, Tuple: EncodeTuple(row)}
	fe := newFrameEncoder()
	var sink bytes.Buffer
	encode := testing.AllocsPerRun(200, func() {
		sink.Reset()
		resp.Tuple = EncodeTuple(row)
		if _, err := fe.write(&sink, resp); err != nil {
			t.Fatal(err)
		}
	})
	body := bytes.Clone(sink.Bytes()[4:])
	var got Response
	decode := testing.AllocsPerRun(200, func() {
		if err := decodeResponse(body, &got); err != nil {
			t.Fatal(err)
		}
	})
	if !sameWire(&got, resp) {
		t.Fatalf("decoded %+v, want %+v", got, *resp)
	}
	const encodeBudget, decodeBudget = 0, 2
	if encode > encodeBudget {
		t.Errorf("binary encode allocates %.1f/frame, budget %d", encode, encodeBudget)
	}
	if decode > decodeBudget {
		t.Errorf("binary decode allocates %.1f/frame, budget %d", decode, decodeBudget)
	}
}

// TestBinaryTruncationFailsClosed walks every prefix of a valid body: each
// must produce a decode error, never a panic or a silently short request.
func TestBinaryTruncationFailsClosed(t *testing.T) {
	req := &Request{ID: 5, Op: OpApplyBatch, Ops: []engine.BatchOp{
		engine.Upd("R", relation.Tuple{str("k")}, relation.Tuple{num(7), relation.NewFloat(1)}),
	}}
	body, err := appendRequestBinary(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(body); n++ {
		if _, err := DecodeRequestVersion(body[:n], ProtoVersionBinary); err == nil {
			t.Fatalf("decode accepted a %d/%d-byte truncation", n, len(body))
		}
	}
	// And one past the end: trailing bytes are a protocol violation too.
	if _, err := DecodeRequestVersion(append(append([]byte{}, body...), 0), ProtoVersionBinary); err == nil {
		t.Fatal("decode accepted a trailing byte")
	}
}
