package server

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"repro/internal/relation"
)

var (
	str = relation.NewString
	num = relation.NewInt
)

func floatBits(b uint64) relation.Value { return relation.NewFloat(math.Float64frombits(b)) }

var valueType = reflect.TypeOf(relation.Value{})

// sameWire is reflect.DeepEqual for wire frames, except that engine values
// compare through their v1 spelling, bit-exactly: a NaN equals a NaN with the
// same payload (to DeepEqual, NaN != NaN) and -0 differs from 0.
func sameWire(a, b any) bool { return sameReflect(reflect.ValueOf(a), reflect.ValueOf(b)) }

func sameReflect(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == valueType {
		return EncodeValue(a.Interface().(relation.Value)) == EncodeValue(b.Interface().(relation.Value))
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameReflect(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameReflect(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameReflect(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// The binary v2 encoding is a frozen compatibility contract (like the shard
// hash vectors): these byte-exact vectors pin every frame shape. A failure
// here means the wire format changed — that needs a new protocol version,
// not an updated vector.

var goldenRequests = []struct {
	name string
	req  *Request
	hex  string
}{
	{"hello", &Request{ID: 1, Op: OpHello, Version: 2},
		"010100020000000000"},
	{"ping", &Request{ID: 7, Op: OpPing},
		"020700000000000000"},
	{"insert all value kinds", &Request{ID: 2, Op: OpInsert, Relation: "R", Tuple: WireTuple{
		relation.Null(),
		str("héllo"),
		num(-5),
		floatBits(0x7ff8000000000001), // NaN with a payload bit
		floatBits(0x8000000000000000), // -0.0
		relation.NewBool(true),
		relation.NewBool(false),
	}},
		"030200000152000700010668c3a96c6c6f020903010000000000f87f03000000000000008005040000"},
	{"fetch with deadline", &Request{ID: 3, Op: OpFetch, Relation: "R",
		Key: WireTuple{str("k1")}, DeadlineMS: 1500},
		"0603dc0b0001520101026b31000000"},
	{"insert_batch", &Request{ID: 4, Op: OpInsertBatch, Relation: "R", Tuples: []WireTuple{
		{str("a"), num(1)},
		{str("b"), num(2)},
	}},
		"07040000015200000202010161020202010162020400"},
	{"apply_batch", &Request{ID: 5, Op: OpApplyBatch, Ops: []WireOp{
		{Kind: OpInsert, Relation: "R", Tuple: WireTuple{str("x")}},
		{Kind: OpDelete, Relation: "R", Key: WireTuple{str("y")}},
		{Kind: OpUpdate, Relation: "R", Key: WireTuple{str("z")}, Tuple: WireTuple{num(9)}},
	}},
		"080500000000000003030152000101017804015201010179000501520101017a010212"},
}

var goldenResponses = []struct {
	name string
	resp *Response
	hex  string
}{
	{"hello ok", &Response{ID: 1, OK: true, Version: 2},
		"0121000002"},
	{"bare ok", &Response{ID: 2, OK: true},
		"02010000"},
	{"fetch hit", &Response{ID: 3, OK: true, Found: true,
		Tuple: WireTuple{str("k1"), num(42)}},
		"030700000201026b310254"},
	{"protocol error", &Response{ID: 4, Code: CodeProtocol, Error: "bad frame"},
		"04000870726f746f636f6c09626164206672616d65"},
	{"constraint violation", &Response{ID: 5, Code: CodeConstraint, Error: "null key",
		Violation: &WireViolation{Kind: 2, Relation: "R", Attr: "R.K", Constraint: "NNK", Op: "insert"}},
		"050814636f6e73747261696e745f76696f6c6174696f6e086e756c6c206b657902015203522e4b034e4e4b06696e73657274"},
	{"stats", &Response{ID: 6, OK: true, Stats: &WireStats{
		Inserts: 3, Deletes: 1, Updates: 2, Lookups: 100, DeclarativeChecks: 7,
		TriggerFirings: 0, IndexLookups: 100, TuplesScanned: 250, VersionLSN: 12}},
		"0611000003010264070064fa010c"},
}

// The v1 JSON bodies of the same frames, keyed by vector name. Every peer
// speaks v1 for the hello, so its bytes are pinned as well. The encoder's
// trailing newline is part of the body.
var goldenJSON = map[string]string{
	"hello":                  `{"id":1,"op":"hello","version":2}`,
	"ping":                   `{"id":7,"op":"ping"}`,
	"insert all value kinds": `{"id":2,"op":"insert","relation":"R","tuple":[{"t":"n"},{"t":"s","v":"héllo"},{"t":"i","v":"-5"},{"t":"f","v":"7ff8000000000001"},{"t":"f","v":"8000000000000000"},{"t":"b","v":"1"},{"t":"b","v":"0"}]}`,
	"fetch with deadline":    `{"id":3,"op":"fetch","relation":"R","key":[{"t":"s","v":"k1"}],"deadline_ms":1500}`,
	"insert_batch":           `{"id":4,"op":"insert_batch","relation":"R","tuples":[[{"t":"s","v":"a"},{"t":"i","v":"1"}],[{"t":"s","v":"b"},{"t":"i","v":"2"}]]}`,
	"apply_batch":            `{"id":5,"op":"apply_batch","ops":[{"kind":"insert","relation":"R","tuple":[{"t":"s","v":"x"}]},{"kind":"delete","relation":"R","key":[{"t":"s","v":"y"}]},{"kind":"update","relation":"R","key":[{"t":"s","v":"z"}],"tuple":[{"t":"i","v":"9"}]}]}`,

	"hello ok":             `{"id":1,"ok":true,"version":2}`,
	"bare ok":              `{"id":2,"ok":true}`,
	"fetch hit":            `{"id":3,"ok":true,"found":true,"tuple":[{"t":"s","v":"k1"},{"t":"i","v":"42"}]}`,
	"protocol error":       `{"id":4,"ok":false,"code":"protocol","error":"bad frame"}`,
	"constraint violation": `{"id":5,"ok":false,"code":"constraint_violation","error":"null key","violation":{"kind":2,"relation":"R","attr":"R.K","constraint":"NNK","op":"insert"}}`,
	"stats":                `{"id":6,"ok":true,"stats":{"inserts":3,"deletes":1,"updates":2,"lookups":100,"declarative_checks":7,"trigger_firings":0,"index_lookups":100,"tuples_scanned":250,"version_lsn":12}}`,
}

// TestGoldenJSONVectors pins the v1 body of every frame shape the binary
// vectors pin.
func TestGoldenJSONVectors(t *testing.T) {
	check := func(t *testing.T, name string, v any) {
		want, ok := goldenJSON[name]
		if !ok {
			t.Fatalf("no JSON vector for %q", name)
		}
		var buf bytes.Buffer
		if _, err := WriteFrameVersion(&buf, ProtoVersion, v); err != nil {
			t.Fatal(err)
		}
		if got := buf.String()[4:]; got != want+"\n" {
			t.Fatalf("encoding drifted:\n got  %s want %s", got, want)
		}
	}
	for _, g := range goldenRequests {
		t.Run(g.name, func(t *testing.T) { check(t, g.name, g.req) })
	}
	for _, g := range goldenResponses {
		t.Run(g.name, func(t *testing.T) { check(t, g.name, g.resp) })
	}
}

func TestGoldenRequestVectors(t *testing.T) {
	for _, g := range goldenRequests {
		t.Run(g.name, func(t *testing.T) {
			want, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendRequestBinary(nil, g.req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("encoding drifted:\n got  %x\n want %x", got, want)
			}
			dec, err := DecodeRequestVersion(want, ProtoVersionBinary)
			if err != nil {
				t.Fatal(err)
			}
			if !sameWire(dec, g.req) {
				t.Fatalf("decode mismatch:\n got  %+v\n want %+v", dec, g.req)
			}
		})
	}
}

func TestGoldenResponseVectors(t *testing.T) {
	for _, g := range goldenResponses {
		t.Run(g.name, func(t *testing.T) {
			want, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatal(err)
			}
			got := appendResponseBinary(nil, g.resp)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("encoding drifted:\n got  %x\n want %x", got, want)
			}
			dec, err := DecodeResponseVersion(want, ProtoVersionBinary)
			if err != nil {
				t.Fatal(err)
			}
			if !sameWire(dec, g.resp) {
				t.Fatalf("decode mismatch:\n got  %+v\n want %+v", dec, g.resp)
			}
		})
	}
}

// TestGoldenFramesAcrossCodecs decodes every golden frame under both codecs:
// the v2 bytes and the v1 JSON body must each give back the frame the vector
// was built from.
func TestGoldenFramesAcrossCodecs(t *testing.T) {
	for _, g := range goldenRequests {
		t.Run(g.name, func(t *testing.T) {
			bin, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatal(err)
			}
			fromBin, err := DecodeRequestVersion(bin, ProtoVersionBinary)
			if err != nil {
				t.Fatal(err)
			}
			fromJSON, err := DecodeRequestVersion([]byte(goldenJSON[g.name]), ProtoVersion)
			if err != nil {
				t.Fatal(err)
			}
			if !sameWire(fromBin, g.req) || !sameWire(fromJSON, g.req) {
				t.Fatalf("codecs disagree:\n binary %+v\n json   %+v\n want   %+v", fromBin, fromJSON, g.req)
			}
		})
	}
	for _, g := range goldenResponses {
		t.Run(g.name, func(t *testing.T) {
			bin, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatal(err)
			}
			fromBin, err := DecodeResponseVersion(bin, ProtoVersionBinary)
			if err != nil {
				t.Fatal(err)
			}
			fromJSON, err := DecodeResponseVersion([]byte(goldenJSON[g.name]), ProtoVersion)
			if err != nil {
				t.Fatal(err)
			}
			if !sameWire(fromBin, g.resp) || !sameWire(fromJSON, g.resp) {
				t.Fatalf("codecs disagree:\n binary %+v\n json   %+v\n want   %+v", fromBin, fromJSON, g.resp)
			}
		})
	}
}
