package server

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
)

var (
	str = relation.NewString
	num = relation.NewInt
)

func floatBits(b uint64) relation.Value { return relation.NewFloat(math.Float64frombits(b)) }

var valueType = reflect.TypeOf(relation.Value{})

// sameWire is reflect.DeepEqual for wire frames, except that engine values
// compare bit-exactly: a NaN equals a NaN with the same payload (to
// DeepEqual, NaN != NaN) and -0 differs from 0.
func sameWire(a, b any) bool { return sameReflect(reflect.ValueOf(a), reflect.ValueOf(b)) }

func sameReflect(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == valueType {
		x, y := a.Interface().(relation.Value), b.Interface().(relation.Value)
		if x.Kind() == relation.KindFloat && y.Kind() == relation.KindFloat {
			return math.Float64bits(x.AsFloat()) == math.Float64bits(y.AsFloat())
		}
		return x.Identical(y)
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
	{"insert all value kinds", &Request{ID: 2, Op: OpInsert, Relation: "R", Tuple: relation.Tuple{
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
		Key: relation.Tuple{str("k1")}, DeadlineMS: 1500},
		"0603dc0b0001520101026b31000000"},
	{"insert_batch", &Request{ID: 4, Op: OpInsertBatch, Relation: "R", Tuples: []relation.Tuple{
		{str("a"), num(1)},
		{str("b"), num(2)},
	}},
		"07040000015200000202010161020202010162020400"},
	{"apply_batch", &Request{ID: 5, Op: OpApplyBatch, Ops: []engine.BatchOp{
		engine.Ins("R", relation.Tuple{str("x")}),
		engine.Del("R", relation.Tuple{str("y")}),
		engine.Upd("R", relation.Tuple{str("z")}, relation.Tuple{num(9)}),
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
		Tuple: relation.Tuple{str("k1"), num(42)}},
		"030700000201026b310254"},
	{"protocol error", &Response{ID: 4, Code: CodeProtocol, Error: "bad frame"},
		"04000870726f746f636f6c09626164206672616d65"},
	{"constraint violation", &Response{ID: 5, Code: CodeConstraint, Error: "null key",
		Violation: &engine.ConstraintViolation{Kind: 2, Relation: "R", Attr: "R.K", Constraint: "NNK", Op: "insert"}},
		"050814636f6e73747261696e745f76696f6c6174696f6e086e756c6c206b657902015203522e4b034e4e4b06696e73657274"},
	{"stats", &Response{ID: 6, OK: true, Stats: &engine.StatsSnapshot{
		Inserts: 3, Deletes: 1, Updates: 2, Lookups: 100, DeclarativeChecks: 7,
		TriggerFirings: 0, IndexLookups: 100, TuplesScanned: 250, VersionLSN: 12}},
		"0611000003010264070064fa010c"},
}

// versionRefusal is the error of the server's answer to a hello offering
// version 1, and versionRefusalJSON that answer's body.
const (
	versionRefusal     = "server: protocol violation: protocol version 1 not supported (server speaks 2)"
	versionRefusalJSON = `{"id":1,"ok":false,"code":"protocol","error":"` + versionRefusal + `","version":2}`
)

// The JSON bodies of the hello exchange, the only JSON on the wire: every v2
// peer sends and expects exactly these bytes. The hello and its reply are
// the JSON spellings of the "hello" and "hello ok" vectors above. The
// encoder's trailing newline is part of the body.
var goldenHello = []struct {
	name string
	v    any
	json string
}{
	{"hello", &helloRequest{ID: 1, Op: OpHello, Version: 2},
		`{"id":1,"op":"hello","version":2}`},
	{"hello ok", &helloReply{ID: 1, OK: true, Version: 2},
		`{"id":1,"ok":true,"version":2}`},
	{"version refused", &helloReply{ID: 1, Code: CodeProtocol, Error: versionRefusal, Version: 2},
		versionRefusalJSON},
}

// TestGoldenJSONVectors pins the hello bodies in both directions.
func TestGoldenJSONVectors(t *testing.T) {
	for _, g := range goldenHello {
		t.Run(g.name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := newFrameEncoder().writeHello(&buf, g.v); err != nil {
				t.Fatal(err)
			}
			if got := buf.String()[4:]; got != g.json+"\n" {
				t.Fatalf("encoding drifted:\n got  %s want %s", got, g.json)
			}
			var dec any
			var err error
			switch g.v.(type) {
			case *helloRequest:
				var h helloRequest
				h, err = decodeHello([]byte(g.json))
				dec = &h
			default:
				var h helloReply
				h, err = decodeHelloReply([]byte(g.json))
				dec = &h
			}
			if err != nil || !reflect.DeepEqual(dec, g.v) {
				t.Fatalf("decode: %+v, %v; want %+v", dec, err, g.v)
			}
		})
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
