package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/relation"
)

func TestWireValueRoundTrip(t *testing.T) {
	values := []relation.Value{
		relation.Null(),
		relation.NewString(""),
		relation.NewString("hello"),
		relation.NewString("näïve\x00bytes"),
		relation.NewInt(0),
		relation.NewInt(-42),
		relation.NewInt(math.MaxInt64),
		relation.NewFloat(0),
		relation.NewFloat(math.Copysign(0, -1)),
		relation.NewFloat(3.5),
		relation.NewFloat(math.NaN()),
		relation.NewFloat(math.Inf(1)),
		relation.NewBool(true),
		relation.NewBool(false),
	}
	for _, v := range values {
		got, err := DecodeValue(EncodeValue(v))
		if err != nil {
			t.Fatalf("DecodeValue(EncodeValue(%v)): %v", v, err)
		}
		if got.Kind() != v.Kind() {
			t.Fatalf("round trip of %v changed kind: %v", v, got.Kind())
		}
		// NaN != NaN, so compare float bits, not values; nulls compare
		// unequal to everything (SQL semantics), so the kind check above is
		// the whole comparison for them.
		if v.Kind() == relation.KindFloat {
			if math.Float64bits(got.AsFloat()) != math.Float64bits(v.AsFloat()) {
				t.Fatalf("float bits changed: %x != %x", math.Float64bits(got.AsFloat()), math.Float64bits(v.AsFloat()))
			}
		} else if !v.IsNull() && !got.Equal(v) {
			t.Fatalf("round trip changed %v to %v", v, got)
		}
	}
}

func TestDecodeValueRejectsMalformed(t *testing.T) {
	bad := []WireValue{
		{T: "i", V: "not-a-number"},
		{T: "f", V: "zz"},
		{T: "b", V: "2"},
		{T: "x", V: "?"},
	}
	for _, w := range bad {
		if _, err := DecodeValue(w); err == nil {
			t.Errorf("DecodeValue(%+v) accepted malformed input", w)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{ID: 7, Op: OpInsert, Relation: "R", Tuple: EncodeTuple(relation.Tuple{relation.NewString("k")})}
	if _, err := WriteFrame(&buf, req); err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(&buf, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || got.Op != OpInsert || got.Relation != "R" || len(got.Tuple) != 1 {
		t.Fatalf("round trip mangled the request: %+v", got)
	}
}

func TestReadFrameFailsClosed(t *testing.T) {
	prefix := func(n uint32) []byte {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], n)
		return b[:]
	}
	t.Run("zero length", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader(prefix(0)), 64)
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("want ErrProtocol, got %v", err)
		}
	})
	t.Run("oversized", func(t *testing.T) {
		// The limit check must fire before the body is read or allocated:
		// no body bytes follow the prefix, yet the error is ErrProtocol,
		// not an io error from a short read.
		_, err := ReadFrame(bytes.NewReader(prefix(1<<31)), 64)
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("want ErrProtocol, got %v", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader(append(prefix(10), 'x')), 64)
		if err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("truncated body must be an error distinct from clean EOF, got %v", err)
		}
	})
	t.Run("clean close", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader(nil), 64); err != io.EOF {
			t.Fatalf("clean close must be unwrapped io.EOF, got %v", err)
		}
	})
	t.Run("truncated prefix", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader(prefix(4)[:2]), 64)
		if err == nil || err == io.EOF {
			t.Fatalf("mid-prefix close must be an error distinct from clean EOF, got %v", err)
		}
	})
}

func TestDecodeRequestFailsClosed(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"bad JSON", `{"id":1,`},
		{"not an object", `[1,2,3]`},
		{"unknown op", `{"id":1,"op":"drop_table"}`},
		{"empty op", `{"id":1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest([]byte(tc.body))
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("want ErrProtocol, got %v", err)
			}
		})
	}
}

// FuzzReadFrame feeds arbitrary bytes through the frame reader and both
// request and response decoders: they must fail closed (error or valid
// frame), never panic — in particular the binary decoder's counts and
// lengths must be bounds-checked before any allocation sized from them.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, &Request{ID: 1, Op: OpPing})
	f.Add(seed.Bytes())
	seed.Reset()
	WriteFrameVersion(&seed, ProtoVersionBinary, &Request{ID: 2, Op: OpInsert, Relation: "R",
		Tuple: WireTuple{str("v"), num(7)}})
	f.Add(seed.Bytes())
	seed.Reset()
	WriteFrameVersion(&seed, ProtoVersionBinary, &Request{ID: 3, Op: OpApplyBatch,
		Ops: []WireOp{{Kind: OpDelete, Relation: "R", Key: WireTuple{relation.Null()}}}})
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add([]byte(`{"id":1,"op":"insert"}`))
	// A binary body announcing a huge tuple count with no bytes behind it.
	f.Add([]byte{0, 0, 0, 12, binOpInsert, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := ReadFrame(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		for _, version := range []int{ProtoVersion, ProtoVersionBinary} {
			if req, err := DecodeRequestVersion(body, version); err == nil {
				// A valid request's batch ops must still lower without
				// panicking, whatever their kinds.
				DecodeOps(req.Ops)
			}
			DecodeResponseVersion(body, version)
		}
	})
}
