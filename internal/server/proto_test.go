package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{ID: 7, Op: OpInsert, Relation: "R", Tuple: EncodeTuple(relation.Tuple{relation.NewString("k")})}
	if _, err := WriteFrameVersion(&buf, ProtoVersionBinary, req); err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(&buf, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequestVersion(body, ProtoVersionBinary)
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
		body []byte
	}{
		{"truncated body", []byte{binOpInsert, 1}},
		{"trailing bytes", []byte{binOpPing, 1, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"unknown op", []byte{0x7f, 1, 0, 0, 0, 0, 0, 0, 0}},
		{"empty op", []byte{0, 1, 0, 0, 0, 0, 0, 0, 0}},
		{"hello JSON", []byte(`{"id":1,"op":"hello","version":2}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequestVersion(tc.body, ProtoVersionBinary)
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("want ErrProtocol, got %v", err)
			}
		})
	}
}

// FuzzReadFrame feeds arbitrary bytes through the frame reader, the request
// and response decoders, and the hello decoder — the one JSON reader of
// network bytes: each must fail closed (error or valid frame), never panic —
// in particular the binary decoder's counts and lengths must be
// bounds-checked before any allocation sized from them.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	newFrameEncoder().writeHello(&seed, &helloRequest{ID: 1, Op: OpHello, Version: ProtoVersionBinary})
	f.Add(bytes.Clone(seed.Bytes()))
	seed.Reset()
	WriteFrameVersion(&seed, ProtoVersionBinary, &Request{ID: 2, Op: OpInsert, Relation: "R",
		Tuple: relation.Tuple{str("v"), num(7)}})
	f.Add(bytes.Clone(seed.Bytes()))
	seed.Reset()
	WriteFrameVersion(&seed, ProtoVersionBinary, &Request{ID: 3, Op: OpApplyBatch,
		Ops: []engine.BatchOp{engine.Del("R", relation.Tuple{relation.Null()})}})
	f.Add(bytes.Clone(seed.Bytes()))
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
		if req, err := DecodeRequestVersion(body, ProtoVersionBinary); err == nil {
			if !knownRequest(req) {
				t.Fatalf("decoded an invalid request: %+v", req)
			}
		}
		DecodeResponseVersion(body, ProtoVersionBinary)
		if h, err := decodeHello(body); err == nil && h.Op != OpHello {
			t.Fatalf("decoded a hello with op %q", h.Op)
		}
	})
}

// knownRequest reports whether a decoded request names a protocol operation
// and only valid batch kinds.
func knownRequest(req *Request) bool {
	if _, ok := opcodes[req.Op]; !ok {
		return false
	}
	for _, op := range req.Ops {
		if _, ok := batchOpcode(op.Kind); !ok {
			return false
		}
	}
	return true
}
