package server

import (
	"encoding/json"
	"fmt"
	"io"
)

// The hello is the first exchange of every connection and the only JSON on
// the wire: the client's hello offers a protocol version, the server answers
// it, and every later frame in both directions is v2 binary. Its bodies are
// the JSON spellings of the hello Request and Response that v2 peers have
// always sent, byte for byte, so any v2 peer connects. The server answers
// an offer of 2 or more with 2 and refuses a lower one; every reply it sends
// before a successful hello has the helloReply shape.

// helloRequest is the client's hello.
type helloRequest struct {
	ID      uint64 `json:"id"`
	Op      string `json:"op"`
	Version int    `json:"version,omitempty"`
}

// helloReply is the server's answer to it, or its refusal. It always names
// the version the server speaks.
type helloReply struct {
	ID      uint64 `json:"id"`
	OK      bool   `json:"ok"`
	Code    Code   `json:"code,omitempty"`
	Error   string `json:"error,omitempty"`
	Version int    `json:"version,omitempty"`
}

// decodeHello parses the first frame of a connection. Anything but a JSON
// hello is ErrProtocol.
func decodeHello(body []byte) (helloRequest, error) {
	var h helloRequest
	if err := json.Unmarshal(body, &h); err != nil {
		return helloRequest{}, fmt.Errorf("%w: bad hello: %v", ErrProtocol, err)
	}
	if h.Op != OpHello {
		return helloRequest{}, fmt.Errorf("%w: first frame must be hello, got %q", ErrProtocol, h.Op)
	}
	return h, nil
}

// decodeHelloReply parses the server's answer to a hello.
func decodeHelloReply(body []byte) (helloReply, error) {
	var h helloReply
	if err := json.Unmarshal(body, &h); err != nil {
		return helloReply{}, fmt.Errorf("%w: bad hello reply: %v", ErrProtocol, err)
	}
	return h, nil
}

// writeHello writes one hello frame (a helloRequest or helloReply) through
// fe. The body ends in a newline, as the JSON encoder has always written it.
func (fe *frameEncoder) writeHello(w io.Writer, v any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	fe.buf = append(append(append(fe.buf[:0], 0, 0, 0, 0), body...), '\n')
	return fe.flush(w)
}
