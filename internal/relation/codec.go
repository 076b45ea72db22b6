package relation

import (
	"encoding/binary"
	"errors"
	"math"
)

// This file is the binary row format the engine writes to disk: its log's op
// records and its checkpoints. A value is a kind byte plus a payload — a
// varint for an int, the 8 little-endian bytes of a float's bits, a
// uvarint-length-prefixed string, one byte for a bool, nothing for null — so
// every null round-trips as the null it was. A tuple is its values in order;
// whatever frames the tuple carries its arity.

// AppendValue appends v's row-format encoding to buf.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindString:
		buf = AppendString(buf, v.s)
	case KindInt:
		buf = binary.AppendVarint(buf, v.i)
	case KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.f))
	case KindBool:
		buf = append(buf, boolByte(v.b))
	}
	return buf
}

// AppendTuple appends the row-format encoding of t's values, without its
// arity.
func AppendTuple(buf []byte, t Tuple) []byte {
	for _, v := range t {
		buf = AppendValue(buf, v)
	}
	return buf
}

// EncodedLen is the number of bytes AppendTuple appends for t.
func EncodedLen(t Tuple) int {
	var scratch [binary.MaxVarintLen64]byte
	n := len(t) // the kind bytes
	for _, v := range t {
		switch v.kind {
		case KindString:
			n += len(binary.AppendUvarint(scratch[:0], uint64(len(v.s)))) + len(v.s)
		case KindInt:
			n += len(binary.AppendVarint(scratch[:0], v.i))
		case KindFloat:
			n += 8
		case KindBool:
			n++
		}
	}
	return n
}

// AppendString appends s with its uvarint length prefix.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Decoder is a cursor over row-format bytes. Its error is sticky: after the
// first failure every read returns a zero value, so a caller checks Err once
// after a run of reads. Every count and length is checked against the bytes
// left before anything is sized by it.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a cursor over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of bytes left.
func (d *Decoder) Len() int { return len(d.b) }

// Fail records msg as the decoder's failure unless one is already recorded.
func (d *Decoder) Fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.Fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Uvarint reads one uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *Decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.Fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Count reads the count of items that take min bytes at least, refusing one
// the bytes left cannot hold.
func (d *Decoder) Count(min uint64, what string) uint64 {
	n := d.Uvarint()
	if n > uint64(len(d.b))/max(min, 1) {
		d.Fail(what + " count exceeds the bytes left")
		return 0
	}
	return n
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.Fail("truncated string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Value reads one value.
func (d *Decoder) Value() Value {
	switch Kind(d.Byte()) {
	case KindNull:
		return Null()
	case KindString:
		return NewString(d.Str())
	case KindInt:
		return NewInt(d.varint())
	case KindFloat:
		if d.err == nil && len(d.b) < 8 {
			d.Fail("truncated float")
		}
		if d.err != nil {
			return Null()
		}
		bits := binary.LittleEndian.Uint64(d.b)
		d.b = d.b[8:]
		return NewFloat(math.Float64frombits(bits))
	case KindBool:
		return NewBool(d.Byte() != 0)
	default:
		d.Fail("unknown value kind")
		return Null()
	}
}

// Tuple reads a tuple of arity values, or nil if the decoder has failed.
func (d *Decoder) Tuple(arity uint64) Tuple {
	if d.err == nil && arity > uint64(len(d.b)) {
		d.Fail("tuple arity exceeds the bytes left")
	}
	if d.err != nil {
		return nil
	}
	t := make(Tuple, arity)
	for i := range t {
		t[i] = d.Value()
	}
	if d.err != nil {
		return nil
	}
	return t
}
