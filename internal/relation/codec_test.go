package relation

import (
	"encoding/binary"
	"math"
	"testing"
)

// A tuple of every value kind round-trips through AppendTuple and
// Decoder.Tuple, nulls included, and EncodedLen is the length appended.
// Every proper prefix of the encoding is refused.
func TestRowFormatRoundTrip(t *testing.T) {
	tup := Tuple{Null(), NewString(""), NewString("c1-Ω"), NewInt(-3), NewInt(math.MaxInt64),
		NewFloat(-2.5), NewFloat(math.NaN()), NewBool(true), NewBool(false), Null()}
	enc := AppendTuple(nil, tup)
	if len(enc) != EncodedLen(tup) {
		t.Fatalf("EncodedLen = %d, AppendTuple appended %d bytes", EncodedLen(tup), len(enc))
	}
	d := NewDecoder(enc)
	got := d.Tuple(uint64(len(tup)))
	if d.Err() != nil || d.Len() != 0 {
		t.Fatalf("decoding: err %v, %d bytes left", d.Err(), d.Len())
	}
	if !got.Identical(tup) {
		t.Fatalf("decoded %v, want %v", got, tup)
	}
	for i, v := range got {
		if v.Kind() != tup[i].Kind() {
			t.Errorf("value %d decodes as a %s, want a %s", i, v.Kind(), tup[i].Kind())
		}
	}
	for n := 0; n < len(enc); n++ {
		d := NewDecoder(enc[:n])
		if d.Tuple(uint64(len(tup))) != nil || d.Err() == nil {
			t.Fatalf("a %d-byte prefix of the encoding decodes", n)
		}
	}
}

// A count or arity the bytes left cannot back is refused before anything is
// sized by it, and so is an unknown value kind.
func TestDecoderRefusesWhatTheBytesCannotHold(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<60)
	if d := NewDecoder(append(huge, 1, 2, 3)); d.Count(1, "row") != 0 || d.Err() == nil {
		t.Error("a count of 2^60 over three bytes was accepted")
	}
	if d := NewDecoder([]byte{0, 0}); d.Tuple(3) != nil || d.Err() == nil {
		t.Error("a 3-value tuple over two bytes was accepted")
	}
	if d := NewDecoder(append(binary.AppendUvarint(nil, 5), 'a', 'b')); d.Str() != "" || d.Err() == nil {
		t.Error("a 5-byte string over two bytes was accepted")
	}
	if d := NewDecoder([]byte{9}); d.Tuple(1) != nil || d.Err() == nil {
		t.Error("value kind 9 was accepted")
	}
}
