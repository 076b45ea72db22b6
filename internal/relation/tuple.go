package relation

import "strings"

// Tuple is an ordered list of values, positionally aligned with the attribute
// list of the relation that holds it. Tuples are treated as immutable once
// added to a relation; Clone before mutating.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// IsTotal reports whether the tuple has only non-null values (the paper's
// "total" tuples).
func (t Tuple) IsTotal() bool {
	for _, v := range t {
		if v.IsNull() {
			return false
		}
	}
	return true
}

// IsAllNull reports whether every value in the tuple is null. By convention
// the empty tuple is all-null (and also total).
func (t Tuple) IsAllNull() bool {
	for _, v := range t {
		if !v.IsNull() {
			return false
		}
	}
	return true
}

// Identical reports component-wise identity (nulls identical to nulls).
func (t Tuple) Identical(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Identical(u[i]) {
			return false
		}
	}
	return true
}

// EqualTotal reports component-wise join equality: every pair of components
// must be non-null and equal. Used for total-equality constraint checking.
func (t Tuple) EqualTotal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare imposes a total order on equal-length tuples, component-wise.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	return len(t) - len(u)
}

// Project returns the subtuple at the given positions.
func (t Tuple) Project(positions []int) Tuple {
	sub := make(Tuple, len(positions))
	for i, p := range positions {
		sub[i] = t[p]
	}
	return sub
}

// NullTuple returns a tuple of k null values (the paper's null^k).
func NullTuple(k int) Tuple {
	return make(Tuple, k)
}

// String renders the tuple as ⟨v1, v2, …⟩.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteString("⟨")
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteString("⟩")
	return b.String()
}

// AppendKey appends the tuple's key encoding to dst: an injective encoding
// under set semantics (all nulls encode identically), the bytes of EncodeKey.
// Callers that only probe an index pass a scratch buffer and never build the
// string.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.appendEncoded(dst)
		dst = append(dst, '|')
	}
	return dst
}

// AppendKeyAt appends the key encoding of the subtuple at the given
// positions — byte for byte t.Project(positions).AppendKey(dst) — without
// building the subtuple.
func (t Tuple) AppendKeyAt(dst []byte, positions []int) []byte {
	for _, p := range positions {
		dst = t[p].appendEncoded(dst)
		dst = append(dst, '|')
	}
	return dst
}

// TotalAt reports whether the tuple is non-null at every given position
// (t.Project(positions).IsTotal() without the subtuple).
func (t Tuple) TotalAt(positions []int) bool {
	for _, p := range positions {
		if t[p].IsNull() {
			return false
		}
	}
	return true
}

// EncodeKey returns the string encoding of the tuple, suitable as a map key.
// All-null tuples of the same arity encode identically.
func (t Tuple) EncodeKey() string {
	return string(t.AppendKey(make([]byte, 0, 16*len(t))))
}
