package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// The binary documents the system sends between its processes — statements,
// task requests, envelope headers — are built from these primitives: unsigned
// and zig-zag varints, length-prefixed strings and bytes, one-byte bools and
// little-endian float64 bits. Each document is written by Append calls and
// read back by a Reader.
//
// Every form has exactly one encoding: a Reader refuses a varint longer than
// it needs to be and a bool other than 0 or 1, so bytes that read encode back
// to themselves. A Reader checks every length and count against the bytes left
// before it allocates for it, so no input makes it allocate more than the
// input's own size.

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends v as a zig-zag varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendString appends s with its length in front.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendBytes appends b with its length in front.
func AppendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFloat64 appends the IEEE 754 bits of v, little-endian.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// errShort is the error of a Reader that ran out of bytes.
var errShort = errors.New("frame: document cut short")

// Reader reads back what the Append helpers wrote. Its error is sticky: the
// first failure is kept, every later read returns a zero value, and the
// caller checks Err (or Close) once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads b. Strings it returns are copies; Bytes aliases b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes left to read.
func (r *Reader) Len() int { return len(r.b) }

// Fail records err as the Reader's failure, unless one is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Close returns the Reader's failure, or an error if bytes are left: a
// document ends where its reader stops.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("frame: %d trailing bytes after the document", len(r.b))
	}
	return r.err
}

// Uvarint reads an unsigned varint in its shortest form.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.err = errShort
		return 0
	case n < 0:
		r.err = errors.New("frame: varint overflows 64 bits")
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.err = errors.New("frame: varint is not in its shortest form")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zig-zag varint in its shortest form.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a Varint that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail(fmt.Errorf("frame: %d does not fit an int", v))
		return 0
	}
	return int(v)
}

// Count reads a length or element count. Each element a document counts
// takes at least one byte, so a count larger than the bytes left is an error
// — the check that keeps a caller from allocating for elements that are not
// there.
func (r *Reader) Count() int { return r.bound(r.Uvarint()) }

// bound checks a count read from the input against the bytes left.
func (r *Reader) bound(n uint64) int {
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = fmt.Errorf("frame: a count of %d with %d bytes left", n, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string. The result aliases the input.
func (r *Reader) Bytes() []byte {
	n := r.Count()
	if r.err != nil {
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// Str reads a length-prefixed string. (Not String: a Reader is no
// fmt.Stringer, since printing one would consume it.)
func (r *Reader) Str() string { return string(r.Bytes()) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.err = errShort
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch c := r.Byte(); c {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("frame: bool byte %d", c))
		return false
	}
}

// Float64 reads eight little-endian bytes of IEEE 754 bits.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = errShort
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// AppendInts appends a list of ints. A nil list and an empty one encode
// apart and read back as they were.
func AppendInts(dst []byte, v []int) []byte {
	dst = appendListLen(dst, v == nil, len(v))
	for _, x := range v {
		dst = binary.AppendVarint(dst, int64(x))
	}
	return dst
}

// AppendStrings appends a list of strings; nil and empty encode apart.
func AppendStrings(dst []byte, v []string) []byte {
	dst = appendListLen(dst, v == nil, len(v))
	for _, s := range v {
		dst = AppendString(dst, s)
	}
	return dst
}

func appendListLen(dst []byte, isNil bool, n int) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

// listLen reads what appendListLen wrote: -1 for nil.
func (r *Reader) listLen() int {
	u := r.Uvarint()
	if u == 0 || r.err != nil {
		return -1
	}
	return r.bound(u - 1)
}

// Ints reads what AppendInts wrote.
func (r *Reader) Ints() []int {
	n := r.listLen()
	if n < 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = r.Int()
	}
	return v
}

// Strs reads what AppendStrings wrote.
func (r *Reader) Strs() []string {
	n := r.listLen()
	if n < 0 {
		return nil
	}
	v := make([]string, n)
	for i := range v {
		v[i] = r.Str()
	}
	return v
}

// AppendStringMap appends m's entries in key order, so equal maps encode to
// equal bytes.
func AppendStringMap(dst []byte, m map[string]string) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = AppendString(AppendString(dst, k), m[k])
	}
	return dst
}

// StrMap reads what AppendStringMap wrote; nil for no entries. Keys out of
// order or repeated are an error: they are no map's encoding.
func (r *Reader) StrMap() map[string]string {
	n := r.Count()
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		k := r.Str()
		if i > 0 && k <= prev {
			r.Fail(fmt.Errorf("frame: map key %q after %q", k, prev))
			return nil
		}
		m[k], prev = r.Str(), k
	}
	return m
}
