package vector

import (
	"encoding/binary"
	"fmt"
	"strings"

	"prestolite/internal/block"
)

// Key bytes are the engine's one order and its one key equality. Every value
// is a type tag and a body, built so that:
//
//   - two values get the same bytes exactly when GROUP BY, DISTINCT and a
//     hash partition must treat them as one key: −0.0 and +0.0 share bytes,
//     and so do all NaNs;
//   - for scalars of one type, bytes.Compare orders the bytes as ORDER BY
//     orders the values: integers and dates numerically, doubles numerically
//     with every NaN below every number (the order min and max rank them
//     by), strings bytewise, false before true, and NULL after everything;
//   - no value's bytes are a prefix of another's of the same type, so a
//     tuple's key is its values' bytes one after another, and complementing
//     a column's bytes reverses its order (DESC, which puts NULL first).
//
// Arrays, rows and maps only need some total order (the aggregation spill
// sorts its runs by key bytes; the analyzer refuses ORDER BY over them): a
// length, then the elements' bytes.
const (
	tagBool   = 'b'
	tagInt    = 'i'
	tagDouble = 'd'
	tagString = 's'
	tagArray  = 'a'
	tagMap    = 'm'
	tagNull   = 0xff // above every other tag, so NULLs sort last
)

// AppendKey appends the key bytes of boxed value v to dst. Arrays and rows
// (both boxed as []any) and maps recurse, a map entry by entry in stored
// order; a NULL element has the NULL tag, so it is not the string "<nil>".
func AppendKey(dst []byte, v any) []byte {
	switch t := v.(type) {
	case nil:
		return append(dst, tagNull)
	case bool:
		return appendBoolKey(dst, t)
	case int64:
		return appendInt64Key(dst, t)
	case float64:
		return appendFloat64Key(dst, t)
	case string:
		return appendStringKey(dst, t)
	case []any:
		dst = binary.AppendUvarint(append(dst, tagArray), uint64(len(t)))
		for _, e := range t {
			dst = AppendKey(dst, e)
		}
		return dst
	case [][2]any:
		dst = binary.AppendUvarint(append(dst, tagMap), uint64(len(t)))
		for _, e := range t {
			dst = AppendKey(AppendKey(dst, e[0]), e[1])
		}
		return dst
	}
	// Blocks box values as the cases above and nothing else.
	panic(fmt.Sprintf("vector: no key encoding for %T", v))
}

func appendBoolKey(dst []byte, b bool) []byte {
	if b {
		return append(dst, tagBool, 1)
	}
	return append(dst, tagBool, 0)
}

// appendInt64Key flips the sign bit, so that big-endian bytes order
// negative numbers first.
func appendInt64Key(dst []byte, x int64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, tagInt), uint64(x)^1<<63)
}

// appendFloat64Key writes floatKey's bits mapped onto an unsigned order: a
// positive number gets its sign bit set, a negative one all bits flipped, and
// a NaN zero — below −Inf, whose bits map to 0x000fffffffffffff.
func appendFloat64Key(dst []byte, x float64) []byte {
	var k uint64
	if x == x {
		k = floatKey(x)
		if k>>63 == 0 {
			k |= 1 << 63
		} else {
			k = ^k
		}
	}
	return binary.BigEndian.AppendUint64(append(dst, tagDouble), k)
}

// appendStringKey escapes each 0x00 as 0x00 0xff and terminates with
// 0x00 0x01: bytewise order survives (the terminator sorts below any byte
// that could follow), and no key is a prefix of another.
func appendStringKey(dst []byte, s string) []byte {
	dst = append(dst, tagString)
	for {
		i := strings.IndexByte(s, 0)
		if i < 0 {
			break
		}
		dst = append(append(dst, s[:i]...), 0, 0xff)
		s = s[i+1:]
	}
	return append(append(dst, s...), 0, 1)
}

// appendKey appends the key bytes of row r of v, as AppendKey does for the
// boxed value.
func (v *View) appendKey(dst []byte, r int) []byte {
	i := v.at(r)
	if i < 0 {
		return append(dst, tagNull)
	}
	switch v.Kind {
	case KindInt64:
		return appendInt64Key(dst, v.I64[i])
	case KindFloat64:
		return appendFloat64Key(dst, v.F64[i])
	case KindBool:
		return appendBoolKey(dst, v.B[i])
	default:
		return appendStringKey(dst, v.S[i])
	}
}

// Keys holds the key of each row of a page in one buffer.
type Keys struct {
	buf  []byte
	ends []int32 // row r's key ends at ends[r]
}

// At is row r's key.
func (k *Keys) At(r int) []byte {
	start := int32(0)
	if r > 0 {
		start = k.ends[r-1]
	}
	return k.buf[start:k.ends[r]:k.ends[r]]
}

// Bytes is the memory the keys hold.
func (k *Keys) Bytes() int64 { return int64(len(k.buf) + 4*len(k.ends)) }

// RowKeys returns the key of each of the first n rows of cols: the row's
// values' bytes one after another, complemented for a column whose desc
// entry is true (desc may be nil: every column ascending). A column the
// typed views cannot read is read through Block.Value, once per row. The
// keys live in a new buffer, so they stay valid after the next call.
func RowKeys(cols []block.Block, desc []bool, n int) *Keys {
	views := make([]View, len(cols))
	typed := make([]bool, len(cols))
	for c, b := range cols {
		typed[c] = Of(b, &views[c])
	}
	k := &Keys{ends: make([]int32, n)}
	for r := range k.ends {
		for c, b := range cols {
			start := len(k.buf)
			if typed[c] {
				k.buf = views[c].appendKey(k.buf, r)
			} else {
				k.buf = AppendKey(k.buf, b.Value(r))
			}
			if desc != nil && desc[c] {
				for i := start; i < len(k.buf); i++ {
					k.buf[i] = ^k.buf[i]
				}
			}
		}
		k.ends[r] = int32(len(k.buf))
	}
	return k
}
