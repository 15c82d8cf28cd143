package vector

import (
	"math"

	"prestolite/internal/block"
)

// nullHash is the value hash of SQL NULL; any fixed constant works as long
// as both sides of a partitioned join agree on it.
const nullHash uint64 = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer — a cheap full-avalanche bijection that
// turns raw 64-bit values into well-distributed hashes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// combine folds the next column's value hash into a row's running hash.
func combine(h, v uint64) uint64 {
	return mix64(h ^ (v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)))
}

// hashString is inline FNV-1a over the bytes followed by an avalanche —
// hash/fnv would allocate a hasher per value on this hot path.
func hashString(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h)
}

func hashBool(b bool) uint64 {
	if b {
		return mix64(1)
	}
	return mix64(0)
}

// canonicalNaN is the one bit pattern every NaN key hashes as.
const canonicalNaN uint64 = 0x7ff8000000000001

// floatKey is the bit pattern a double hashes by as a key: −0.0 folds into
// +0.0, because the two are `=`, and every NaN into one pattern, because
// GROUP BY keeps the NaNs in one group (a join never matches a NaN key).
func floatKey(x float64) uint64 {
	switch {
	case x == 0:
		return 0
	case x != x:
		return canonicalNaN
	}
	return math.Float64bits(x)
}

// Hasher computes per-row hash vectors over key columns. All paths hash the
// VALUE, never the encoding: an int64 hashes the same whether it arrived
// flat, dictionary-encoded, run-length-encoded, or boxed through the
// fallback — that invariant is what keeps partition routing consistent
// across pages and across both sides of a join, and what lets the group
// table compare pre-hashed keys from differently encoded pages. A double
// hashes by floatKey, so −0.0 and +0.0 land together, as they must for
// every key compared with `=`, and all NaNs land together. An array, map or
// row hashes its AppendKey bytes, so equal nested values land together too.
//
// The zero Hasher is ready to use; it holds reusable scratch (dictionary
// hash vectors, a byte buffer for nested values) so hashing a page of
// scalars allocates nothing in steady state.
type Hasher struct {
	view View
	dict []uint64
	buf  []byte
}

// HashPage resets out[:n] and combines the value hashes of the key channels
// of p into it.
func (h *Hasher) HashPage(p *block.Page, keys []int, out []uint64) {
	n := p.Count()
	for r := 0; r < n; r++ {
		out[r] = 0
	}
	for _, ch := range keys {
		h.HashBlock(p.Blocks[ch], n, out)
	}
}

// HashBlock combines the value hashes of column b into out[:n].
func (h *Hasher) HashBlock(b block.Block, n int, out []uint64) {
	if !Of(b, &h.view) {
		// Boxed fallback for shapes outside the typed kernels (nested
		// types), consistent with the typed paths of HashView.
		for r := 0; r < n; r++ {
			out[r] = combine(out[r], h.hashValue(b.Value(r)))
		}
		return
	}
	h.HashView(&h.view, n, out)
}

// HashView combines the value hashes of rows [0, n) of v into out[:n].
func (h *Hasher) HashView(v *View, n int, out []uint64) {
	switch {
	case v.Const:
		var hv uint64
		if i := v.at(0); i < 0 {
			hv = nullHash
		} else {
			hv = v.hashAt(i)
		}
		for r := 0; r < n; r++ {
			out[r] = combine(out[r], hv)
		}
	case v.Ids != nil:
		// Hash each distinct dictionary value once, then map rows through
		// the id vector.
		m := v.dictLen()
		h.dict = grown(h.dict[:0], m)
		for i := 0; i < m; i++ {
			if v.Nulls != nil && v.Nulls[i] {
				h.dict[i] = nullHash
			} else {
				h.dict[i] = v.hashAt(i)
			}
		}
		for r := 0; r < n; r++ {
			hv := nullHash
			if id := v.Ids[r]; id >= 0 {
				hv = h.dict[id]
			}
			out[r] = combine(out[r], hv)
		}
	case v.Nulls == nil:
		switch v.Kind {
		case KindInt64:
			for r, x := range v.I64[:n] {
				out[r] = combine(out[r], mix64(uint64(x)))
			}
		case KindFloat64:
			for r, x := range v.F64[:n] {
				out[r] = combine(out[r], mix64(floatKey(x)))
			}
		case KindBool:
			for r, x := range v.B[:n] {
				out[r] = combine(out[r], hashBool(x))
			}
		case KindString:
			for r, x := range v.S[:n] {
				out[r] = combine(out[r], hashString(x))
			}
		}
	default:
		for r := 0; r < n; r++ {
			hv := nullHash
			if i := v.at(r); i >= 0 {
				hv = v.hashAt(i)
			}
			out[r] = combine(out[r], hv)
		}
	}
}

// dictLen is the number of distinct storage values behind a dictionary view.
func (v *View) dictLen() int {
	switch v.Kind {
	case KindInt64:
		return len(v.I64)
	case KindFloat64:
		return len(v.F64)
	case KindBool:
		return len(v.B)
	default:
		return len(v.S)
	}
}

// hashAt hashes the (non-null) value at storage index i.
func (v *View) hashAt(i int) uint64 {
	switch v.Kind {
	case KindInt64:
		return mix64(uint64(v.I64[i]))
	case KindFloat64:
		return mix64(floatKey(v.F64[i]))
	case KindBool:
		return hashBool(v.B[i])
	default:
		return hashString(v.S[i])
	}
}

// hashValue hashes one boxed value, consistently with the typed paths.
func (h *Hasher) hashValue(val any) uint64 {
	switch t := val.(type) {
	case nil:
		return nullHash
	case int64:
		return mix64(uint64(t))
	case float64:
		return mix64(floatKey(t))
	case bool:
		return hashBool(t)
	case string:
		return hashString(t)
	default:
		h.buf = AppendKey(h.buf[:0], val)
		return hashString(string(h.buf))
	}
}

// grown extends s to length n, reusing capacity when possible.
func grown[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		// The region beyond the old length may hold stale state from before
		// a Reset (truncation keeps the backing array) — new groups must
		// start from the zero value.
		ns := s[:n]
		clear(ns[len(s):])
		return ns
	}
	ns := make([]T, n, max(n, 2*cap(s)))
	copy(ns, s)
	return ns
}
