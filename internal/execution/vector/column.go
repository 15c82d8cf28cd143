package vector

import (
	"math"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

// Column is an appendable typed column store: the group table stores its
// key columns in them and the vector join compacts its whole build side
// into them, so probing and emission touch flat slices instead of chasing
// per-row page references. Doubles are stored as their bit patterns and
// compare by floatKey, as they hash: −0.0 equals +0.0 and NaN equals NaN.
type Column struct {
	typ  *types.Type
	kind Kind
	// key stores doubles by floatKey, so a group table emits each key the
	// way it compares: −0.0 as +0.0, every NaN as one NaN.
	key      bool
	i64      []int64 // KindInt64, KindFloat64 (bits), KindBool (0/1)
	str      []string
	nulls    []bool
	hasNulls bool
	bytes    int64 // retained-byte estimate, string payloads included
}

// NewColumn builds an empty store for type t; ok is false for unsupported
// (nested) types.
func NewColumn(t *types.Type) (*Column, bool) {
	k, ok := KindOf(t)
	if !ok {
		return nil, false
	}
	return &Column{typ: t, kind: k}, true
}

// Len is the number of stored rows.
func (c *Column) Len() int {
	if c.kind == KindString {
		return len(c.str)
	}
	return len(c.i64)
}

// Bytes is the retained-byte estimate (used for memory accounting).
func (c *Column) Bytes() int64 { return c.bytes }

// appendNull stores a null row.
func (c *Column) appendNull() {
	if c.kind == KindString {
		c.str = append(c.str, "")
	} else {
		c.i64 = append(c.i64, 0)
	}
	c.nulls = append(c.nulls, true)
	c.hasNulls = true
	c.bytes += 9
}

// AppendRow stores row r of view v.
func (c *Column) AppendRow(v *View, r int) {
	i := v.at(r)
	if i < 0 {
		c.appendNull()
		return
	}
	switch c.kind {
	case KindInt64:
		c.i64 = append(c.i64, v.I64[i])
	case KindFloat64:
		c.i64 = append(c.i64, int64(c.floatBits(v.F64[i])))
	case KindBool:
		var x int64
		if v.B[i] {
			x = 1
		}
		c.i64 = append(c.i64, x)
	default:
		s := v.S[i]
		c.str = append(c.str, s)
		c.bytes += int64(len(s))
	}
	c.nulls = append(c.nulls, false)
	c.bytes += 9
}

// Append stores all n rows of view v.
func (c *Column) Append(v *View, n int) {
	// The flat typed shapes bulk-append; everything else goes row-wise.
	if v.flat() {
		switch c.kind {
		case KindInt64:
			c.i64 = append(c.i64, v.I64[:n]...)
		case KindFloat64:
			for _, x := range v.F64[:n] {
				c.i64 = append(c.i64, int64(c.floatBits(x)))
			}
		case KindBool:
			for _, x := range v.B[:n] {
				var b int64
				if x {
					b = 1
				}
				c.i64 = append(c.i64, b)
			}
		default:
			for _, s := range v.S[:n] {
				c.str = append(c.str, s)
				c.bytes += int64(len(s))
			}
		}
		c.nulls = append(c.nulls, make([]bool, n)...)
		c.bytes += int64(9 * n)
		return
	}
	for r := 0; r < n; r++ {
		c.AppendRow(v, r)
	}
}

// floatBits is the stored form of double x.
func (c *Column) floatBits(x float64) uint64 {
	if c.key {
		return floatKey(x)
	}
	return math.Float64bits(x)
}

// equalRow reports whether stored row i equals row r of view v, with nulls
// comparing equal to nulls (group-key semantics; join probes never reach
// here with null or NaN keys).
func (c *Column) equalRow(i int, v *View, r int) bool {
	j := v.at(r)
	if c.nulls[i] {
		return j < 0
	}
	if j < 0 {
		return false
	}
	switch c.kind {
	case KindInt64:
		return c.i64[i] == v.I64[j]
	case KindFloat64:
		return floatKey(math.Float64frombits(uint64(c.i64[i]))) == floatKey(v.F64[j])
	case KindBool:
		return (c.i64[i] != 0) == v.B[j]
	default:
		return c.str[i] == v.S[j]
	}
}

// nullsFor returns the null mask for [from, to), or nil when clean.
func (c *Column) nullsFor(from, to int) []bool {
	if !c.hasNulls {
		return nil
	}
	return c.nulls[from:to]
}

// Block emits rows [from, to) as a block sharing storage where the
// representation allows it.
func (c *Column) Block(from, to int) block.Block {
	switch c.kind {
	case KindInt64:
		return &block.Int64Block{Values: c.i64[from:to], Nulls: c.nullsFor(from, to)}
	case KindFloat64:
		vals := make([]float64, to-from)
		for i := range vals {
			vals[i] = math.Float64frombits(uint64(c.i64[from+i]))
		}
		return &block.Float64Block{Values: vals, Nulls: c.nullsFor(from, to)}
	case KindBool:
		vals := make([]bool, to-from)
		for i := range vals {
			vals[i] = c.i64[from+i] != 0
		}
		return &block.BoolBlock{Values: vals, Nulls: c.nullsFor(from, to)}
	default:
		return &block.VarcharBlock{Values: c.str[from:to], Nulls: c.nullsFor(from, to)}
	}
}

// Gather emits the given stored rows, in order, as a block (the join output
// path: build-side rows matched by a probe batch).
func (c *Column) Gather(rows []int32) block.Block {
	var nulls []bool
	if c.hasNulls {
		nulls = make([]bool, len(rows))
		for out, r := range rows {
			nulls[out] = c.nulls[r]
		}
	}
	switch c.kind {
	case KindInt64:
		vals := make([]int64, len(rows))
		for out, r := range rows {
			vals[out] = c.i64[r]
		}
		return &block.Int64Block{Values: vals, Nulls: nulls}
	case KindFloat64:
		vals := make([]float64, len(rows))
		for out, r := range rows {
			vals[out] = math.Float64frombits(uint64(c.i64[r]))
		}
		return &block.Float64Block{Values: vals, Nulls: nulls}
	case KindBool:
		vals := make([]bool, len(rows))
		for out, r := range rows {
			vals[out] = c.i64[r] != 0
		}
		return &block.BoolBlock{Values: vals, Nulls: nulls}
	default:
		vals := make([]string, len(rows))
		for out, r := range rows {
			vals[out] = c.str[r]
		}
		return &block.VarcharBlock{Values: vals, Nulls: nulls}
	}
}
