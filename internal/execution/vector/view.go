// Package vector implements the batch-at-a-time kernel layer of the
// execution engine: typed views over the block encodings, value-based batch
// hashing, flat open-addressing hash tables keyed on pre-hashed column
// vectors, the WHERE selection kernel (SelectTrue), typed batch
// aggregators, and the one grouped aggregation built on them (Partial).
//
// A row-at-a-time operator pays one interface dispatch (Block.Value) plus
// one boxed key encoding per row per column; this package replaces those
// inner loops with typed slice traversals that dispatch once per block.
// Dictionary and run-length encodings are first class: a kernel touches each
// distinct dictionary value once and maps the result through the id vector,
// and an RLE block costs one evaluation for the whole batch.
//
// Everything here is deliberately dependency-light (block and types only):
// the execution operators, the expression evaluator, and the local exchange
// all layer on top of it.
package vector

import (
	"prestolite/internal/block"
	"prestolite/internal/types"
)

// Kind is the storage kind of a View or Column. Every SQL scalar maps onto
// one of four physical representations.
type Kind uint8

const (
	// KindInt64 backs BIGINT, INTEGER and DATE.
	KindInt64 Kind = iota
	// KindFloat64 backs DOUBLE.
	KindFloat64
	// KindBool backs BOOLEAN.
	KindBool
	// KindString backs VARCHAR.
	KindString
)

// KindOf maps a SQL type to its storage kind; ok is false for nested and
// unknown types.
func KindOf(t *types.Type) (Kind, bool) {
	if t == nil {
		return 0, false
	}
	switch t.Kind {
	case types.KindBigint, types.KindInteger, types.KindDate:
		return KindInt64, true
	case types.KindDouble:
		return KindFloat64, true
	case types.KindBoolean:
		return KindBool, true
	case types.KindVarchar:
		return KindString, true
	default:
		return 0, false
	}
}

// View is a typed, allocation-free window onto one block. Exactly one of
// the value slices (I64/F64/B/S) is populated, according to Kind. Row r of
// the view reads storage index at(r):
//
//   - flat blocks: storage index == r;
//   - dictionary blocks: Ids[r] indirects into the (usually small) value
//     slices, -1 marking null — kernels can evaluate per distinct value and
//     map through Ids;
//   - run-length blocks: Const is set and every row reads index 0.
//
// Nulls (when non-nil) is indexed by storage position, like the value
// slices.
type View struct {
	Kind  Kind
	N     int
	I64   []int64
	F64   []float64
	B     []bool
	S     []string
	Nulls []bool
	Ids   []int32
	Const bool
}

// Of fills v with a typed view of b, forcing lazy blocks. It reports false
// for shapes the kernels do not understand (nested types, nested
// encodings); callers then flatten the block or take the boxed Value
// fallback.
func Of(b block.Block, v *View) bool {
	b = block.Unwrap(b)
	switch t := b.(type) {
	case *block.Int64Block:
		*v = View{Kind: KindInt64, N: len(t.Values), I64: t.Values, Nulls: t.Nulls}
	case *block.Float64Block:
		*v = View{Kind: KindFloat64, N: len(t.Values), F64: t.Values, Nulls: t.Nulls}
	case *block.BoolBlock:
		*v = View{Kind: KindBool, N: len(t.Values), B: t.Values, Nulls: t.Nulls}
	case *block.VarcharBlock:
		*v = View{Kind: KindString, N: len(t.Values), S: t.Values, Nulls: t.Nulls}
	case *block.DictionaryBlock:
		if !Of(t.Dictionary, v) || v.Ids != nil || v.Const {
			return false // nested encodings stay on the reference path
		}
		v.Ids = t.Ids
		v.N = len(t.Ids)
	case *block.RunLengthBlock:
		if !Of(t.Single, v) {
			return false
		}
		v.Const = true
		v.N = t.N
	default:
		return false
	}
	return true
}

// at returns the storage index backing row r, or -1 when the row is null.
// It is the generic accessor; hot kernels special-case the flat-no-null
// shape before falling back to it.
func (v *View) at(r int) int {
	if v.Const {
		r = 0
	}
	if v.Ids != nil {
		i := v.Ids[r]
		if i < 0 || (v.Nulls != nil && v.Nulls[i]) {
			return -1
		}
		return int(i)
	}
	if v.Nulls != nil && v.Nulls[r] {
		return -1
	}
	return r
}

// flat reports whether the view is a plain null-free slice — the shape the
// specialized inner loops handle without per-row branching.
func (v *View) flat() bool { return v.Ids == nil && !v.Const && v.Nulls == nil }
