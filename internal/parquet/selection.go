package parquet

import (
	"bytes"
	"fmt"

	"prestolite/internal/expr"
	"prestolite/internal/types"
)

// Typed evaluation of pushed predicates (§V.F, Figs 7-9: read, evaluate and
// build in one step). The reader binds each expr.Comparison to the file
// schema once per file, then narrows a selection of record indexes with one
// loop per predicate over the decoded chunk's typed values: no path lookup
// and no boxed value per record. The boxed Comparison.Match stays for the
// places that hold a single boxed value: dictionary probing and partition
// pruning.

// leafPredicate is a Comparison bound to a file schema: the leaf it
// reads, and a matcher over that leaf's storage kind with the literals
// already converted the way expr.CompareValues converts its right operand
// (an int64 literal against a double column compares as double, a double
// literal against a bigint column truncates).
type leafPredicate struct {
	expr.Comparison
	node *Node
	// Exactly one matcher is set, by the leaf's storage kind.
	ints   func(int64) bool
	floats func(float64) bool
	strs   func(string) bool
	bools  func(bool) bool
}

// bindPredicate resolves p against schema. A literal the column's kind cannot
// be compared with is an error here rather than a panic per record.
func bindPredicate(p expr.Comparison, schema *Schema) (leafPredicate, error) {
	n := schema.Resolve(p.Column)
	if n == nil {
		return leafPredicate{}, fmt.Errorf("parquet: predicate column %q not in schema", p.Column)
	}
	if n.Kind != KindPrimitive || n.RepLevel != 0 {
		return leafPredicate{}, fmt.Errorf("parquet: predicate column %q must be a non-repeated primitive", p.Column)
	}
	if len(p.Values) == 0 && p.Op != expr.OpIn {
		return leafPredicate{}, fmt.Errorf("parquet: predicate on %q has no value", p.Column)
	}
	lp := leafPredicate{Comparison: p, node: n}
	mismatch := func(v any) error {
		return fmt.Errorf("parquet: predicate %s: cannot compare a %s column with %T", p, n.Prim, v)
	}
	switch n.Prim.Kind { // as chunkData stores them
	case types.KindDouble:
		lits := make([]float64, len(p.Values))
		for i, v := range p.Values {
			switch x := v.(type) {
			case float64:
				lits[i] = x
			case int64:
				lits[i] = float64(x)
			default:
				return leafPredicate{}, mismatch(v)
			}
		}
		lp.floats = orderedMatcher(p.Op, lits)
	case types.KindVarchar:
		lits := make([]string, len(p.Values))
		for i, v := range p.Values {
			x, ok := v.(string)
			if !ok {
				return leafPredicate{}, mismatch(v)
			}
			lits[i] = x
		}
		lp.strs = orderedMatcher(p.Op, lits)
	case types.KindBoolean:
		// false < true, as CompareValues orders them.
		lits := make([]int64, len(p.Values))
		for i, v := range p.Values {
			x, ok := v.(bool)
			if !ok {
				return leafPredicate{}, mismatch(v)
			}
			lits[i] = boolRank(x)
		}
		m := orderedMatcher(p.Op, lits)
		lp.bools = func(v bool) bool { return m(boolRank(v)) }
	default:
		lits := make([]int64, len(p.Values))
		for i, v := range p.Values {
			switch x := v.(type) {
			case int64:
				lits[i] = x
			case float64:
				lits[i] = int64(x)
			default:
				return leafPredicate{}, mismatch(v)
			}
		}
		lp.ints = orderedMatcher(p.Op, lits)
	}
	return lp, nil
}

func boolRank(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// orderedMatcher builds the comparison for one operator. Equality is "neither
// less nor greater", which is what CompareValues' three-way result gives a
// NaN: it compares equal to everything.
func orderedMatcher[T int64 | float64 | string](op expr.CompareOp, lits []T) func(T) bool {
	if op == expr.OpIn {
		return func(v T) bool {
			for _, w := range lits {
				if !(v < w) && !(v > w) {
					return true
				}
			}
			return false
		}
	}
	lit := lits[0]
	switch op {
	case expr.OpEq:
		return func(v T) bool { return !(v < lit) && !(v > lit) }
	case expr.OpNeq:
		return func(v T) bool { return v < lit || v > lit }
	case expr.OpLt:
		return func(v T) bool { return v < lit }
	case expr.OpLte:
		return func(v T) bool { return !(v > lit) }
	case expr.OpGt:
		return func(v T) bool { return v > lit }
	case expr.OpGte:
		return func(v T) bool { return !(v < lit) }
	}
	return func(T) bool { return false }
}

// filter narrows sel — record indexes in ascending order, nil meaning every
// one of the chunk's n records — to the records whose value matches. A NULL
// never matches. A non-nil sel is narrowed in place.
func (p *leafPredicate) filter(cd *chunkData, sel []int, n int) []int {
	idx := cd.valueIndex()
	switch {
	case p.floats != nil:
		return filterValues(cd.floats, idx, sel, n, p.floats)
	case p.strs != nil:
		return filterValues(cd.strs, idx, sel, n, p.strs)
	case p.bools != nil:
		return filterValues(cd.bools, idx, sel, n, p.bools)
	default:
		return filterValues(cd.ints, idx, sel, n, p.ints)
	}
}

// filterValues is filter over one typed value slice. idx maps a record to its
// value (negative = NULL); nil means record i holds vals[i].
func filterValues[T any](vals []T, idx []int32, sel []int, n int, keep func(T) bool) []int {
	if sel != nil {
		out := sel[:0]
		for _, rec := range sel {
			vi := rec
			if idx != nil {
				vi = int(idx[rec])
			}
			if vi >= 0 && keep(vals[vi]) {
				out = append(out, rec)
			}
		}
		return out
	}
	out := make([]int, 0, n)
	if idx == nil {
		for rec, v := range vals[:n] {
			if keep(v) {
				out = append(out, rec)
			}
		}
		return out
	}
	for rec, vi := range idx {
		if vi >= 0 && keep(vals[vi]) {
			out = append(out, rec)
		}
	}
	return out
}

// valueIndex maps each record of a non-repeated chunk to the index of its
// value, negative for NULL. It is nil when every record has a value, so that
// record i holds value i. Computed on first use.
func (c *chunkData) valueIndex() []int32 {
	if c.defs == nil || c.indexed {
		return c.valueIdx
	}
	c.indexed = true
	maxDef := uint8(c.leaf.MaxDef)
	if bytes.Count(c.defs, []byte{maxDef}) == c.entries {
		return nil // no NULL, the common case: nothing to allocate
	}
	c.valueIdx = make([]int32, c.entries)
	vi := int32(0)
	for i, d := range c.defs {
		if d == maxDef {
			c.valueIdx[i] = vi
			vi++
		} else {
			c.valueIdx[i] = -1
		}
	}
	return c.valueIdx
}
