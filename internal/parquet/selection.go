package parquet

import (
	"fmt"

	"prestolite/internal/expr"
)

// Typed evaluation of pushed predicates (§V.F, Figs 7-9: read, evaluate and
// build in one step). The reader binds each expr.Comparison to the file
// schema once per file (expr.Comparison.Bind: the matcher the druid store
// runs too), then narrows a selection of record indexes with one loop per
// predicate over the decoded chunk's typed values: no path lookup and no
// boxed value per record. Over a dictionary-encoded chunk the matcher runs
// once per dictionary entry, and records are mapped through their ids; the
// dictionary-pushdown probe asks the same per-entry answer whether any entry
// matches at all. The boxed Comparison.Match stays for the place that holds
// a single boxed value: partition pruning.

// leafPredicate is a Comparison bound to a file schema: the leaf it reads,
// and expr's matcher over that leaf's storage kind (as chunkData stores it).
type leafPredicate struct {
	expr.Comparison
	node *Node
	m    expr.Matcher
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
	m, err := p.Bind(n.Prim)
	if err != nil {
		return leafPredicate{}, fmt.Errorf("parquet: %w", err)
	}
	return leafPredicate{Comparison: p, node: n, m: m}, nil
}

// filter narrows sel — record indexes in ascending order, nil meaning every
// one of the chunk's n records — to the records whose value matches. A NULL
// never matches. A non-nil sel is narrowed in place.
func (p *leafPredicate) filter(cd *chunkData, sel []int, n int) []int {
	idx := cd.valueIndex()
	if cd.ids != nil {
		hits := p.entryMatches(&dictionary{ints: cd.ints, strs: cd.strs})
		return filterValues(cd.ids, idx, sel, n, func(id int32) bool { return hits[id] })
	}
	switch {
	case p.m.Floats != nil:
		return filterValues(cd.floats, idx, sel, n, p.m.Floats)
	case p.m.Strs != nil:
		return filterValues(cd.strs, idx, sel, n, p.m.Strs)
	case p.m.Bools != nil:
		return filterValues(cd.bools, idx, sel, n, p.m.Bools)
	default:
		return filterValues(cd.ints, idx, sel, n, p.m.Ints)
	}
}

// entryMatches evaluates p once per entry of d.
func (p *leafPredicate) entryMatches(d *dictionary) []bool {
	hits := make([]bool, d.size())
	if p.m.Strs != nil {
		for i, s := range d.strs {
			hits[i] = p.m.Strs(s)
		}
		return hits
	}
	for i, v := range d.ints {
		hits[i] = p.m.Ints(v)
	}
	return hits
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
	if c.present == c.entries {
		return nil // no NULL, the common case: nothing to allocate
	}
	maxDef := uint8(c.leaf.MaxDef)
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
