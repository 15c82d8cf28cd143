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
	defs, maxDef := cd.defs, uint8(cd.leaf.MaxDef)
	if cd.ids != nil {
		hits := p.entryMatches(&dictionary{ints: cd.ints, strs: cd.strs})
		return filterValues(cd.ids, defs, maxDef, sel, n, func(id int32) bool { return hits[id] })
	}
	switch {
	case p.m.Floats != nil:
		return filterValues(cd.floats, defs, maxDef, sel, n, p.m.Floats)
	case p.m.Strs != nil:
		return filterValues(cd.strs, defs, maxDef, sel, n, p.m.Strs)
	case p.m.Bools != nil:
		return filterValues(cd.bools, defs, maxDef, sel, n, p.m.Bools)
	default:
		return filterValues(cd.ints, defs, maxDef, sel, n, p.m.Ints)
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

// filterValues is filter over one typed value slice. defs, when not nil,
// holds each record's definition level: a record at maxDef holds the next
// of vals, any other is NULL. nil means record i holds vals[i]. The walk
// counts values as it goes, so the chunk, which queries share, carries no
// record-to-value index and is never written.
func filterValues[T any](vals []T, defs []uint8, maxDef uint8, sel []int, n int, keep func(T) bool) []int {
	if sel != nil {
		out := sel[:0]
		if defs == nil {
			for _, s := range sel {
				if keep(vals[s]) {
					out = append(out, s)
				}
			}
			return out
		}
		vi, rec := 0, 0 // vi counts the values of the records before rec
		for _, s := range sel {
			for ; rec < s; rec++ {
				if defs[rec] == maxDef {
					vi++
				}
			}
			if defs[s] == maxDef && keep(vals[vi]) {
				out = append(out, s)
			}
		}
		return out
	}
	out := make([]int, 0, n)
	if defs == nil {
		for rec, v := range vals[:n] {
			if keep(v) {
				out = append(out, rec)
			}
		}
		return out
	}
	vi := 0
	for rec, d := range defs {
		if d == maxDef {
			if keep(vals[vi]) {
				out = append(out, rec)
			}
			vi++
		}
	}
	return out
}
