// The native query engine. A query is bound once — names to ordinals, every
// filter to a typed matcher — and then runs segment by segment over the
// blocks that wrap the segment's own slices: statistics decide whether a
// filter can match no row of the segment (skip it), must match every row
// (drop the filter there) or has to run, as a typed loop; a select hands the
// surviving rows out as a page, an aggregation feeds them to the engine's
// own grouped aggregation (vector.Partial), and a global count, min or max whose
// filters all cover a segment is answered from its metadata. A sealed
// segment's partial aggregate is computed once per query shape and memoised
// (Store.partials); only the open segment's frozen view is aggregated by
// every query.
package druid

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"prestolite/internal/block"
	"prestolite/internal/cache"
	"prestolite/internal/execution/vector"
	"prestolite/internal/expr"
	"prestolite/internal/types"
)

// Execute runs a native query.
func (s *Store) Execute(q Query) (*Result, error) {
	t, err := s.GetTable(q.Table)
	if err != nil {
		return nil, err
	}
	ex := &executor{t: t, filters: make([]boundFilter, len(q.Filters)), memo: s.partials}
	for i, f := range q.Filters {
		ci, err := t.ordinal("filter", f.Column)
		if err != nil {
			return nil, err
		}
		m, err := f.Bind(t.Columns[ci].Type)
		if err != nil {
			return nil, fmt.Errorf("druid: %w", err)
		}
		ex.filters[i] = boundFilter{Comparison: f, col: ci, m: m,
			byIndex: m.Strs != nil && (f.Op == expr.OpEq || f.Op == expr.OpIn)}
	}
	// What a sealed segment's inverted index answers starts the selection.
	sort.SliceStable(ex.filters, func(i, j int) bool { return ex.filters[i].byIndex && !ex.filters[j].byIndex })
	segs := t.snapshotSegments()
	if len(q.Aggregations) == 0 {
		return ex.selectRows(segs, q)
	}
	return ex.aggregate(segs, q)
}

func (t *Table) ordinal(role, name string) (int, error) {
	for i, c := range t.Columns {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("druid: unknown %s column %q", role, name)
}

// boundFilter is one of the query's comparisons, bound to its column.
type boundFilter struct {
	expr.Comparison
	col     int
	m       expr.Matcher
	byIndex bool // varchar = or IN
}

// executor holds a bound query and the scratch its segments share.
type executor struct {
	t       *Table
	filters []boundFilter
	keyCols []int // group-by ordinals
	aggs    []boundAgg
	memo    *cache.PageMemo[partialKey]
	sel     []int
	match   []bool
}

// selection resolves the filters over one segment: all means every row
// matches; otherwise sel lists the matching rows in ascending order, in
// scratch that the next call overwrites.
func (ex *executor) selection(seg *segment) (sel []int, all bool) {
	for i := range ex.filters {
		f, st := &ex.filters[i], &seg.cols[ex.filters[i].col].stats
		if st.nulls == seg.n || (st.min != nil && !f.OverlapsStats(st.min, st.max)) {
			return nil, false // no row can match: NULL matches nothing
		}
	}
	sel, all = ex.sel[:0], true
	for i := range ex.filters {
		f, c := &ex.filters[i], &seg.cols[ex.filters[i].col]
		switch {
		case c.stats.nulls == 0 && c.stats.min != nil && f.CoversStats(c.stats.min, c.stats.max):
			continue // every row must match
		case c.longs != nil:
			sel = filterValues(c.longs, c.nulls, sel, all, f.m.Ints)
		case c.doubles != nil:
			sel = filterValues(c.doubles, c.nulls, sel, all, f.m.Floats)
		case all && f.byIndex && c.index != nil:
			var hits *Bitmap
			for _, v := range f.Values {
				switch bm := c.index[v.(string)]; { // Bind checked the literals are strings
				case bm == nil:
				case hits == nil:
					hits = bm
				default:
					hits = hits.Clone()
					hits.Or(bm)
				}
			}
			if hits != nil {
				hits.ForEach(func(row int) bool {
					sel = append(sel, row)
					return true
				})
			}
		default:
			// One evaluation per dictionary entry, then the ids.
			if cap(ex.match) < len(c.dict) {
				ex.match = make([]bool, len(c.dict))
			}
			match := ex.match[:len(c.dict)]
			for id, v := range c.dict {
				match[id] = f.m.Strs(v)
			}
			sel = filterValues(c.ids, nil, sel, all, func(id int32) bool { return id >= 0 && match[id] })
		}
		all = false
		if len(sel) == 0 {
			break
		}
	}
	ex.sel = sel
	return sel, all
}

// filterValues narrows sel — every row of the column when all — to the rows
// whose value is not NULL and passes keep. A selection is narrowed in place.
func filterValues[T any](vals []T, nulls []bool, sel []int, all bool, keep func(T) bool) []int {
	if all {
		for i, v := range vals {
			if keep(v) && (nulls == nil || !nulls[i]) {
				sel = append(sel, i)
			}
		}
		return sel
	}
	out := sel[:0]
	for _, i := range sel {
		if keep(vals[i]) && (nulls == nil || !nulls[i]) {
			out = append(out, i)
		}
	}
	return out
}

// selectRows answers a select: one page per segment with a matching row,
// whose blocks are the segment's own (narrowed by Mask or Region when a
// filter or the limit cuts the segment short).
func (ex *executor) selectRows(segs []*segment, q Query) (*Result, error) {
	t, res := ex.t, &Result{Columns: q.Columns}
	if len(q.Columns) == 0 {
		for _, c := range t.Columns {
			res.Columns = append(res.Columns, c.Name)
		}
	}
	ords := make([]int, len(res.Columns))
	for i, name := range res.Columns {
		ci, err := t.ordinal("select", name)
		if err != nil {
			return nil, err
		}
		ords[i] = ci
	}
	taken := int64(0)
	for _, seg := range segs {
		sel, all := ex.selection(seg)
		n := len(sel)
		if all {
			n = seg.n
		}
		if q.Limit > 0 && int64(n) > q.Limit-taken {
			n = int(q.Limit - taken)
		}
		if n == 0 {
			continue
		}
		page := &block.Page{Blocks: make([]block.Block, len(ords)), N: n}
		for i, ci := range ords {
			switch b := seg.cols[ci].blk; {
			case !all:
				page.Blocks[i] = b.Mask(sel[:n])
			case n < seg.n:
				page.Blocks[i] = b.Region(0, n)
			default:
				page.Blocks[i] = b
			}
		}
		res.Pages = append(res.Pages, page)
		if taken += int64(n); taken == q.Limit {
			break
		}
	}
	return res, nil
}

// boundAgg is one aggregate's function and argument column (-1 for
// count(*)).
type boundAgg struct {
	fn  string
	col int
}

// aggregate answers an aggregate query: the partials of the sealed segments,
// each from the store's memo or computed once and memoised, merged with a
// fresh aggregation of the open segment's frozen view. A global aggregate
// is the keyless Partial's one group.
func (ex *executor) aggregate(segs []*segment, q Query) (*Result, error) {
	t, res := ex.t, &Result{}
	var keyTypes []*types.Type
	for _, g := range q.GroupBy {
		ci, err := t.ordinal("group", g)
		if err != nil {
			return nil, err
		}
		ex.keyCols = append(ex.keyCols, ci)
		keyTypes = append(keyTypes, t.Columns[ci].Type)
		res.Columns = append(res.Columns, g)
	}
	argTypes := make([]*types.Type, len(q.Aggregations))
	for i, spec := range q.Aggregations {
		a := boundAgg{fn: strings.ToLower(spec.Func), col: -1}
		if spec.Column != "" {
			var err error
			if a.col, err = t.ordinal("aggregation", spec.Column); err != nil {
				return nil, err
			}
			argTypes[i] = t.Columns[a.col].Type
		}
		name := spec.Name
		if name == "" {
			name = spec.Func
		}
		ex.aggs = append(ex.aggs, a)
		res.Columns = append(res.Columns, name)
	}
	newPartial := func() (*vector.Partial, error) {
		aggs := make([]vector.Agg, len(ex.aggs))
		for i, a := range ex.aggs {
			agg, ok := vector.NewAgg(a.fn, argTypes[i])
			if !ok {
				return nil, fmt.Errorf("druid: unsupported aggregation %s(%v)", a.fn, argTypes[i])
			}
			aggs[i] = agg
		}
		return vector.NewPartial(keyTypes, aggs), nil
	}
	total, err := newPartial()
	if err != nil {
		return nil, err
	}
	var shape string // the memo key's query half, encoded at the first sealed segment
	for _, seg := range segs {
		if seg.id == 0 {
			// The open segment's frozen view: aggregated fresh, every time.
			if err := ex.addSegment(total, seg); err != nil {
				return nil, err
			}
			continue
		}
		if shape == "" {
			shape = string(q.appendShape(nil))
		}
		key := partialKey{segment: seg.id, shape: shape}
		page, ok := ex.memo.Get(key)
		if !ok {
			p, err := newPartial()
			if err != nil {
				return nil, err
			}
			if err := ex.addSegment(p, seg); err != nil {
				return nil, err
			}
			page = p.Emit(0, p.Len(), false)
			ex.memo.Put(key, len(shape)+8, page)
		}
		if err := total.AddIntermediate(page); err != nil {
			return nil, err
		}
	}
	if p := ex.page(total.Emit(0, total.Len(), true), q.Limit); p != nil {
		res.Pages = append(res.Pages, p)
	}
	return res, nil
}

// partialKey names one sealed segment's partial for one query shape
// (Query.appendShape).
type partialKey struct {
	segment uint64
	shape   string
}

// addSegment folds the rows of seg the filters select into p: from the
// segment's metadata when they cover it and it can answer the global
// aggregate, else row by row.
func (ex *executor) addSegment(p *vector.Partial, seg *segment) error {
	sel, all := ex.selection(seg)
	if !all && len(sel) == 0 {
		return nil
	}
	if all && len(ex.keyCols) == 0 {
		done, err := ex.addFromStats(p, seg)
		if done || err != nil {
			return err
		}
	}
	n := seg.n
	if !all {
		n = len(sel)
	}
	col := func(ci int) block.Block {
		if all {
			return seg.cols[ci].blk
		}
		return seg.cols[ci].blk.Mask(sel)
	}
	keys := make([]block.Block, len(ex.keyCols))
	for k, ci := range ex.keyCols {
		keys[k] = col(ci)
	}
	args := make([]block.Block, len(ex.aggs))
	for i, a := range ex.aggs {
		if a.col >= 0 {
			args[i] = col(a.col)
		}
	}
	return p.AddRows(keys, args, n)
}

// addFromStats answers a global aggregate over every row of seg without
// visiting one, when each aggregate is a count, or the min or max of a column
// whose statistics hold. It reports whether it did.
func (ex *executor) addFromStats(p *vector.Partial, seg *segment) (bool, error) {
	for _, a := range ex.aggs {
		switch a.fn {
		case "count":
		case "min", "max":
			if st := &seg.cols[a.col].stats; st.min == nil && st.nulls != seg.n {
				return false, nil // varchar, or a NaN among the values
			}
		default:
			return false, nil
		}
	}
	for i, a := range ex.aggs {
		var one block.Block
		if a.fn == "count" {
			n := int64(seg.n)
			if a.col >= 0 {
				n -= int64(seg.cols[a.col].stats.nulls)
			}
			one = &block.Int64Block{Values: []int64{n}}
		} else {
			v := seg.cols[a.col].stats.min
			if a.fn == "max" {
				v = seg.cols[a.col].stats.max
			}
			switch x := v.(type) {
			case int64:
				one = &block.Int64Block{Values: []int64{x}}
			case float64:
				one = &block.Float64Block{Values: []float64{x}}
			default:
				continue // every row is NULL
			}
		}
		if err := p.AddGlobal(i, one); err != nil {
			return false, err
		}
	}
	return true, nil
}

// page orders the final groups by key (NULL first) and cuts them at limit;
// nil when there is none.
func (ex *executor) page(p *block.Page, limit int64) *block.Page {
	groups, nk := p.Count(), len(ex.keyCols)
	if groups == 0 {
		return nil
	}
	order := make([]int, groups)
	for g := range order {
		order[g] = g
	}
	sort.SliceStable(order, func(x, y int) bool { return keysLess(p.Blocks[:nk], order[x], order[y]) })
	if limit > 0 && int64(groups) > limit {
		order = order[:limit]
	}
	return p.Mask(order)
}

// keysLess orders two groups by their key columns, NULL before any value.
func keysLess(keys []block.Block, x, y int) bool {
	for _, k := range keys {
		if nx, ny := k.IsNull(x), k.IsNull(y); nx || ny {
			if nx != ny {
				return nx
			}
			continue
		}
		c := 0
		switch b := k.(type) { // the flat blocks GroupTable.KeyBlock emits
		case *block.Int64Block:
			c = cmp.Compare(b.Values[x], b.Values[y])
		case *block.Float64Block:
			c = cmp.Compare(b.Values[x], b.Values[y])
		case *block.VarcharBlock:
			c = cmp.Compare(b.Values[x], b.Values[y])
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}
