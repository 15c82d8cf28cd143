// The native query engine. A query is bound once — names to ordinals, every
// filter to a typed matcher — and then runs segment by segment over the
// blocks that wrap the segment's own slices: statistics decide whether a
// filter can match no row of the segment (skip it), must match every row
// (drop the filter there) or has to run, as a typed loop; a select hands the
// surviving rows out as a page, an aggregation feeds them to the engine's
// vector kernels (vector.GroupTable, vector.Agg), and a global count, min or
// max whose filters all cover a segment is answered from its metadata.
package druid

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"prestolite/internal/block"
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
	ex := &executor{t: t, filters: make([]boundFilter, len(q.Filters))}
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

// aggregation is the state of one aggregate query on the vector kernels. A
// global aggregate is the keyless table's one group, as in the engine.
type aggregation struct {
	table   *vector.GroupTable
	keyCols []int
	aggs    []boundAgg

	hasher   vector.Hasher
	hashes   []uint64
	ids      []int32
	keyViews []*vector.View
	argView  vector.View
	// oneL and oneD carry a segment's metadata answer into an aggregator.
	oneL block.Int64Block
	oneD block.Float64Block
}

// boundAgg is one aggregate's kernel, its function and its argument column
// (-1 for count(*)).
type boundAgg struct {
	vector.Agg
	fn  string
	col int
}

func (ex *executor) aggregate(segs []*segment, q Query) (*Result, error) {
	t, res := ex.t, &Result{}
	a := &aggregation{
		hashes: make([]uint64, 1),
		ids:    make([]int32, 1),
		oneL:   block.Int64Block{Values: make([]int64, 1)},
		oneD:   block.Float64Block{Values: make([]float64, 1)},
	}
	var keyTypes []*types.Type
	for _, g := range q.GroupBy {
		ci, err := t.ordinal("group", g)
		if err != nil {
			return nil, err
		}
		a.keyCols = append(a.keyCols, ci)
		a.keyViews = append(a.keyViews, &vector.View{})
		keyTypes = append(keyTypes, t.Columns[ci].Type)
		res.Columns = append(res.Columns, g)
	}
	a.table, _ = vector.NewGroupTable(keyTypes) // every druid column kind is a vector kind
	global := len(keyTypes) == 0
	if global {
		a.table.Assign(nil, 1, a.hashes, a.ids) // its one group is there whatever the segments hold
	}
	for _, spec := range q.Aggregations {
		fn, ci := strings.ToLower(spec.Func), -1
		var argType *types.Type
		if spec.Column != "" {
			var err error
			if ci, err = t.ordinal("aggregation", spec.Column); err != nil {
				return nil, err
			}
			argType = t.Columns[ci].Type
		}
		var agg vector.Agg
		if argType != nil || fn == "count" { // only count takes no argument
			agg, _ = vector.NewAgg(fn, argType)
		}
		if agg == nil {
			return nil, fmt.Errorf("druid: unsupported aggregation %s(%s)", spec.Func, spec.Column)
		}
		name := spec.Name
		if name == "" {
			name = spec.Func
		}
		a.aggs = append(a.aggs, boundAgg{Agg: agg, fn: fn, col: ci})
		res.Columns = append(res.Columns, name)
	}
	for _, seg := range segs {
		sel, all := ex.selection(seg)
		if !all && len(sel) == 0 {
			continue
		}
		if all && global {
			done, err := a.addFromStats(seg)
			if err != nil {
				return nil, err
			}
			if done {
				continue
			}
		}
		a.add(seg, sel, all)
	}
	if p := a.page(q.Limit); p != nil {
		res.Pages = append(res.Pages, p)
	}
	return res, nil
}

// addFromStats answers a global aggregate over every row of seg without
// visiting one, when each aggregate is a count, or the min or max of a column
// whose statistics hold. It reports whether it did.
func (a *aggregation) addFromStats(seg *segment) (bool, error) {
	for _, agg := range a.aggs {
		switch agg.fn {
		case "count":
		case "min", "max":
			if st := &seg.cols[agg.col].stats; st.min == nil && st.nulls != seg.n {
				return false, nil // varchar, or a NaN among the values
			}
		default:
			return false, nil
		}
	}
	for _, agg := range a.aggs {
		agg.Grow(1)
		var one block.Block = &a.oneL
		if agg.fn == "count" {
			a.oneL.Values[0] = int64(seg.n)
			if agg.col >= 0 {
				a.oneL.Values[0] -= int64(seg.cols[agg.col].stats.nulls)
			}
		} else {
			v := seg.cols[agg.col].stats.min
			if agg.fn == "max" {
				v = seg.cols[agg.col].stats.max
			}
			switch x := v.(type) {
			case int64:
				a.oneL.Values[0] = x
			case float64:
				a.oneD.Values[0], one = x, &a.oneD
			default:
				continue // every row is NULL
			}
		}
		if err := agg.AddIntermediate(a.ids[:1], one, 1); err != nil { // ids[0] is group 0
			return false, err
		}
	}
	return true, nil
}

// add feeds the selected rows of seg (every row when all) to the kernels.
func (a *aggregation) add(seg *segment, sel []int, all bool) {
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
	if cap(a.ids) < n {
		a.ids, a.hashes = make([]int32, n), make([]uint64, n)
	}
	ids, hashes := a.ids[:n], a.hashes[:n]
	clear(hashes)
	for k, ci := range a.keyCols {
		b := col(ci)
		a.hasher.HashBlock(b, n, hashes)
		vector.Of(b, a.keyViews[k])
	}
	a.table.Assign(a.keyViews, n, hashes, ids)
	for _, agg := range a.aggs {
		agg.Grow(a.table.Len())
		if agg.col < 0 {
			agg.AddRaw(ids, nil, n)
			continue
		}
		vector.Of(col(agg.col), &a.argView)
		agg.AddRaw(ids, &a.argView, n)
	}
}

// page emits the groups in ascending key order (NULL first), cut at limit; nil
// when there is none.
func (a *aggregation) page(limit int64) *block.Page {
	groups, nk := a.table.Len(), len(a.keyCols)
	if groups == 0 {
		return nil
	}
	p := &block.Page{Blocks: make([]block.Block, nk+len(a.aggs)), N: groups}
	for k := range a.keyCols {
		p.Blocks[k] = a.table.KeyBlock(k, 0, groups)
	}
	for i, agg := range a.aggs {
		agg.Grow(groups)
		p.Blocks[nk+i] = agg.EmitFinal(0, groups)
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
