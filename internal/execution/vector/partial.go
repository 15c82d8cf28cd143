package vector

import (
	"fmt"
	"strings"
	"sync"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

// Partial is one grouped aggregation on the kernels, as a connector runs it
// over its own data: over the rows of one write-once unit (a druid segment,
// a Parquet file), or over the partials of many. Keys go into a GroupTable
// and each aggregate into its Agg. A keyless Partial is the global
// aggregate: its one group exists before any row arrives, so it always
// emits one row.
//
// It takes raw rows (AddRows), another Partial's intermediate page
// (AddIntermediate, e.g. a memo hit) and a statistics answer for its global
// group (AddGlobal), and emits intermediate (Intermediate) or final (Final)
// values. Emitted pages alias the Partial's state: emit once, after the last
// add, and treat the page as read-only.
type Partial struct {
	table    *GroupTable
	keyKinds []Kind
	aggs     []Agg
	argKinds []Kind
	star     []bool // count(*): counts rows, reads no argument

	hasher  Hasher
	views   []View
	vptrs   []*View
	arg     View
	scratch *partialScratch // while it adds; nil once it has emitted
}

// partialScratch is what a Partial needs only while it adds: per-row
// hashes and group ids and the dictionary memo. A Partial takes one from
// scratchPool at its first add and puts it back when it emits, so a
// connector that folds unit after unit reuses one set instead of
// allocating one per unit.
type partialScratch struct {
	hashes []uint64
	ids    []int32
	memo   DictMemo
}

var scratchPool = sync.Pool{New: func() any { return new(partialScratch) }}

// rows returns the scratch, with room for n rows.
func (p *Partial) rows(n int) *partialScratch {
	if p.scratch == nil {
		p.scratch = scratchPool.Get().(*partialScratch)
	}
	if s := p.scratch; cap(s.ids) < n {
		s.ids, s.hashes = make([]int32, n), make([]uint64, n)
	}
	return p.scratch
}

// AggSpec is one aggregate of a Partial: its function and its argument's
// type, nil for count(*).
type AggSpec struct {
	Func string
	Arg  *types.Type
}

// NewPartial binds the key types and the aggregates to their kernels; a
// key or an aggregate no kernel takes is an error.
func NewPartial(keys []*types.Type, specs []AggSpec) (*Partial, error) {
	table, ok := NewGroupTable(keys)
	if !ok {
		return nil, fmt.Errorf("vector: no group table over keys %v", keys)
	}
	p := &Partial{table: table, views: make([]View, len(keys)), vptrs: make([]*View, len(keys))}
	for i, c := range table.cols {
		p.keyKinds = append(p.keyKinds, c.kind)
		p.vptrs[i] = &p.views[i]
	}
	for _, s := range specs {
		var agg Agg
		if s.Arg != nil || strings.EqualFold(s.Func, "count") { // only count takes no argument
			agg, _ = NewAgg(s.Func, s.Arg)
		}
		if agg == nil {
			return nil, fmt.Errorf("vector: no kernel for %s(%v)", s.Func, s.Arg)
		}
		k, _ := KindOf(s.Arg)
		p.aggs = append(p.aggs, agg)
		p.argKinds = append(p.argKinds, k)
		p.star = append(p.star, s.Arg == nil)
	}
	if len(keys) == 0 {
		table.Assign(nil, 1, make([]uint64, 1), make([]int32, 1)) // the global group
		for _, agg := range p.aggs {
			agg.Grow(1)
		}
	}
	return p, nil
}

// AddRows folds n raw rows: keys are the group-key columns, args one column
// per aggregate — ignored for count(*), nil for a column that is NULL in
// every row, which adds nothing.
func (p *Partial) AddRows(keys, args []block.Block, n int) error {
	ids, err := p.assign(keys, n)
	if err != nil {
		return err
	}
	for i, agg := range p.aggs {
		agg.Grow(p.table.Len())
		switch {
		case p.star[i]:
			agg.AddRaw(ids, nil, n)
		case args[i] == nil:
		default:
			if err := viewAs(args[i], p.argKinds[i], n, &p.arg); err != nil {
				return err
			}
			agg.AddRaw(ids, &p.arg, n)
		}
	}
	return nil
}

// AddIntermediate folds a page another Partial of the same keys and
// aggregates emitted with Intermediate.
func (p *Partial) AddIntermediate(page *block.Page) error {
	nk, n := len(p.keyKinds), page.Count()
	if len(page.Blocks) != nk+len(p.aggs) {
		return fmt.Errorf("vector: intermediate page of %d columns for %d keys and %d aggregates", len(page.Blocks), nk, len(p.aggs))
	}
	ids, err := p.assign(page.Blocks[:nk], n)
	if err != nil {
		return err
	}
	for i, agg := range p.aggs {
		agg.Grow(p.table.Len())
		if err := agg.AddIntermediate(ids, page.Blocks[nk+i], n); err != nil {
			return err
		}
	}
	return nil
}

// AddGlobal folds b, a one-row intermediate of aggregate i — what a unit's
// statistics answer — into the global group of a keyless Partial.
func (p *Partial) AddGlobal(i int, b block.Block) error {
	if len(p.keyKinds) > 0 {
		return fmt.Errorf("vector: a global answer for a grouped aggregation")
	}
	ids := p.rows(1).ids[:1]
	ids[0] = 0
	return p.aggs[i].AddIntermediate(ids, b, 1)
}

// Bytes estimates what the groups of a grouped Partial hold
// (GroupTable.Bytes); a keyless Partial's one group is constant size, 0.
func (p *Partial) Bytes() int64 {
	if len(p.keyKinds) == 0 {
		return 0
	}
	return p.table.Bytes(len(p.aggs))
}

// Intermediate emits every group: its keys, then each aggregate's
// intermediate value.
func (p *Partial) Intermediate() *block.Page { return p.emit(Agg.EmitIntermediate) }

// Final emits every group: its keys, then each aggregate's final value.
func (p *Partial) Final() *block.Page { return p.emit(Agg.EmitFinal) }

func (p *Partial) emit(value func(Agg, int, int) block.Block) *block.Page {
	if p.scratch != nil {
		scratchPool.Put(p.scratch)
		p.scratch = nil
	}
	groups, nk := p.table.Len(), len(p.keyKinds)
	page := &block.Page{Blocks: make([]block.Block, nk+len(p.aggs)), N: groups}
	for k := range p.keyKinds {
		page.Blocks[k] = p.table.KeyBlock(k, 0, groups)
	}
	for i, agg := range p.aggs {
		agg.Grow(groups)
		page.Blocks[nk+i] = value(agg, 0, groups)
	}
	return page
}

// assign maps n rows of the key columns to group ids, valid until the next
// call. Dictionary-coded keys over few enough entries go through the
// DictMemo; a keyless Partial maps every row to its one group.
func (p *Partial) assign(keys []block.Block, n int) ([]int32, error) {
	if len(keys) != len(p.keyKinds) {
		return nil, fmt.Errorf("vector: %d key columns for %d keys", len(keys), len(p.keyKinds))
	}
	s := p.rows(n)
	ids, hashes := s.ids[:n], s.hashes[:n]
	if len(keys) == 0 {
		clear(ids)
		return ids, nil
	}
	for c, b := range keys {
		if err := viewAs(b, p.keyKinds[c], n, &p.views[c]); err != nil {
			return nil, err
		}
	}
	if s.memo.Assign(p.table, p.vptrs, n, ids) {
		return ids, nil
	}
	clear(hashes)
	for _, v := range p.vptrs {
		p.hasher.HashView(v, n, hashes)
	}
	p.table.Assign(p.vptrs, n, hashes, ids)
	return ids, nil
}

// viewAs views rows [0, n) of b, which must be of kind k.
func viewAs(b block.Block, k Kind, n int, v *View) error {
	if !Of(b, v) || v.Kind != k || v.N < n {
		return fmt.Errorf("vector: a %T where %d rows of kind %d belong", b, n, k)
	}
	return nil
}
