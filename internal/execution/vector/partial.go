package vector

import (
	"fmt"
	"sync"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

// Partial is the one grouped aggregation on the kernels. The engine's hash
// aggregation keeps its groups in one at every step (PARTIAL, FINAL,
// SINGLE) and its DISTINCT seen tables are Partials without aggregates; a
// connector runs one over its own data: over the rows of one write-once
// unit (a druid segment, a Parquet file), or over the partials of many.
// Keys go into a GroupTable and each aggregate into its Agg. A keyless
// Partial is the global aggregate: its one group exists before any row
// arrives, so it always emits one row.
//
// Keys may be of any type. A scalar is stored by its vector kind; a bare
// NULL as a bigint column of nulls (as the join treats it); an array, map
// or row as the varchar of its AppendKey bytes, and its group emits the
// key's first-seen value.
//
// It takes raw rows (AddRows, or Assign and the caller's own adds), another
// Partial's intermediate page (AddIntermediate, e.g. a memo hit or a spill
// merge) and a statistics answer for its global group (AddGlobal), and
// emits intermediate or final values a page of groups at a time (Emit).
// Emitted pages alias the Partial's state: treat them as read-only; they
// keep their values across Reset.
type Partial struct {
	table   *GroupTable
	keys    []*keyColumn
	views   []*View // each key's view, as the table reads it
	aggs    []Agg
	scratch *partialScratch // while it adds; nil once it has emitted
}

// partialScratch is what a Partial needs only while it adds: per-row
// hashes and group ids, the hasher and the dictionary memo. A Partial takes
// one from scratchPool at its first add and puts it back when it emits, so
// a connector that folds unit after unit reuses one set instead of
// allocating one per unit.
type partialScratch struct {
	hashes []uint64
	ids    []int32
	hasher Hasher
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

// NewPartial groups by keys of the given types and aggregates into aggs,
// which it owns from then on.
func NewPartial(keys []*types.Type, aggs []Agg) *Partial {
	p := &Partial{aggs: aggs, keys: make([]*keyColumn, len(keys)), views: make([]*View, len(keys))}
	stored := make([]*types.Type, len(keys))
	for i, t := range keys {
		p.keys[i] = newKeyColumn(t)
		p.views[i], stored[i] = &p.keys[i].view, p.keys[i].stored
	}
	p.table, _ = NewGroupTable(stored) // every stored type has a kind
	p.openGlobal()
	return p
}

// openGlobal opens a keyless Partial's one group.
func (p *Partial) openGlobal() {
	if len(p.keys) > 0 {
		return
	}
	p.table.Assign(nil, 1, []uint64{0}, []int32{0})
	for _, agg := range p.aggs {
		agg.Grow(1)
	}
}

// Len is the number of groups.
func (p *Partial) Len() int { return p.table.Len() }

// KeyBytes is the retained size of the stored keys.
func (p *Partial) KeyBytes() int64 { return p.table.KeyBytes() }

// Bytes estimates what the groups of a grouped Partial hold
// (GroupTable.Bytes); a keyless Partial's one group is constant size, 0.
func (p *Partial) Bytes() int64 {
	if len(p.keys) == 0 {
		return 0
	}
	return p.table.Bytes(len(p.aggs))
}

// Assign maps n rows of the key columns to group ids, opening a group for
// each key not seen before, and grows every aggregate to cover them; the
// ids are valid until the next call. When every key column is
// dictionary-encoded over few enough entries, the memo assigns each
// combination of ids once; otherwise every row is hashed and probed. A
// keyless Partial maps every row to its one group.
func (p *Partial) Assign(keys []block.Block, n int) ([]int32, error) {
	if len(keys) != len(p.keys) {
		return nil, fmt.Errorf("vector: %d key columns for %d keys", len(keys), len(p.keys))
	}
	s := p.rows(n)
	ids := s.ids[:n]
	if len(keys) == 0 {
		clear(ids)
		return ids, nil
	}
	for c, b := range keys {
		if err := p.keys[c].fill(b, n); err != nil {
			return nil, err
		}
	}
	if !s.memo.Assign(p.table, p.views, n, ids) {
		hashes := s.hashes[:n]
		clear(hashes)
		for _, v := range p.views {
			s.hasher.HashView(v, n, hashes)
		}
		p.table.Assign(p.views, n, hashes, ids)
	}
	for c, k := range p.keys {
		k.record(keys[c], ids)
	}
	for _, agg := range p.aggs {
		agg.Grow(p.table.Len())
	}
	return ids, nil
}

// AddRows folds n raw rows: keys are the group-key columns, args[i] is
// aggregate i's argument column, ignored for count(*).
func (p *Partial) AddRows(keys, args []block.Block, n int) error {
	ids, err := p.Assign(keys, n)
	if err != nil {
		return err
	}
	for i, agg := range p.aggs {
		if err := agg.AddRaw(ids, args[i:i+1], n); err != nil {
			return err
		}
	}
	return nil
}

// AddIntermediate folds a page of the layout Emit writes: the keys, then
// each aggregate's intermediate value.
func (p *Partial) AddIntermediate(page *block.Page) error {
	nk, n := len(p.keys), page.Count()
	if len(page.Blocks) != nk+len(p.aggs) {
		return fmt.Errorf("vector: intermediate page of %d columns for %d keys and %d aggregates", len(page.Blocks), nk, len(p.aggs))
	}
	ids, err := p.Assign(page.Blocks[:nk], n)
	if err != nil {
		return err
	}
	for i, agg := range p.aggs {
		if err := agg.AddIntermediate(ids, page.Blocks[nk+i], n); err != nil {
			return err
		}
	}
	return nil
}

// AddGlobal folds b, a one-row intermediate of aggregate i — what a unit's
// statistics answer — into the global group of a keyless Partial.
func (p *Partial) AddGlobal(i int, b block.Block) error {
	if len(p.keys) > 0 {
		return fmt.Errorf("vector: a global answer for a grouped aggregation")
	}
	ids := p.rows(1).ids[:1]
	ids[0] = 0
	return p.aggs[i].AddIntermediate(ids, b, 1)
}

// Emit is the page of groups [from, to): their keys, then each aggregate's
// intermediate value, or its final value when final.
func (p *Partial) Emit(from, to int, final bool) *block.Page {
	if p.scratch != nil {
		scratchPool.Put(p.scratch)
		p.scratch = nil
	}
	blocks := make([]block.Block, 0, len(p.keys)+len(p.aggs))
	for c, k := range p.keys {
		if k.nested {
			blocks = append(blocks, block.FromValues(k.typ, k.first[from:to]...))
		} else {
			blocks = append(blocks, p.table.KeyBlock(c, from, to))
		}
	}
	for _, agg := range p.aggs {
		if final {
			blocks = append(blocks, agg.EmitFinal(from, to))
		} else {
			blocks = append(blocks, agg.EmitIntermediate(from, to))
		}
	}
	return &block.Page{Blocks: blocks, N: to - from}
}

// Reset drops every group and every aggregate's state; a keyless Partial
// reopens its one group.
func (p *Partial) Reset() {
	p.table.Reset()
	for _, k := range p.keys {
		k.first = nil
	}
	for _, agg := range p.aggs {
		agg.Reset()
	}
	p.openGlobal()
}

// keyColumn views one key column as the GroupTable stores it.
type keyColumn struct {
	typ    *types.Type // declared
	stored *types.Type // what the table stores
	kind   Kind
	nested bool
	view   View
	strs   []string
	buf    []byte
	// first is a nested key's first-seen value per group, which is what the
	// group emits.
	first []any
}

func newKeyColumn(t *types.Type) *keyColumn {
	if kind, ok := KindOf(t); ok {
		return &keyColumn{typ: t, stored: t, kind: kind}
	}
	if t.Kind == types.KindUnknown {
		return &keyColumn{typ: t, stored: types.Bigint, kind: KindInt64}
	}
	return &keyColumn{typ: t, stored: types.Varchar, kind: KindString, nested: true}
}

// fill views rows [0, n) of b.
func (k *keyColumn) fill(b block.Block, n int) error {
	if !k.nested {
		return ViewAs(b, k.kind, n, &k.view)
	}
	// NULL has key bytes of its own, so it needs no null mask.
	k.strs = k.strs[:0]
	for r := 0; r < n; r++ {
		k.buf = AppendKey(k.buf[:0], b.Value(r))
		k.strs = append(k.strs, string(k.buf))
	}
	k.view = View{Kind: KindString, N: n, S: k.strs}
	return nil
}

// record keeps, for a nested key, the value of b in each row that opened a
// group (ids from the assign that viewed b).
func (k *keyColumn) record(b block.Block, ids []int32) {
	if !k.nested {
		return
	}
	for r, g := range ids {
		if int(g) == len(k.first) {
			k.first = append(k.first, b.Value(r))
		}
	}
}
