package hive

import (
	"errors"
	"fmt"
	"io"
	"math"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/execution/vector"
	"prestolite/internal/frame"
	"prestolite/internal/metastore"
	"prestolite/internal/parquet"
	"prestolite/internal/types"
)

// Aggregation per file (§IV.B, §V.F, §VII). A hive scan absorbs a grouped
// or global count, sum, min or max of top-level data columns and answers it
// split by split: each split emits its file's partial groups, and the FINAL
// above the scan merges the splits. The groups count against the query's
// memory as they grow (connector.ChargedSource).
//
// A file is write-once under the (path, stamp) its listing gave it, so its
// partial is good for every later statement of the same shape: the
// connector memoises it (partials), keyed by the split's wire form — handle,
// path, size, stamp — and by the name and type each key and argument column
// resolved to. A later statement reads no file at all.
//
// On a miss the file is read. For a global aggregate of counts, mins and
// maxes, a row group the statistics prune adds nothing, one whose every
// predicate they cover and whose every aggregate they hold exactly is
// answered from them, and only the rest is read. A grouped aggregate, or a
// sum, reads every row group the predicate does not prune.

var _ connector.AggregationPushdown = (*Connector)(nil)

// Aggregate is one aggregate a hive scan absorbed: count(*) (Column −1), or
// the count, sum, min or max of a top-level data column, by table ordinal.
type Aggregate struct {
	Func   string
	Column int
}

func (a Aggregate) String() string {
	if a.Column < 0 {
		return a.Func + "(*)"
	}
	return fmt.Sprintf("%s(#%d)", a.Func, a.Column)
}

// PushAggregation implements connector.AggregationPushdown for a grouped or
// global aggregation over a scan that carries no limit and no nested paths:
// its group keys top-level data columns and its aggregates count(*) or
// count, sum, min or max of them (dataColumn and absorbs say which kinds).
// The answer is per split (perSplit): each split answers for its own file,
// one partial row per group. A grouped one is absorbed only where the
// footers show the files folding (foldsGroups). The legacy reader and a
// reader without statistics (§V.C, the NoPredicatePushdown ablation) read
// every row, so they absorb nothing.
func (c *Connector) PushAggregation(handle connector.TableHandle, aggs []connector.AggregateSpec, groupBy []int) (connector.TableHandle, bool, bool) {
	h, ok := handle.(*TableHandle)
	if !ok || h.Aggs != nil || h.Limit >= 0 || h.NestedPaths != nil || len(aggs) == 0 ||
		c.opts.UseLegacyReader || c.opts.Reader.NoPredicatePushdown {
		return handle, false, false
	}
	t, err := c.ms.GetTable(h.Schema, h.Table)
	if err != nil {
		return handle, false, false
	}
	ordinal := func(col int) (int, bool) {
		if h.Projection == nil {
			return col, true
		}
		if col < 0 || col >= len(h.Projection) {
			return 0, false
		}
		return h.Projection[col], true
	}
	nh := *h
	nh.Projection = nil
	for _, g := range groupBy {
		ord, ok := ordinal(g)
		if !ok || !dataColumn(t, ord) {
			return handle, false, false
		}
		nh.GroupBy = append(nh.GroupBy, ord)
	}
	for _, a := range aggs {
		pa := Aggregate{Func: a.Function, Column: a.ArgColumn}
		if a.ArgColumn >= 0 {
			if pa.Column, ok = ordinal(a.ArgColumn); !ok {
				return handle, false, false
			}
		}
		if !absorbs(pa, t) {
			return handle, false, false
		}
		nh.Aggs = append(nh.Aggs, pa)
	}
	if len(nh.GroupBy) > 0 && !c.foldsGroups(&nh, t) {
		return handle, false, false
	}
	return &nh, true, true
}

// A grouped aggregate pays per file only where a file folds into far fewer
// groups than it has rows. Where keys barely repeat within a file, the
// engine's own partial aggregation does less work: it merges groups across
// all of a task's splits, and passes rows through when they do not reduce.
const (
	// minFoldReduction is how many times fewer groups than rows the
	// sampled footers must bound.
	minFoldReduction = 8
	// foldSample bounds the files whose footers PushAggregation reads.
	foldSample = 16
)

// foldKey names a foldsGroups answer: the table's metastore version and the
// handle's wire form.
type foldKey struct {
	version int64
	handle  string
}

// foldsGroups reports whether the footers of h's first foldSample files
// bound their groups under h.GroupBy to at most 1/minFoldReduction of
// their rows. The footers come through the footer cache, which the splits
// then read them from. A statement is planned again whenever any table it
// reads moves — a hybrid statement at every append to its druid side — so
// an answer is remembered until this table's version changes; it is a cost
// estimate, not an answer to the statement, so files that land in an open
// partition meanwhile need not move it. A table with no rows yet shows
// nothing, and is asked again.
func (c *Connector) foldsGroups(h *TableHandle, t *metastore.Table) bool {
	key := foldKey{t.Version(), string(h.AppendWire(nil))}
	if folds, ok := c.folds.Get(key); ok {
		return folds
	}
	keys := make([]metastore.Column, len(h.GroupBy))
	for i, ord := range h.GroupBy {
		keys[i] = t.Columns[ord]
	}
	splits, err := (*hiveSplits)(c).Splits(h)
	if err != nil {
		return false
	}
	var rows, groups int64
	for _, s := range splits[:min(len(splits), foldSample)] {
		file, entry, err := c.footer(s.(*Split))
		if err != nil {
			return false
		}
		_ = file.Close() // only the footer was read
		r, g := fileGroups(entry, keys)
		rows, groups = rows+r, groups+g
	}
	folds := groups*minFoldReduction <= rows
	if rows > 0 {
		c.folds.Put(key, folds)
	}
	return folds
}

// fileGroups bounds, from its footer, how many groups a file's rows fall
// into under keys: at most the product of each key's values, and at most
// the rows.
func fileGroups(entry footerEntry, keys []metastore.Column) (rows, groups int64) {
	for _, rg := range entry.meta.RowGroups {
		rows += rg.NumRows
	}
	groups = min(rows, 1)
	for _, col := range keys {
		if v := keyValues(entry, col, rows); groups > rows/v {
			groups = rows
		} else {
			groups *= v
		}
	}
	return rows, groups
}

// keyValues bounds the distinct values, NULL among them, a key column holds
// in a file of rows rows: per row group its dictionary's entries (its rows
// when plain), over the file an integer's range or a boolean's two, never
// more than the non-NULL rows. A column the file lacks, or holds as another
// type, reads NULL in every row: one value.
func keyValues(entry footerEntry, col metastore.Column, rows int64) int64 {
	n := entry.schema.Resolve(col.Name)
	if n == nil || n.Kind != parquet.KindPrimitive || !parquet.TypeAt(n).Equals(col.Type) {
		return 1
	}
	var values, nulls int64
	lo, hi, ranged := int64(math.MaxInt64), int64(math.MinInt64), true
	for _, rg := range entry.meta.RowGroups {
		cm := rg.Chunk(n.LeafIndex)
		if cm == nil {
			return rows + 1
		}
		nulls += cm.Stats.NullCount
		if cm.Dictionary && cm.DictEntries > 0 {
			values += cm.DictEntries
		} else {
			values += rg.NumRows
		}
		switch {
		case cm.Stats.HasMinMax:
			lo, hi = min(lo, cm.Stats.MinI), max(hi, cm.Stats.MaxI)
		case cm.Stats.NullCount != rg.NumRows:
			ranged = false
		}
	}
	switch col.Type.Kind {
	case types.KindBoolean:
		values = min(values, 2)
	case types.KindBigint, types.KindInteger, types.KindDate:
		if ranged && lo <= hi && uint64(hi)-uint64(lo) < uint64(values) {
			values = hi - lo + 1
		}
	}
	values = min(values, rows-nulls)
	if nulls > 0 {
		values++
	}
	return max(values, 1)
}

// dataColumn reports whether ord is a top-level data column of a kind
// whose footer statistics and vector kernels both hold exactly: bigint,
// integer, date, varchar or boolean. Double statistics leave NaN out and
// record no NaN count, so they prove no double min or max. Every statement
// is planned, so this and absorbs build no error to say why not.
func dataColumn(t *metastore.Table, ord int) bool {
	if ord < 0 || ord >= len(t.Columns) {
		return false
	}
	switch t.Columns[ord].Type.Kind {
	case types.KindBigint, types.KindInteger, types.KindDate, types.KindVarchar, types.KindBoolean:
		return true
	}
	return false
}

// absorbs reports whether a split can answer a: count(*), or the count,
// min, max or sum of a data column (dataColumn), the sum only of an integer
// kind. A double sum's rounding depends on the order of its addends, so a
// pushed and an unpushed one would not agree to the bit.
func absorbs(a Aggregate, t *metastore.Table) bool {
	switch {
	case a.Func == "count" && a.Column == -1:
		return true
	case a.Func != "count" && a.Func != "sum" && a.Func != "min" && a.Func != "max", !dataColumn(t, a.Column):
		return false
	}
	k := t.Columns[a.Column].Type.Kind
	return a.Func != "sum" || k == types.KindBigint || k == types.KindInteger
}

// fileAggregation is a handle's aggregation over one split's file: the
// engine's vector.Partial, fed by each row group's statistics where they
// hold a global answer, else by the rows the reader returns.
type fileAggregation struct {
	specs []Aggregate
	// keys are the group keys' table columns; args[i] is aggregate i's, the
	// zero Column for count(*).
	keys, args []metastore.Column
	p          *vector.Partial
	// fromStatsOK: a global aggregate of counts, mins and maxes, which a
	// row group's statistics can answer.
	fromStatsOK bool

	// slots lists, per key and then per aggregate, the column's block in
	// the reader's pages: -1 when the file has no such column, or has it as
	// another type (schema evolution, §V.A: it reads as NULL, as evolveBlock
	// reads it). leaves[i] is aggregate i's column in the file, or nil.
	slots  []int
	leaves []*parquet.Node

	err   error // a row group's answer that did not fold
	one   block.Int64Block
	cols  []block.Block // per key and then per aggregate: its column in a page
	nulls []block.Block // per key and then per aggregate: its one-row NULL, nil for count(*)
}

// newFileAggregation binds the handle's keys and aggregates to the table. An
// unknown function, an ordinal outside the table or a column no split can
// answer is an error here, before any file is touched.
func newFileAggregation(h *TableHandle, t *metastore.Table) (*fileAggregation, error) {
	fa := &fileAggregation{specs: h.Aggs, one: block.Int64Block{Values: make([]int64, 1)}, fromStatsOK: len(h.GroupBy) == 0}
	var keyTypes []*types.Type
	for _, ord := range h.GroupBy {
		if !dataColumn(t, ord) {
			return nil, fmt.Errorf("hive: no per-split answer grouped by column #%d of %s.%s", ord, t.Schema, t.Name)
		}
		fa.keys = append(fa.keys, t.Columns[ord])
		keyTypes = append(keyTypes, t.Columns[ord].Type)
	}
	aggs := make([]vector.Agg, len(h.Aggs))
	for i, a := range h.Aggs {
		if !absorbs(a, t) {
			return nil, fmt.Errorf("hive: no per-split answer for %s over %s.%s", a, t.Schema, t.Name)
		}
		var col metastore.Column
		if a.Column >= 0 {
			col = t.Columns[a.Column]
		}
		fa.args = append(fa.args, col)
		aggs[i], _ = vector.NewAgg(a.Func, col.Type) // a kernel takes all absorbs does
		fa.fromStatsOK = fa.fromStatsOK && a.Func != "sum"
	}
	fa.p = vector.NewPartial(keyTypes, aggs)
	for _, col := range append(fa.keys[:len(fa.keys):len(fa.keys)], fa.args...) {
		var null block.Block
		if col.Type != nil {
			null = nullBlock(col.Type, 1)
		}
		fa.nulls = append(fa.nulls, null)
	}
	fa.cols = make([]block.Block, len(fa.nulls))
	return fa, nil
}

// memoKey is the split's partial's key in the memo: the split's wire form,
// then the name and type each key and argument column resolved to, so that
// a table evolved to put another column at an ordinal misses.
func (fa *fileAggregation) memoKey(sp *Split) string {
	dst := sp.AppendWire(nil)
	for _, col := range append(fa.keys[:len(fa.keys):len(fa.keys)], fa.args...) {
		dst = frame.AppendString(dst, col.Name)
		if col.Type != nil {
			dst = types.AppendType(dst, col.Type)
		}
	}
	return string(dst)
}

// bind resolves each key and argument column in a file's schema and returns
// the paths the reader must output, each once. Never nil: a count(*) alone
// reads no column.
func (fa *fileAggregation) bind(schema *parquet.Schema) []string {
	paths := []string{}
	resolve := func(col metastore.Column) (*parquet.Node, int) {
		if col.Type == nil {
			return nil, -1
		}
		n := schema.Resolve(col.Name)
		if n == nil || n.Kind != parquet.KindPrimitive || !parquet.TypeAt(n).Equals(col.Type) {
			return nil, -1 // absent, or of another type
		}
		for slot, p := range paths {
			if p == col.Name {
				return n, slot
			}
		}
		paths = append(paths, col.Name)
		return n, len(paths) - 1
	}
	fa.slots = fa.slots[:0]
	for _, col := range fa.keys {
		_, slot := resolve(col)
		fa.slots = append(fa.slots, slot)
	}
	fa.leaves = make([]*parquet.Node, len(fa.args))
	for i, col := range fa.args {
		var slot int
		fa.leaves[i], slot = resolve(col)
		fa.slots = append(fa.slots, slot)
	}
	return paths
}

// fromStats answers row group rg from its statistics if they hold every
// aggregate exactly — every row of rg passes the predicate, which
// AnswerFromStats guarantees — and reports whether it did.
func (fa *fileAggregation) fromStats(rg *parquet.RowGroupMeta) bool {
	for i, leaf := range fa.leaves {
		if leaf == nil {
			continue
		}
		cm := rg.Chunk(leaf.LeafIndex)
		if cm == nil || (fa.specs[i].Func != "count" && !cm.Stats.HasMinMax && cm.Stats.NullCount != rg.NumRows) {
			return false
		}
	}
	for i, a := range fa.specs {
		var b block.Block = &fa.one
		switch leaf := fa.leaves[i]; {
		case a.Column < 0:
			fa.one.Values[0] = rg.NumRows
		case a.Func == "count" && leaf == nil:
			continue // counts 0
		case a.Func == "count":
			fa.one.Values[0] = rg.NumRows - rg.Chunk(leaf.LeafIndex).Stats.NullCount
		case leaf == nil:
			continue // no min or max
		default:
			st := &rg.Chunk(leaf.LeafIndex).Stats
			v := st.Min(leaf.Prim)
			if a.Func == "max" {
				v = st.Max(leaf.Prim)
			}
			if v == nil {
				continue // every row is NULL
			}
			b = block.SingleValue(fa.args[i].Type, v)
		}
		if err := fa.p.AddGlobal(i, b); err != nil {
			fa.err = err
			return false
		}
	}
	return true
}

// addPage folds the rows of a row group the statistics did not answer. A
// column the file lacks is NULL in every row: a NULL key, an argument that
// adds nothing.
func (fa *fileAggregation) addPage(p *block.Page) error {
	n := p.Count()
	for i, slot := range fa.slots {
		switch {
		case slot >= 0:
			fa.cols[i] = p.Blocks[slot]
		case fa.nulls[i] != nil:
			fa.cols[i] = block.NewRunLengthBlock(fa.nulls[i], n)
		default:
			fa.cols[i] = nil // count(*) reads no column
		}
	}
	nk := len(fa.keys)
	return fa.p.AddRows(fa.cols[:nk], fa.cols[nk:], n)
}

// aggregateSource answers an aggregate split: from the memo, or from its
// file, whose partial it memoises. columns index the scan's output — the
// group keys, then the aggregates.
func (c *Connector) aggregateSource(h *TableHandle, sp *Split, t *metastore.Table, columns []int) (connector.PageSource, error) {
	for _, col := range columns {
		if col < 0 || col >= len(h.GroupBy)+len(h.Aggs) {
			return nil, fmt.Errorf("hive: column %d of a scan with %d keys and %d aggregates", col, len(h.GroupBy), len(h.Aggs))
		}
	}
	fa, err := newFileAggregation(h, t)
	if err != nil {
		return nil, err
	}
	src := &aggregateSource{fa: fa, columns: columns}
	key := fa.memoKey(sp)
	if page, ok := c.partials.Get(key); ok {
		src.page = page
		return src, nil
	}
	src.memoise = func(p *block.Page) { c.partials.Put(key, len(key), p) }
	file, entry, err := c.footer(sp)
	if err != nil {
		return nil, err
	}
	if prunedByMissingColumn(h, entry.schema) {
		_ = file.Close() // pruned split: nothing was read, nothing to report
		return src, nil
	}
	reader, err := parquet.NewReaderWithFooter(file, entry.meta, entry.schema, c.readerOptions(fa.bind(entry.schema), h.DataPreds, sp))
	if err != nil {
		_ = file.Close() // already failing: the reader error is the one to report
		return nil, err
	}
	if fa.fromStatsOK {
		reader.AnswerFromStats(fa.fromStats)
		if fa.err != nil {
			_ = reader.Close() // already failing: the fold error is the one to report
			return nil, fa.err
		}
	}
	src.next, src.close = reader.Next, reader.Close
	return src, nil
}

// aggregateSource emits a split's partial rows, if it has any (a global
// aggregate always has its one row): the memoised page, or the page it
// computes from what the footer did not answer on the first Next.
type aggregateSource struct {
	fa      *fileAggregation
	columns []int
	page    *block.Page                 // a memo hit; read-only
	next    func() (*block.Page, error) // nil: nothing to read
	close   func() error
	memoise func(*block.Page) // puts a computed page in the memo
	charge  func(held int64) error
	done    bool
}

// ChargeTo implements connector.ChargedSource: the groups a split folds
// from its file count against the query's memory as they grow, and a memo
// hit's page counts as what it hands on. A global aggregate's one group is
// constant size and charges nothing.
func (s *aggregateSource) ChargeTo(charge func(held int64) error) { s.charge = charge }

func (s *aggregateSource) Next() (*block.Page, error) {
	if s.done {
		return nil, io.EOF
	}
	s.done = true
	if s.page == nil {
		for s.next != nil {
			p, err := s.next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			if p.Count() == 0 {
				continue
			}
			if err := s.fa.addPage(p); err != nil {
				return nil, err
			}
			if s.charge != nil {
				if err := s.charge(s.fa.p.Bytes()); err != nil {
					return nil, err
				}
			}
		}
		s.page = s.fa.p.Emit(0, s.fa.p.Len(), false)
		s.memoise(s.page)
	} else if s.charge != nil && len(s.fa.keys) > 0 {
		// A memo hit's groups count as well: whether a query fits its
		// memory must not depend on what the memo holds.
		if err := s.charge(int64(s.page.SizeBytes())); err != nil {
			return nil, err
		}
	}
	if s.page.Count() == 0 {
		return nil, io.EOF
	}
	blocks := make([]block.Block, len(s.columns))
	for j, col := range s.columns {
		blocks[j] = s.page.Blocks[col]
	}
	return &block.Page{Blocks: blocks, N: s.page.Count()}, nil
}

func (s *aggregateSource) Close() error {
	s.done = true
	if s.close == nil {
		return nil
	}
	return s.close()
}
