package hive

import (
	"errors"
	"fmt"
	"io"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/execution/vector"
	"prestolite/internal/metastore"
	"prestolite/internal/parquet"
	"prestolite/internal/types"
)

// Global count, min and max from the Parquet footer (§IV.B, §V.F). A file's
// footer holds, per row group and column, the row count, the NULL count and
// the min and max; the footer cache already holds it on every worker
// (§VII.B). So a split answers a pushed global aggregate row group by row
// group: a row group the statistics prune adds nothing; one whose every
// predicate they cover, and whose every aggregate they hold exactly, is
// answered from them; only the rest is read. The split emits one partial
// row, and the FINAL above the scan merges the splits.

var _ connector.AggregationPushdown = (*Connector)(nil)

// Aggregate is one aggregate a hive scan absorbed: count(*) (Column −1), or
// the count, min or max of a top-level data column, by table ordinal.
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

// PushAggregation implements connector.AggregationPushdown for a global
// count, min or max over a scan that carries no limit and no nested paths.
// The answer is per split (perSplit): each split's footer answers for its
// own file. The legacy reader and a reader without statistics (§V.C, the
// NoPredicatePushdown ablation) read every row, so they absorb nothing.
func (c *Connector) PushAggregation(handle connector.TableHandle, aggs []connector.AggregateSpec, groupBy []int) (connector.TableHandle, bool, bool) {
	h, ok := handle.(*TableHandle)
	if !ok || h.Aggs != nil || h.Limit >= 0 || h.NestedPaths != nil || len(groupBy) > 0 || len(aggs) == 0 ||
		c.opts.UseLegacyReader || c.opts.Reader.NoPredicatePushdown {
		return handle, false, false
	}
	t, err := c.ms.GetTable(h.Schema, h.Table)
	if err != nil {
		return handle, false, false
	}
	nh := *h
	nh.Projection = nil
	for _, a := range aggs {
		pa := Aggregate{Func: a.Function, Column: a.ArgColumn}
		if a.ArgColumn >= 0 && h.Projection != nil {
			if a.ArgColumn >= len(h.Projection) {
				return handle, false, false
			}
			pa.Column = h.Projection[a.ArgColumn]
		}
		if footerAnswers(pa, t) != nil {
			return handle, false, false
		}
		nh.Aggs = append(nh.Aggs, pa)
	}
	return &nh, true, true
}

// footerAnswers checks that a row group's statistics can hold a's answer:
// count(*), or the count, min or max of a top-level data column of a
// primitive kind other than double. Double statistics leave NaN out and
// record no NaN count, so they prove no double min or max.
func footerAnswers(a Aggregate, t *metastore.Table) error {
	switch {
	case a.Func == "count" && a.Column == -1:
		return nil
	case a.Func != "count" && a.Func != "min" && a.Func != "max":
		return fmt.Errorf("hive: no answer from statistics for %s", a)
	case a.Column < 0 || a.Column >= len(t.Columns):
		return fmt.Errorf("hive: aggregate %s: %s.%s has no data column %d", a, t.Schema, t.Name, a.Column)
	}
	switch t.Columns[a.Column].Type.Kind {
	case types.KindBigint, types.KindInteger, types.KindDate, types.KindVarchar, types.KindBoolean:
		return nil
	}
	return fmt.Errorf("hive: no answer from statistics for %s over a %s column", a, t.Columns[a.Column].Type)
}

// splitAggregation is a handle's aggregates over one split: one kernel per
// aggregate, folded with what each row group's statistics answer and with
// the rows of the row groups they do not.
type splitAggregation struct {
	specs []Aggregate
	aggs  []vector.Agg
	// cols[i] is aggregate i's table column, the zero Column for count(*).
	cols []metastore.Column
	// leaves[i] is aggregate i's column in the file, nil when the file has
	// no such column (schema evolution, §V.A: it reads as NULL, so it counts
	// 0 and has no min or max). slots[i] is its block in the reader's pages.
	leaves  []*parquet.Node
	slots   []int
	columns []int // the scan's output: aggregate indexes

	err  error // a row group's answer that did not fold
	one  block.Int64Block
	ids  []int32 // all 0: the global group's id, one per row
	view vector.View
}

// newSplitAggregation binds specs to the table. An unknown function, an
// ordinal outside the table or a column the statistics cannot answer is an
// error here, before any file is touched.
func newSplitAggregation(specs []Aggregate, t *metastore.Table, columns []int) (*splitAggregation, error) {
	sa := &splitAggregation{specs: specs, columns: columns, one: block.Int64Block{Values: make([]int64, 1)}, ids: make([]int32, 1)}
	for _, col := range columns {
		if col < 0 || col >= len(specs) {
			return nil, fmt.Errorf("hive: column %d of a scan with %d aggregates", col, len(specs))
		}
	}
	for _, a := range specs {
		if err := footerAnswers(a, t); err != nil {
			return nil, err
		}
		var col metastore.Column
		if a.Column >= 0 {
			col = t.Columns[a.Column]
		}
		agg, ok := vector.NewAgg(a.Func, col.Type)
		if !ok {
			return nil, fmt.Errorf("hive: no kernel for %s", a)
		}
		agg.Grow(1) // the one global group
		sa.aggs = append(sa.aggs, agg)
		sa.cols = append(sa.cols, col)
	}
	sa.leaves = make([]*parquet.Node, len(specs))
	sa.slots = make([]int, len(specs))
	return sa, nil
}

// bind resolves each aggregate's column in a file's schema and returns the
// paths the reader must output for the row groups it reads, one per
// aggregate over a column the file has. Never nil: a count(*) alone reads
// no column.
func (sa *splitAggregation) bind(schema *parquet.Schema) []string {
	paths := []string{}
	for i, col := range sa.cols {
		sa.leaves[i], sa.slots[i] = nil, -1
		if col.Type == nil {
			continue
		}
		n := schema.Resolve(col.Name)
		if n == nil || n.Kind != parquet.KindPrimitive || !parquet.TypeAt(n).Equals(col.Type) {
			continue // absent, or of another type: evolveBlock reads it as NULL
		}
		sa.leaves[i], sa.slots[i] = n, len(paths)
		paths = append(paths, col.Name)
	}
	return paths
}

// fromStats answers row group rg from its statistics if they hold every
// aggregate exactly — every row of rg passes the predicate, which
// AnswerFromStats guarantees — and reports whether it did.
func (sa *splitAggregation) fromStats(rg *parquet.RowGroupMeta) bool {
	for i, leaf := range sa.leaves {
		if leaf == nil {
			continue
		}
		cm := rg.Chunk(leaf.LeafIndex)
		if cm == nil || (sa.specs[i].Func != "count" && !cm.Stats.HasMinMax && cm.Stats.NullCount != rg.NumRows) {
			return false
		}
	}
	for i, a := range sa.specs {
		var b block.Block = &sa.one
		switch leaf := sa.leaves[i]; {
		case a.Column < 0:
			sa.one.Values[0] = rg.NumRows
		case a.Func == "count" && leaf == nil:
			continue // counts 0
		case a.Func == "count":
			sa.one.Values[0] = rg.NumRows - rg.Chunk(leaf.LeafIndex).Stats.NullCount
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
			b = block.SingleValue(sa.cols[i].Type, v)
		}
		if err := sa.aggs[i].AddIntermediate(sa.ids[:1], b, 1); err != nil {
			sa.err = err
			return false
		}
	}
	return true
}

// addPage folds the rows of a row group the statistics did not answer.
func (sa *splitAggregation) addPage(p *block.Page) error {
	n := p.Count()
	if len(sa.ids) < n {
		sa.ids = make([]int32, n)
	}
	ids := sa.ids[:n]
	for i, a := range sa.specs {
		switch {
		case a.Column < 0:
			sa.aggs[i].AddRaw(ids, nil, n)
		case sa.leaves[i] == nil:
			// NULL in every row: no count, no min or max.
		default:
			if b := p.Blocks[sa.slots[i]]; !vector.Of(b, &sa.view) {
				return fmt.Errorf("hive: %s over a %T", a, b)
			}
			sa.aggs[i].AddRaw(ids, &sa.view, n)
		}
	}
	return nil
}

// page is the split's one partial row, in the scan's column order.
func (sa *splitAggregation) page() *block.Page {
	blocks := make([]block.Block, len(sa.columns))
	for j, col := range sa.columns {
		blocks[j] = sa.aggs[col].EmitIntermediate(0, 1)
	}
	return &block.Page{Blocks: blocks, N: 1}
}

// aggregateSource emits a split's partial row: it reads what the footer did
// not answer on the first Next.
type aggregateSource struct {
	sa    *splitAggregation
	next  func() (*block.Page, error) // nil: nothing to read
	close func() error
	done  bool
}

func (s *aggregateSource) Next() (*block.Page, error) {
	if s.done {
		return nil, io.EOF
	}
	s.done = true
	for s.next != nil {
		p, err := s.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := s.sa.addPage(p); err != nil {
			return nil, err
		}
	}
	return s.sa.page(), nil
}

func (s *aggregateSource) Close() error {
	s.done = true
	if s.close == nil {
		return nil
	}
	return s.close()
}
