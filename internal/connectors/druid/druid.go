// Package druid implements the Presto-Druid connector (§IV.B): it maps
// druid tables into the engine and pushes predicates, projections, limits
// and — the headline feature — entire grouped aggregations down to the
// store, so "only aggregated results are streamed into the Presto engine"
// (Fig 2). The connector bridges sub-second store latency with full SQL:
// joins and subqueries run in the engine, aggregations run in druid.
package druid

import (
	"fmt"
	"io"
	"sync"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	driver "prestolite/internal/druid"
	"prestolite/internal/expr"
	"prestolite/internal/frame"
	"prestolite/internal/obs"
)

// Connector is the Presto-Druid connector.
type Connector struct {
	name   string
	schema string // single logical schema name, default "default"
	client driver.Client

	// schemaCache avoids a broker round trip per metadata lookup (the
	// analyzer and optimizer each resolve the table during planning).
	schemaMu    sync.RWMutex
	schemaCache map[string][]connector.Column
}

// New creates a connector over a druid client.
func New(name string, client driver.Client) *Connector {
	return &Connector{name: name, schema: "default", client: client, schemaCache: map[string][]connector.Column{}}
}

// SnapshotVersion implements connector.SnapshotVersioner when the client
// can see store versions (embedded or latency-wrapped embedded clients).
// Remote HTTP clients cannot, so their tables are never result-cached.
func (c *Connector) SnapshotVersion(schema, table string) (int64, bool) {
	v, ok := c.client.(driver.Versioner)
	if !ok {
		return 0, false
	}
	return v.TableVersion(table)
}

// RegisterObsMetrics implements obs.MetricsSource: over an in-process store,
// the memo of sealed segments' partial aggregates appears as
// <catalog>.partials.* in /v1/stats snapshots.
func (c *Connector) RegisterObsMetrics(reg *obs.Registry) {
	if r, ok := c.client.(driver.PartialsReporter); ok {
		r.PartialsMetrics().RegisterObs(reg, c.name+".partials")
	}
}

func (c *Connector) tableColumns(table string) ([]connector.Column, error) {
	c.schemaMu.RLock()
	cols, ok := c.schemaCache[table]
	c.schemaMu.RUnlock()
	if ok {
		return cols, nil
	}
	raw, err := c.client.Schema(table)
	if err != nil {
		return nil, err
	}
	cols = make([]connector.Column, len(raw))
	for i, col := range raw {
		cols[i] = connector.Column{Name: col.Name, Type: col.Type}
	}
	c.schemaMu.Lock()
	c.schemaCache[table] = cols
	c.schemaMu.Unlock()
	return cols, nil
}

// Name implements connector.Connector.
func (c *Connector) Name() string { return c.name }

// Metadata implements connector.Connector.
func (c *Connector) Metadata() connector.Metadata { return (*druidMetadata)(c) }

// SplitManager implements connector.Connector.
func (c *Connector) SplitManager() connector.SplitManager { return (*druidSplits)(c) }

// RecordSetProvider implements connector.Connector.
func (c *Connector) RecordSetProvider() connector.RecordSetProvider { return (*druidRecords)(c) }

// TableHandle carries pushdown state; the whole native query shape lives
// here. Serializable RowExpressions were already lowered to native filters.
type TableHandle struct {
	Table string
	// Columns is the table schema (resolved once at GetTable).
	Columns []connector.Column
	// Filters are pushed predicates.
	Filters []expr.Comparison
	// Projection lists retained ordinals (nil = all).
	Projection []int
	// Aggregations + GroupBy when an aggregation was pushed.
	Aggregations []driver.Aggregation
	GroupByNames []string
	AggPushed    bool
	// Limit (-1 none).
	Limit int64
}

// Description implements connector.TableHandle.
func (h *TableHandle) Description() string {
	s := "druid:" + h.Table
	for _, f := range h.Filters {
		s += " filter[" + f.String() + "]"
	}
	if h.Projection != nil {
		s += fmt.Sprintf(" columns=%v", h.Projection)
	}
	if h.AggPushed {
		s += " aggregationPushdown=["
		for i, a := range h.Aggregations {
			if i > 0 {
				s += ", "
			}
			s += a.Func + "(" + a.Column + ")"
		}
		s += fmt.Sprintf("] groupBy=%v", h.GroupByNames)
	}
	if h.Limit >= 0 {
		s += fmt.Sprintf(" limit=%d", h.Limit)
	}
	return s
}

// Split is the single broker split: druid executes the (possibly
// aggregated) query as one unit.
type Split struct {
	Handle *TableHandle
}

// Description implements connector.Split.
func (s *Split) Description() string { return "druid:" + s.Handle.Table }

// AppendWire implements connector.Encoder.
func (h *TableHandle) AppendWire(dst []byte) []byte {
	dst = connector.AppendColumns(frame.AppendString(dst, h.Table), h.Columns)
	dst = frame.AppendInts(expr.AppendComparisons(dst, h.Filters), h.Projection)
	dst = frame.AppendUvarint(dst, uint64(len(h.Aggregations)))
	for _, a := range h.Aggregations {
		dst = frame.AppendString(frame.AppendString(frame.AppendString(dst, a.Func), a.Column), a.Name)
	}
	dst = frame.AppendBool(frame.AppendStrings(dst, h.GroupByNames), h.AggPushed)
	return frame.AppendVarint(dst, h.Limit)
}

// AppendWire implements connector.Encoder.
func (s *Split) AppendWire(dst []byte) []byte { return s.Handle.AppendWire(dst) }

// DecodeHandle implements connector.Decoder.
func (c *Connector) DecodeHandle(r *frame.Reader) connector.TableHandle { return readHandle(r) }

// DecodeSplit implements connector.Decoder.
func (c *Connector) DecodeSplit(r *frame.Reader) connector.Split {
	return &Split{Handle: readHandle(r)}
}

func readHandle(r *frame.Reader) *TableHandle {
	h := &TableHandle{Table: r.Str(), Columns: connector.ReadColumns(r), Filters: expr.ReadComparisons(r), Projection: r.Ints()}
	if n := r.Count(); n > 0 {
		h.Aggregations = make([]driver.Aggregation, n)
		for i := range h.Aggregations {
			h.Aggregations[i] = driver.Aggregation{Func: r.Str(), Column: r.Str(), Name: r.Str()}
		}
	}
	h.GroupByNames = r.Strs()
	h.AggPushed = r.Bool()
	h.Limit = r.Varint()
	return h
}

// ---------------------------------------------------------------------------

type druidMetadata Connector

func (m *druidMetadata) ListTables(schema string) ([]string, error) {
	if schema != m.schema {
		return nil, fmt.Errorf("druid: schema %q does not exist", schema)
	}
	return m.client.Tables()
}

func (m *druidMetadata) GetTable(schema, table string) (*connector.TableSchema, connector.TableHandle, error) {
	if schema != m.schema {
		return nil, nil, fmt.Errorf("druid: schema %q does not exist", schema)
	}
	out, err := (*Connector)(m).tableColumns(table)
	if err != nil {
		return nil, nil, err
	}
	return &connector.TableSchema{Catalog: m.name, Schema: schema, Table: table, Columns: out},
		&TableHandle{Table: table, Columns: out, Limit: -1}, nil
}

type druidSplits Connector

func (sm *druidSplits) Splits(handle connector.TableHandle) ([]connector.Split, error) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return nil, fmt.Errorf("druid: foreign table handle %T", handle)
	}
	// One split: the store answers a query over its segments one after
	// another on the calling goroutine, and a pushed aggregation or limit is
	// applied once, over the whole table.
	return []connector.Split{&Split{Handle: h}}, nil
}

type druidRecords Connector

func (r *druidRecords) CreatePageSource(handle connector.TableHandle, split connector.Split, columns []int) (connector.PageSource, error) {
	c := (*Connector)(r)
	sp, ok := split.(*Split)
	if !ok {
		return nil, fmt.Errorf("druid: foreign split %T", split)
	}
	h := sp.Handle

	// Build the native query from the handle.
	q := driver.Query{Table: h.Table, Filters: h.Filters, Limit: h.Limit}
	if h.AggPushed {
		q.GroupBy = h.GroupByNames
		q.Aggregations = h.Aggregations
	} else {
		for _, ord := range effectiveColumns(h) {
			q.Columns = append(q.Columns, h.Columns[ord].Name)
		}
	}
	return &querySource{c: c, q: q, columns: columns}, nil
}

// querySource runs its native query at the first Next and hands out the
// answer's pages, selecting the requested output channels: the blocks pass
// through as the store built them. A grouped answer's groups count against
// the query's memory (connector.ChargedSource) before a page goes out; a
// global aggregate's one row is constant size, and a select's pages alias
// segment memory the store holds anyway, so neither is charged.
type querySource struct {
	c       *Connector
	q       driver.Query
	columns []int
	charge  func(held int64) error
	pages   []*block.Page
	ran     bool
}

// ChargeTo implements connector.ChargedSource.
func (s *querySource) ChargeTo(charge func(held int64) error) { s.charge = charge }

func (s *querySource) Next() (*block.Page, error) {
	if !s.ran {
		s.ran = true
		if err := s.run(); err != nil {
			return nil, err
		}
	}
	if len(s.pages) == 0 {
		return nil, io.EOF
	}
	p := s.pages[0]
	s.pages = s.pages[1:]
	return p, nil
}

func (s *querySource) run() error {
	res, err := s.c.client.Execute(s.q)
	if err != nil {
		return fmt.Errorf("druid: executing native query: %w", err)
	}
	if s.charge != nil && len(s.q.GroupBy) > 0 {
		var held int64
		for _, p := range res.Pages {
			held += int64(p.SizeBytes())
		}
		if err := s.charge(held); err != nil {
			return err
		}
	}
	s.pages = make([]*block.Page, len(res.Pages))
	for i, p := range res.Pages {
		s.pages[i] = &block.Page{Blocks: make([]block.Block, len(s.columns)), N: p.N}
		for ch, col := range s.columns {
			if col < 0 || col >= len(p.Blocks) {
				return fmt.Errorf("druid: native result has %d columns, the scan reads column %d", len(p.Blocks), col)
			}
			s.pages[i].Blocks[ch] = p.Blocks[col]
		}
	}
	return nil
}

func (s *querySource) Close() error {
	s.ran, s.pages = true, nil
	return nil
}

func effectiveColumns(h *TableHandle) []int {
	if h.Projection != nil {
		return h.Projection
	}
	out := make([]int, len(h.Columns))
	for i := range out {
		out[i] = i
	}
	return out
}

// ---------------------------------------------------------------------------
// Pushdowns.

var (
	_ connector.FilterPushdown      = (*Connector)(nil)
	_ connector.ProjectionPushdown  = (*Connector)(nil)
	_ connector.LimitPushdown       = (*Connector)(nil)
	_ connector.AggregationPushdown = (*Connector)(nil)
)

// PushFilter lowers supported conjuncts to native druid filters.
func (c *Connector) PushFilter(handle connector.TableHandle, predicate expr.RowExpression) (connector.TableHandle, expr.RowExpression, bool) {
	h, ok := handle.(*TableHandle)
	if !ok || h.AggPushed {
		return handle, predicate, false
	}
	nh := *h
	nh.Filters = append([]expr.Comparison(nil), h.Filters...)
	residual, pushed := connector.PushComparisons(predicate, connector.ColumnByOrdinal(h.Columns), func(cmp expr.Comparison) bool {
		nh.Filters = append(nh.Filters, cmp)
		return true
	})
	return &nh, residual, pushed
}

// PushProjection narrows the native select list.
func (c *Connector) PushProjection(handle connector.TableHandle, columns []int) (connector.TableHandle, bool) {
	h, ok := handle.(*TableHandle)
	if !ok || h.AggPushed {
		return handle, false
	}
	nh := *h
	nh.Projection = append([]int(nil), columns...)
	return &nh, true
}

// PushLimit is guaranteed: the single broker split applies it globally.
func (c *Connector) PushLimit(handle connector.TableHandle, limit int64) (connector.TableHandle, bool, bool) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return handle, false, false
	}
	nh := *h
	if nh.Limit < 0 || limit < nh.Limit {
		nh.Limit = limit
	}
	return &nh, true, true
}

// PushAggregation absorbs a grouped aggregation (§IV.B, Fig 2): druid
// executes it natively over its in-memory structures and only aggregated
// rows are streamed into the engine. Its one broker split covers the whole
// table, so the answer is whole, not per split.
func (c *Connector) PushAggregation(handle connector.TableHandle, aggs []connector.AggregateSpec, groupBy []int) (connector.TableHandle, bool, bool) {
	h, ok := handle.(*TableHandle)
	if !ok || h.AggPushed {
		return handle, false, false
	}
	cols := h.Columns
	nh := *h
	nh.AggPushed = true
	for _, g := range groupBy {
		// groupBy ordinals arrive relative to the handle's effective
		// projection.
		ord := resolveOrdinal(h, g)
		nh.GroupByNames = append(nh.GroupByNames, cols[ord].Name)
	}
	for _, a := range aggs {
		na := driver.Aggregation{Func: a.Function, Name: a.OutputName}
		if a.ArgColumn >= 0 {
			ord := resolveOrdinal(h, a.ArgColumn)
			na.Column = cols[ord].Name
		}
		switch a.Function {
		case "count", "sum", "min", "max", "avg":
		default:
			return handle, false, false
		}
		nh.Aggregations = append(nh.Aggregations, na)
	}
	nh.Projection = nil
	return &nh, false, true
}

func resolveOrdinal(h *TableHandle, ch int) int {
	if h.Projection != nil {
		return h.Projection[ch]
	}
	return ch
}
