// Package elasticsearch implements the Presto-Elasticsearch connector
// (§IV): "we map each Elasticsearch index into a table. Each Elasticsearch
// field is mapped into a column." Term and range filters, source filtering
// (projection) and size (limit) push down into the store's search API.
package elasticsearch

import (
	"encoding/gob"
	"fmt"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/elastic"
	"prestolite/internal/expr"
	"prestolite/internal/types"
)

func init() {
	gob.Register(&TableHandle{})
	gob.Register(&Split{})
}

// Connector maps one elastic store into a catalog under a single schema.
type Connector struct {
	name   string
	schema string
	store  *elastic.Store
}

// New creates the connector.
func New(name string, store *elastic.Store) *Connector {
	return &Connector{name: name, schema: "default", store: store}
}

// Name implements connector.Connector.
func (c *Connector) Name() string { return c.name }

// Metadata implements connector.Connector.
func (c *Connector) Metadata() connector.Metadata { return (*esMetadata)(c) }

// SplitManager implements connector.Connector.
func (c *Connector) SplitManager() connector.SplitManager { return (*esSplits)(c) }

// RecordSetProvider implements connector.Connector.
func (c *Connector) RecordSetProvider() connector.RecordSetProvider { return (*esRecords)(c) }

// TableHandle carries the index identity plus pushed-down search state.
type TableHandle struct {
	Index   string
	Columns []connector.Column
	// Filters are the pushed comparisons in the order they were pushed; the
	// search query splits them into term and range filters.
	Filters []expr.Comparison
	// Projection lists retained ordinals (nil = all).
	Projection []int
	// Limit (-1 = none) maps to the search size.
	Limit int64
}

// Description implements connector.TableHandle.
func (h *TableHandle) Description() string {
	s := "elasticsearch:" + h.Index
	for _, f := range h.Filters {
		kind := " range["
		if isTerm(f) {
			kind = " term["
		}
		s += kind + f.String() + "]"
	}
	if h.Projection != nil {
		s += fmt.Sprintf(" source=%v", h.Projection)
	}
	if h.Limit >= 0 {
		s += fmt.Sprintf(" size=%d", h.Limit)
	}
	return s
}

// Split is the single search split.
type Split struct{ Handle *TableHandle }

// Description implements connector.Split.
func (s *Split) Description() string { return "elasticsearch:" + s.Handle.Index }

type esMetadata Connector

func (m *esMetadata) ListSchemas() ([]string, error) { return []string{m.schema}, nil }

func (m *esMetadata) ListTables(schema string) ([]string, error) {
	if schema != m.schema {
		return nil, fmt.Errorf("elasticsearch: schema %q does not exist", schema)
	}
	return m.store.Indexes(), nil
}

func (m *esMetadata) GetTable(schema, table string) (*connector.TableSchema, connector.TableHandle, error) {
	if schema != m.schema {
		return nil, nil, fmt.Errorf("elasticsearch: schema %q does not exist", schema)
	}
	idx, err := m.store.GetIndex(table)
	if err != nil {
		return nil, nil, err
	}
	cols := make([]connector.Column, len(idx.Fields))
	for i, f := range idx.Fields {
		cols[i] = connector.Column{Name: f.Name, Type: f.Type}
	}
	return &connector.TableSchema{Catalog: m.name, Schema: schema, Table: table, Columns: cols},
		&TableHandle{Index: table, Columns: cols, Limit: -1}, nil
}

type esSplits Connector

func (sm *esSplits) Splits(handle connector.TableHandle) ([]connector.Split, error) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return nil, fmt.Errorf("elasticsearch: foreign table handle %T", handle)
	}
	return []connector.Split{&Split{Handle: h}}, nil
}

type esRecords Connector

func (r *esRecords) CreatePageSource(handle connector.TableHandle, split connector.Split, columns []int) (connector.PageSource, error) {
	c := (*Connector)(r)
	sp, ok := split.(*Split)
	if !ok {
		return nil, fmt.Errorf("elasticsearch: foreign split %T", split)
	}
	h := sp.Handle
	effective := make([]int, len(columns))
	for i, col := range columns {
		if h.Projection != nil {
			effective[i] = h.Projection[col]
		} else {
			effective[i] = col
		}
	}
	source := make([]string, len(effective))
	outTypes := make([]*types.Type, len(effective))
	for i, ord := range effective {
		source[i] = h.Columns[ord].Name
		outTypes[i] = h.Columns[ord].Type
	}
	if len(source) == 0 {
		// count(*)-style scans still need hit counts: fetch one field.
		source = []string{h.Columns[0].Name}
	}
	q := elastic.Query{Index: h.Index, Terms: map[string]string{}, Source: source, Size: h.Limit}
	for _, f := range h.Filters {
		if isTerm(f) {
			q.Terms[f.Column] = f.Values[0].(string)
		} else {
			q.Ranges = append(q.Ranges, f)
		}
	}
	_, hits, err := c.store.Search(q)
	if err != nil {
		return nil, err
	}
	pb := block.NewPageBuilder(outTypes)
	for _, hit := range hits {
		pb.AppendRow(hit[:len(outTypes)])
	}
	return &connector.SlicePageSource{Pages: []*block.Page{pb.Build()}}, nil
}

// ---------------------------------------------------------------------------
// Pushdowns.

var (
	_ connector.FilterPushdown     = (*Connector)(nil)
	_ connector.ProjectionPushdown = (*Connector)(nil)
	_ connector.LimitPushdown      = (*Connector)(nil)
)

// isTerm reports whether a pushed comparison runs as a term query (string
// equality, served by the inverted index) rather than as a range filter.
func isTerm(f expr.Comparison) bool {
	_, isStr := f.Values[0].(string)
	return f.Op == expr.OpEq && isStr
}

// PushFilter lowers conjuncts to term queries (varchar equality) and range
// filters (the other comparisons against one constant).
func (c *Connector) PushFilter(handle connector.TableHandle, predicate expr.RowExpression) (connector.TableHandle, expr.RowExpression, bool) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return handle, predicate, false
	}
	nh := *h
	nh.Filters = append([]expr.Comparison(nil), h.Filters...)
	residual, pushed := connector.PushComparisons(predicate, connector.ColumnByOrdinal(h.Columns), func(cmp expr.Comparison) bool {
		if cmp.Op == expr.OpIn {
			return false
		}
		if isTerm(cmp) {
			// Two different terms on one field can never both match; the
			// second stays with the engine, which then produces zero rows.
			for _, f := range nh.Filters {
				if isTerm(f) && f.Column == cmp.Column {
					return f.Values[0] == cmp.Values[0]
				}
			}
		}
		nh.Filters = append(nh.Filters, cmp)
		return true
	})
	return &nh, residual, pushed
}

// PushProjection implements source filtering.
func (c *Connector) PushProjection(handle connector.TableHandle, columns []int) (connector.TableHandle, bool) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return handle, false
	}
	nh := *h
	nh.Projection = append([]int(nil), columns...)
	return &nh, true
}

// PushLimit maps to the search size; guaranteed (single split).
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
