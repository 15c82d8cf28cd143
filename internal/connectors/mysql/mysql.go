// Package mysql implements the Presto-MySQL connector over the mysqlite
// substrate: unified SQL over the transactional store without data copy
// (§IV: "users could join Hadoop data with MySQL data ... no need to copy
// any data"). Predicates, projections and limits push down so only
// filtered, projected and limited rows stream into the engine.
package mysql

import (
	"fmt"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/frame"
	"prestolite/internal/mysqlite"
	"prestolite/internal/types"
)

// Connector maps a mysqlite database into the engine under one schema.
type Connector struct {
	name   string
	schema string
	db     *mysqlite.DB
}

// New creates a connector; schema is the single logical schema name.
func New(name, schema string, db *mysqlite.DB) *Connector {
	return &Connector{name: name, schema: schema, db: db}
}

// Name implements connector.Connector.
func (c *Connector) Name() string { return c.name }

// Metadata implements connector.Connector.
func (c *Connector) Metadata() connector.Metadata { return (*mysqlMetadata)(c) }

// SplitManager implements connector.Connector.
func (c *Connector) SplitManager() connector.SplitManager { return (*mysqlSplits)(c) }

// RecordSetProvider implements connector.Connector.
func (c *Connector) RecordSetProvider() connector.RecordSetProvider { return (*mysqlRecords)(c) }

// TableHandle carries pushdown state.
type TableHandle struct {
	Table      string
	Columns    []connector.Column
	Predicates []expr.Comparison
	Projection []int
	Limit      int64
}

// Description implements connector.TableHandle.
func (h *TableHandle) Description() string {
	s := "mysql:" + h.Table
	for _, p := range h.Predicates {
		s += " filter[" + p.String() + "]"
	}
	if h.Projection != nil {
		s += fmt.Sprintf(" columns=%v", h.Projection)
	}
	if h.Limit >= 0 {
		s += fmt.Sprintf(" limit=%d", h.Limit)
	}
	return s
}

// Split is the single split (row stores stream one result set).
type Split struct{ Handle *TableHandle }

// Description implements connector.Split.
func (s *Split) Description() string { return "mysql:" + s.Handle.Table }

// AppendWire implements connector.Encoder.
func (h *TableHandle) AppendWire(dst []byte) []byte {
	dst = connector.AppendColumns(frame.AppendString(dst, h.Table), h.Columns)
	dst = frame.AppendInts(expr.AppendComparisons(dst, h.Predicates), h.Projection)
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
	return &TableHandle{
		Table:      r.Str(),
		Columns:    connector.ReadColumns(r),
		Predicates: expr.ReadComparisons(r),
		Projection: r.Ints(),
		Limit:      r.Varint(),
	}
}

type mysqlMetadata Connector

func (m *mysqlMetadata) ListTables(schema string) ([]string, error) {
	if schema != m.schema {
		return nil, fmt.Errorf("mysql: schema %q does not exist", schema)
	}
	return m.db.Tables(), nil
}

func (m *mysqlMetadata) GetTable(schema, table string) (*connector.TableSchema, connector.TableHandle, error) {
	if schema != m.schema {
		return nil, nil, fmt.Errorf("mysql: schema %q does not exist", schema)
	}
	t, err := m.db.Table(table)
	if err != nil {
		return nil, nil, err
	}
	cols := make([]connector.Column, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = connector.Column{Name: c.Name, Type: c.Type}
	}
	return &connector.TableSchema{Catalog: m.name, Schema: schema, Table: table, Columns: cols},
		&TableHandle{Table: table, Columns: cols, Limit: -1}, nil
}

type mysqlSplits Connector

func (sm *mysqlSplits) Splits(handle connector.TableHandle) ([]connector.Split, error) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return nil, fmt.Errorf("mysql: foreign table handle %T", handle)
	}
	return []connector.Split{&Split{Handle: h}}, nil
}

type mysqlRecords Connector

func (r *mysqlRecords) CreatePageSource(handle connector.TableHandle, split connector.Split, columns []int) (connector.PageSource, error) {
	c := (*Connector)(r)
	sp, ok := split.(*Split)
	if !ok {
		return nil, fmt.Errorf("mysql: foreign split %T", split)
	}
	h := sp.Handle
	// Resolve requested channels through the pushed projection.
	effective := make([]int, len(columns))
	for i, col := range columns {
		if h.Projection != nil {
			effective[i] = h.Projection[col]
		} else {
			effective[i] = col
		}
	}
	rows, err := c.db.Scan(h.Table, h.Predicates, effective, h.Limit)
	if err != nil {
		return nil, err
	}
	outTypes := make([]*types.Type, len(effective))
	for i, ord := range effective {
		outTypes[i] = h.Columns[ord].Type
	}
	pb := block.NewPageBuilder(outTypes)
	for _, row := range rows {
		pb.AppendRow(row)
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

// PushFilter lowers supported conjuncts to store predicates.
func (c *Connector) PushFilter(handle connector.TableHandle, predicate expr.RowExpression) (connector.TableHandle, expr.RowExpression, bool) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return handle, predicate, false
	}
	nh := *h
	nh.Predicates = append([]expr.Comparison(nil), h.Predicates...)
	residual, pushed := connector.PushComparisons(predicate, connector.ColumnByOrdinal(h.Columns), func(cmp expr.Comparison) bool {
		nh.Predicates = append(nh.Predicates, cmp)
		return true
	})
	return &nh, residual, pushed
}

// PushProjection implements connector.ProjectionPushdown.
func (c *Connector) PushProjection(handle connector.TableHandle, columns []int) (connector.TableHandle, bool) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return handle, false
	}
	nh := *h
	nh.Projection = append([]int(nil), columns...)
	return &nh, true
}

// PushLimit is guaranteed: a single split applies it globally after all
// pushed predicates.
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
