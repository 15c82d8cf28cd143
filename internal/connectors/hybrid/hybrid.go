// Package hybrid implements the batch + real-time table connector: one
// logical table backed by a historical side (typically parquet/hive) and a
// real-time side (druid), split on an event-time watermark. The connector
// only serves metadata — the optimizer expands every hybrid scan into
// union(historical scan, real-time scan) with the boundary predicate on
// each side, so one SQL query transparently spans batch history and
// seconds-old events.
package hybrid

import (
	"fmt"
	"sync"

	"prestolite/internal/connector"
	"prestolite/internal/types"
)

// TableConfig declares one hybrid table.
type TableConfig struct {
	Historical connector.HybridPart
	Realtime   connector.HybridPart
	// TimeColumn is the Bigint column the boundary applies to.
	TimeColumn string
	// Boundary is the watermark: historical rows have TimeColumn < Boundary,
	// real-time rows TimeColumn >= Boundary.
	Boundary int64
}

// Connector is the hybrid connector. It resolves table schemas from the
// real-time side (validating the historical side matches) and reports
// HybridSpecs to the optimizer; scans never execute here.
type Connector struct {
	name     string
	schema   string
	catalogs *connector.Registry

	mu     sync.RWMutex
	tables map[string]TableConfig
}

// New creates a hybrid connector resolving parts through the given catalog
// registry.
func New(name string, catalogs *connector.Registry) *Connector {
	return &Connector{name: name, schema: "default", catalogs: catalogs, tables: map[string]TableConfig{}}
}

// AddTable declares a hybrid table. Side schemas are validated lazily at
// GetTable (the parts may not be registered yet).
func (c *Connector) AddTable(table string, cfg TableConfig) error {
	if cfg.TimeColumn == "" {
		return fmt.Errorf("hybrid: table %q needs a time column", table)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[table]; exists {
		return fmt.Errorf("hybrid: table %q already declared", table)
	}
	c.tables[table] = cfg
	return nil
}

// TableHandle names a hybrid table plus its resolved spec.
type TableHandle struct {
	Table string
	Spec  connector.HybridSpec
}

// Description implements connector.TableHandle.
func (h *TableHandle) Description() string {
	return fmt.Sprintf("hybrid:%s [%s.%s.%s | %s >= %d | %s.%s.%s]",
		h.Table,
		h.Spec.Historical.Catalog, h.Spec.Historical.Schema, h.Spec.Historical.Table,
		h.Spec.TimeColumn, h.Spec.Boundary,
		h.Spec.Realtime.Catalog, h.Spec.Realtime.Schema, h.Spec.Realtime.Table)
}

// Name implements connector.Connector.
func (c *Connector) Name() string { return c.name }

// Metadata implements connector.Connector.
func (c *Connector) Metadata() connector.Metadata { return (*hybridMetadata)(c) }

// SplitManager implements connector.Connector. Hybrid scans must be
// expanded by the optimizer, so reaching this is a planning bug.
func (c *Connector) SplitManager() connector.SplitManager { return unplanned{c.name} }

// RecordSetProvider implements connector.Connector.
func (c *Connector) RecordSetProvider() connector.RecordSetProvider { return unplanned{c.name} }

// HybridSpec implements connector.HybridTable.
func (c *Connector) HybridSpec(handle connector.TableHandle) (connector.HybridSpec, bool) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return connector.HybridSpec{}, false
	}
	return h.Spec, true
}

var _ connector.HybridTable = (*Connector)(nil)

type hybridMetadata Connector

func (m *hybridMetadata) ListTables(schema string) ([]string, error) {
	if schema != m.schema {
		return nil, fmt.Errorf("hybrid: schema %q does not exist", schema)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.tables))
	for name := range m.tables {
		out = append(out, name)
	}
	return out, nil
}

func (m *hybridMetadata) GetTable(schema, table string) (*connector.TableSchema, connector.TableHandle, error) {
	if schema != m.schema {
		return nil, nil, fmt.Errorf("hybrid: schema %q does not exist", schema)
	}
	c := (*Connector)(m)
	c.mu.RLock()
	cfg, ok := c.tables[table]
	c.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("hybrid: table %q does not exist", table)
	}
	histCols, err := c.sideColumns(cfg.Historical)
	if err != nil {
		return nil, nil, fmt.Errorf("hybrid: table %q historical side: %w", table, err)
	}
	rtCols, err := c.sideColumns(cfg.Realtime)
	if err != nil {
		return nil, nil, fmt.Errorf("hybrid: table %q real-time side: %w", table, err)
	}
	if err := matchColumns(histCols, rtCols); err != nil {
		return nil, nil, fmt.Errorf("hybrid: table %q sides disagree: %w", table, err)
	}
	tc := -1
	for i, col := range rtCols {
		if col.Name == cfg.TimeColumn {
			tc = i
			break
		}
	}
	if tc < 0 {
		return nil, nil, fmt.Errorf("hybrid: table %q has no time column %q", table, cfg.TimeColumn)
	}
	if rtCols[tc].Type.Kind != types.KindBigint {
		return nil, nil, fmt.Errorf("hybrid: time column %q must be bigint, is %s", cfg.TimeColumn, rtCols[tc].Type)
	}
	spec := connector.HybridSpec{
		Historical: cfg.Historical,
		Realtime:   cfg.Realtime,
		TimeColumn: cfg.TimeColumn,
		Boundary:   cfg.Boundary,
	}
	return &connector.TableSchema{Catalog: c.name, Schema: schema, Table: table, Columns: rtCols},
		&TableHandle{Table: table, Spec: spec}, nil
}

func (c *Connector) sideColumns(part connector.HybridPart) ([]connector.Column, error) {
	conn, err := c.catalogs.Get(part.Catalog)
	if err != nil {
		return nil, err
	}
	schema, _, err := conn.Metadata().GetTable(part.Schema, part.Table)
	if err != nil {
		return nil, err
	}
	return schema.Columns, nil
}

func matchColumns(hist, rt []connector.Column) error {
	if len(hist) != len(rt) {
		return fmt.Errorf("%d historical columns vs %d real-time", len(hist), len(rt))
	}
	for i := range rt {
		if hist[i].Name != rt[i].Name {
			return fmt.Errorf("column %d: %q vs %q", i, hist[i].Name, rt[i].Name)
		}
		if hist[i].Type.String() != rt[i].Type.String() {
			return fmt.Errorf("column %q: %s vs %s", rt[i].Name, hist[i].Type, rt[i].Type)
		}
	}
	return nil
}

// unplanned rejects execution-time calls: hybrid scans exist only between
// analysis and the optimizer's expansion pass.
type unplanned struct{ name string }

func (u unplanned) Splits(connector.TableHandle) ([]connector.Split, error) {
	return nil, fmt.Errorf("%s: hybrid scan was not expanded by the optimizer", u.name)
}

func (u unplanned) CreatePageSource(connector.TableHandle, connector.Split, []int) (connector.PageSource, error) {
	return nil, fmt.Errorf("%s: hybrid scan was not expanded by the optimizer", u.name)
}
