// Package memory implements an in-memory connector: tables are slices of
// pages. It is the simplest full implementation of the connector SPI and the
// substrate for the quickstart example, supporting predicate, projection and
// limit pushdown so the optimizer paths are exercised even in-memory.
package memory

import (
	"fmt"
	"sort"
	"sync"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/frame"
	"prestolite/internal/types"
)

// Connector is an in-memory catalog of schemas and tables.
type Connector struct {
	name string

	mu     sync.RWMutex
	tables map[string]map[string]*table // schema -> table -> data
}

type table struct {
	schema *connector.TableSchema
	pages  []*block.Page
}

// New creates an empty memory connector with the given catalog name.
func New(name string) *Connector {
	return &Connector{name: name, tables: map[string]map[string]*table{}}
}

// CreateTable registers a table with the given columns and data pages.
// Pages must have one block per column.
func (c *Connector) CreateTable(schema, name string, columns []connector.Column, pages []*block.Page) error {
	for _, p := range pages {
		if len(p.Blocks) != len(columns) {
			return fmt.Errorf("memory: page has %d blocks for %d columns", len(p.Blocks), len(columns))
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tables[schema] == nil {
		c.tables[schema] = map[string]*table{}
	}
	c.tables[schema][name] = &table{
		schema: &connector.TableSchema{Catalog: c.name, Schema: schema, Table: name, Columns: columns},
		pages:  pages,
	}
	return nil
}

// AppendRows adds boxed rows to an existing table.
func (c *Connector) AppendRows(schema, name string, rows [][]any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, err := c.lookupLocked(schema, name)
	if err != nil {
		return err
	}
	colTypes := make([]*types.Type, len(t.schema.Columns))
	for i, col := range t.schema.Columns {
		colTypes[i] = col.Type
	}
	pb := block.NewPageBuilder(colTypes)
	for _, r := range rows {
		pb.AppendRow(r)
	}
	t.pages = append(t.pages, pb.Build())
	return nil
}

func (c *Connector) lookupLocked(schema, name string) (*table, error) {
	s, ok := c.tables[schema]
	if !ok {
		return nil, fmt.Errorf("memory: schema %q does not exist", schema)
	}
	t, ok := s[name]
	if !ok {
		return nil, fmt.Errorf("memory: table %s.%s does not exist", schema, name)
	}
	return t, nil
}

// Name implements connector.Connector.
func (c *Connector) Name() string { return c.name }

// Metadata implements connector.Connector.
func (c *Connector) Metadata() connector.Metadata { return (*metadata)(c) }

// SplitManager implements connector.Connector.
func (c *Connector) SplitManager() connector.SplitManager { return (*splitManager)(c) }

// RecordSetProvider implements connector.Connector.
func (c *Connector) RecordSetProvider() connector.RecordSetProvider { return (*recordSet)(c) }

// TableHandle carries the table identity plus pushed-down state.
type TableHandle struct {
	Schema string
	Table  string
	// PredicateJSON is the serialized pushed predicate (channels are table
	// ordinals); empty when none.
	PredicateJSON []byte
	// Projection lists retained table ordinals; nil means all.
	Projection []int
	// Limit is a pushed row limit; negative means none.
	Limit int64
}

// Description implements connector.TableHandle.
func (h *TableHandle) Description() string {
	s := fmt.Sprintf("memory:%s.%s", h.Schema, h.Table)
	if len(h.PredicateJSON) > 0 {
		if e, err := expr.Unmarshal(h.PredicateJSON); err == nil {
			s += fmt.Sprintf(" filter=%s", e)
		}
	}
	if h.Projection != nil {
		s += fmt.Sprintf(" columns=%v", h.Projection)
	}
	if h.Limit >= 0 {
		s += fmt.Sprintf(" limit=%d", h.Limit)
	}
	return s
}

// Split identifies a range of pages of a table.
type Split struct {
	Handle    *TableHandle
	PageStart int
	PageEnd   int
}

// Description implements connector.Split.
func (s *Split) Description() string {
	return fmt.Sprintf("%s pages[%d:%d]", s.Handle.Description(), s.PageStart, s.PageEnd)
}

// AppendWire implements connector.Encoder.
func (h *TableHandle) AppendWire(dst []byte) []byte {
	dst = frame.AppendString(frame.AppendString(dst, h.Schema), h.Table)
	dst = frame.AppendInts(frame.AppendBytes(dst, h.PredicateJSON), h.Projection)
	return frame.AppendVarint(dst, h.Limit)
}

// AppendWire implements connector.Encoder.
func (s *Split) AppendWire(dst []byte) []byte {
	return frame.AppendVarint(frame.AppendVarint(s.Handle.AppendWire(dst), int64(s.PageStart)), int64(s.PageEnd))
}

// DecodeHandle implements connector.Decoder.
func (c *Connector) DecodeHandle(r *frame.Reader) connector.TableHandle { return readHandle(r) }

// DecodeSplit implements connector.Decoder.
func (c *Connector) DecodeSplit(r *frame.Reader) connector.Split {
	return &Split{Handle: readHandle(r), PageStart: r.Int(), PageEnd: r.Int()}
}

func readHandle(r *frame.Reader) *TableHandle {
	h := &TableHandle{Schema: r.Str(), Table: r.Str()}
	if p := r.Bytes(); len(p) > 0 {
		h.PredicateJSON = p
	}
	h.Projection = r.Ints()
	h.Limit = r.Varint()
	return h
}

type metadata Connector

func (m *metadata) ListTables(schema string) ([]string, error) {
	c := (*Connector)(m)
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.tables[schema]
	if !ok {
		return nil, fmt.Errorf("memory: schema %q does not exist", schema)
	}
	out := make([]string, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	sort.Strings(out)
	return out, nil
}

func (m *metadata) GetTable(schema, tableName string) (*connector.TableSchema, connector.TableHandle, error) {
	c := (*Connector)(m)
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, err := c.lookupLocked(schema, tableName)
	if err != nil {
		return nil, nil, err
	}
	return t.schema, &TableHandle{Schema: schema, Table: tableName, Limit: -1}, nil
}

type splitManager Connector

func (sm *splitManager) Splits(handle connector.TableHandle) ([]connector.Split, error) {
	c := (*Connector)(sm)
	h, ok := handle.(*TableHandle)
	if !ok {
		return nil, fmt.Errorf("memory: foreign table handle %T", handle)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, err := c.lookupLocked(h.Schema, h.Table)
	if err != nil {
		return nil, err
	}
	if len(t.pages) == 0 {
		return []connector.Split{&Split{Handle: h, PageStart: 0, PageEnd: 0}}, nil
	}
	// One split per page keeps parallelism simple and deterministic.
	splits := make([]connector.Split, 0, len(t.pages))
	for i := range t.pages {
		splits = append(splits, &Split{Handle: h, PageStart: i, PageEnd: i + 1})
	}
	return splits, nil
}

type recordSet Connector

func (rs *recordSet) CreatePageSource(handle connector.TableHandle, split connector.Split, columns []int) (connector.PageSource, error) {
	c := (*Connector)(rs)
	sp, ok := split.(*Split)
	if !ok {
		return nil, fmt.Errorf("memory: foreign split %T", split)
	}
	h := sp.Handle
	c.mu.RLock()
	t, err := c.lookupLocked(h.Schema, h.Table)
	if err != nil {
		c.mu.RUnlock()
		return nil, err
	}
	pages := t.pages[sp.PageStart:sp.PageEnd]
	c.mu.RUnlock()

	var pred expr.RowExpression
	if len(h.PredicateJSON) > 0 {
		pred, err = expr.Unmarshal(h.PredicateJSON)
		if err != nil {
			return nil, fmt.Errorf("memory: bad pushed predicate: %w", err)
		}
	}

	// The handle's projection remaps table ordinals; `columns` are indexes
	// into the post-projection schema.
	effective := make([]int, len(columns))
	for i, col := range columns {
		if h.Projection != nil {
			effective[i] = h.Projection[col]
		} else {
			effective[i] = col
		}
	}

	out := make([]*block.Page, 0, len(pages))
	remaining := h.Limit
	for _, p := range pages {
		if remaining == 0 {
			break
		}
		if pred != nil {
			positions, err := expr.EvalFilter(pred, p)
			if err != nil {
				return nil, fmt.Errorf("memory: pushed predicate: %w", err)
			}
			if len(positions) == 0 {
				continue
			}
			p = p.Mask(positions)
		}
		if remaining > 0 && int64(p.Count()) > remaining {
			p = p.Region(0, int(remaining))
		}
		if remaining > 0 {
			remaining -= int64(p.Count())
		}
		blocks := make([]block.Block, len(effective))
		for i, ord := range effective {
			blocks[i] = p.Blocks[ord]
		}
		out = append(out, &block.Page{Blocks: blocks, N: p.Count()})
	}
	return &connector.SlicePageSource{Pages: out}, nil
}

// ---------------------------------------------------------------------------
// Pushdown capabilities.

var (
	_ connector.FilterPushdown     = (*Connector)(nil)
	_ connector.ProjectionPushdown = (*Connector)(nil)
	_ connector.LimitPushdown      = (*Connector)(nil)
)

// PushFilter absorbs the full predicate (channels are table ordinals, which
// the page filter evaluates directly against full-width pages).
func (c *Connector) PushFilter(handle connector.TableHandle, predicate expr.RowExpression) (connector.TableHandle, expr.RowExpression, bool) {
	h, ok := handle.(*TableHandle)
	if !ok || h.Projection != nil || h.Limit >= 0 {
		// Keep the simple invariant: filter is pushed before projection and
		// limit (the optimizer runs rules in that order).
		return handle, predicate, false
	}
	data, err := expr.Marshal(predicate)
	if err != nil {
		return handle, predicate, false
	}
	nh := *h
	nh.PredicateJSON = data
	return &nh, nil, true
}

// PushProjection narrows the scan to the given table ordinals.
func (c *Connector) PushProjection(handle connector.TableHandle, columns []int) (connector.TableHandle, bool) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return handle, false
	}
	nh := *h
	nh.Projection = append([]int(nil), columns...)
	return &nh, true
}

// PushLimit stops each split after limit rows. Not guaranteed: splits apply
// the limit independently, so the engine keeps its own Limit on top (same
// contract as Presto's per-split limit pushdown).
func (c *Connector) PushLimit(handle connector.TableHandle, limit int64) (connector.TableHandle, bool, bool) {
	h, ok := handle.(*TableHandle)
	if !ok {
		return handle, false, false
	}
	nh := *h
	if nh.Limit < 0 || limit < nh.Limit {
		nh.Limit = limit
	}
	return &nh, false, true
}
