// Package connector defines the SPI that gives the engine unified SQL over
// heterogeneous storage systems without data copy (§IV). A connector
// provides:
//
//   - Metadata          — schemas, tables, columns (ConnectorMetadata)
//   - SplitManager      — how a table divides into parallel work units
//     (ConnectorSplitManager / ConnectorSplit)
//   - RecordSetProvider — how data streams from the underlying system become
//     engine pages (ConnectorRecordSetProvider)
//
// Connectors may additionally implement the pushdown capabilities
// (FilterPushdown, ProjectionPushdown, LimitPushdown, AggregationPushdown);
// the optimizer probes for these and rewrites scans so the underlying system
// does the work and only result rows stream into the engine (§IV.A, §IV.B).
// A pushed predicate reaches every store as expr.Comparisons: a connector's
// PushFilter is PushComparisons with its column resolver and the routing of
// what it takes.
package connector

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/types"
)

// Column describes one table column.
type Column struct {
	Name string
	Type *types.Type
}

// TableSchema is the resolved schema of a table.
type TableSchema struct {
	Catalog string
	Schema  string
	Table   string
	Columns []Column
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *TableSchema) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// TableHandle is a connector-private handle for a table plus any pushed-down
// state (predicate, projection, limit, aggregation). A handle that ships to
// workers has a binary form: it is an Encoder, and its connector a Decoder.
type TableHandle interface {
	// Description renders the handle, including pushed state, for EXPLAIN.
	// It is display only: what identifies a handle — in a shipped fragment
	// and in both plan-keyed cache tiers — is its binary form.
	Description() string
}

// Split is one unit of parallel work — one shard of the underlying data
// (ConnectorSplit). A split that ships to workers is an Encoder, read back by
// its connector's Decoder.
type Split interface {
	// Description renders the split for logs.
	Description() string
}

// PageSource streams pages for one split.
type PageSource interface {
	// Next returns the next page, or (nil, io.EOF) when exhausted.
	Next() (*block.Page, error)
	// Close releases resources. Safe to call multiple times.
	Close() error
}

// ChargedSource is a PageSource whose state grows with its input — a split
// that folds its file into groups. The scan hands it the query's memory
// before the first Next; the source reports through charge the bytes it
// holds each time they grow, and fails its Next with charge's error. What it
// held is released when the scan closes it.
type ChargedSource interface {
	PageSource
	ChargeTo(charge func(held int64) error)
}

// Metadata exposes schema information (ConnectorMetadata).
type Metadata interface {
	// ListTables returns table names in a schema in sorted order.
	ListTables(schema string) ([]string, error)
	// GetTable resolves a table, returning its schema and a fresh handle.
	GetTable(schema, table string) (*TableSchema, TableHandle, error)
}

// SplitManager divides a table into splits (ConnectorSplitManager).
type SplitManager interface {
	Splits(handle TableHandle) ([]Split, error)
}

// RecordSetProvider turns a split into a page stream
// (ConnectorRecordSetProvider). columns lists the table-column ordinals to
// produce, in output order; connectors that absorbed a projection pushdown
// receive the post-pushdown ordinals.
type RecordSetProvider interface {
	CreatePageSource(handle TableHandle, split Split, columns []int) (PageSource, error)
}

// Connector bundles the three mandatory SPI surfaces.
type Connector interface {
	Name() string
	Metadata() Metadata
	SplitManager() SplitManager
	RecordSetProvider() RecordSetProvider
}

// SnapshotVersioner is an optional capability: connectors that can report a
// monotonic per-table snapshot version implement it, and the coordinator
// appends those versions to the keys of the result cache and the workers'
// fragment cache (§VII). A version must change whenever the table's visible
// data changes (partition added or sealed, segment appended/sealed/compacted,
// schema evolved). A connector without it, or ok=false, marks the table
// unversionable: neither tier caches a query or a task over it. A connector
// that implements it gives its handles a binary form (Encoder): the result
// cache's key is the encoded plan.
type SnapshotVersioner interface {
	SnapshotVersion(schema, table string) (version int64, ok bool)
}

// TableVersion is a table's snapshot version by the one rule of every
// version-keyed cache: -1 — do not cache — when conn cannot report one or
// the table has none now (a hive table with an open partition).
func TableVersion(conn Connector, schema, table string) int64 {
	sv, ok := conn.(SnapshotVersioner)
	if !ok {
		return -1
	}
	v, ok := sv.SnapshotVersion(schema, table)
	if !ok {
		return -1
	}
	return v
}

// ---------------------------------------------------------------------------
// Pushdown capabilities (§IV.A, §IV.B). Predicates arrive as RowExpressions
// whose Variable channels are table-column ordinals, so they are
// self-contained for the connector.

// FilterPushdown lets a connector absorb (part of) a predicate. A connector
// whose store evaluates comparisons implements it with PushComparisons; one
// that evaluates whole expressions (memory) keeps the RowExpression.
type FilterPushdown interface {
	// PushFilter returns an updated handle, the residual predicate the
	// engine must still apply (nil if fully absorbed), and whether anything
	// was pushed.
	PushFilter(handle TableHandle, predicate expr.RowExpression) (TableHandle, expr.RowExpression, bool)
}

// PushComparisons is the body of a PushFilter over a store that evaluates
// expr.Comparisons: each conjunct of predicate that expr.LowerComparison can
// lower under columnOf is offered to accept, which records the ones it takes
// in the new handle. It returns the conjunction of everything not taken (nil
// when nothing is left) and whether anything was taken.
func PushComparisons(predicate expr.RowExpression, columnOf func(expr.RowExpression) (string, bool), accept func(expr.Comparison) bool) (residual expr.RowExpression, pushed bool) {
	var rest []expr.RowExpression
	for _, conj := range expr.Conjuncts(predicate) {
		if cmp, ok := expr.LowerComparison(conj, columnOf); ok && accept(cmp) {
			pushed = true
			continue
		}
		rest = append(rest, conj)
	}
	switch {
	case !pushed:
		return predicate, false
	case len(rest) == 0:
		return nil, true
	}
	return expr.And(rest...), true
}

// ColumnByOrdinal is the column resolver of a connector whose pushed
// predicates name whole table columns: a Variable is the column at its
// channel.
func ColumnByOrdinal(cols []Column) func(expr.RowExpression) (string, bool) {
	return func(e expr.RowExpression) (string, bool) {
		v, ok := e.(*expr.Variable)
		if !ok || v.Channel < 0 || v.Channel >= len(cols) {
			return "", false
		}
		return cols[v.Channel].Name, true
	}
}

// ProjectionPushdown lets a connector read only required columns.
type ProjectionPushdown interface {
	// PushProjection narrows the handle to the given table-column ordinals.
	PushProjection(handle TableHandle, columns []int) (TableHandle, bool)
}

// LimitPushdown lets a connector stop producing after limit rows.
type LimitPushdown interface {
	// PushLimit returns an updated handle, whether the limit is guaranteed
	// (engine may drop its own Limit), and whether anything was pushed.
	PushLimit(handle TableHandle, limit int64) (TableHandle, bool, bool)
}

// AggregateSpec describes one aggregate for pushdown: count/sum/min/max/avg
// over a single column (ArgColumn < 0 means count(*)).
type AggregateSpec struct {
	Function   string
	ArgColumn  int
	OutputName string
	OutputType *types.Type
}

// NestedProjectionPushdown is nested column pruning at the connector level
// (§V.D): the scan narrows to specific struct subfields (dotted paths rooted
// at table column names, e.g. "base.city_id"), so the reader only touches
// the required leaves even within one struct column.
type NestedProjectionPushdown interface {
	// PushNestedPaths narrows the scan to the given paths. On success the
	// scan's output columns become exactly these paths (returned with their
	// resolved types, in order).
	PushNestedPaths(handle TableHandle, paths []string) (TableHandle, []Column, bool)
}

// AggregationPushdown lets a connector execute an aggregation natively so
// only aggregated rows stream into the engine (§IV.B, Fig 2): a real-time
// store (Druid, Pinot) over its in-memory structures, a warehouse from its
// files' footer statistics.
//
// The optimizer offers an aggregate that sits directly on the connector's
// scan, so every predicate is already in the handle. A PARTIAL (one side of
// a split union) is offered only when each aggregate's intermediate type is
// its final type (count, sum, min, max).
type AggregationPushdown interface {
	// PushAggregation absorbs the aggregation. groupBy lists table-column
	// ordinals. On success the scan's output becomes groupBy columns
	// followed by aggregate outputs, and perSplit says what those rows are.
	// false: the whole answer, one row per group over every split, which a
	// single-split store such as druid gives. true: each split answers its
	// own rows, one partial row per group, so the optimizer keeps a FINAL
	// above the scan — it pushes a SINGLE aggregate as its PARTIAL under
	// FinalOver, and only when each intermediate type is the final type.
	PushAggregation(handle TableHandle, aggs []AggregateSpec, groupBy []int) (h TableHandle, perSplit, ok bool)
}

// ---------------------------------------------------------------------------
// Hybrid batch + real-time tables.

// HybridPart names one side of a hybrid table: a fully-qualified table in
// another catalog.
type HybridPart struct {
	Catalog string
	Schema  string
	Table   string
}

// HybridSpec describes how a hybrid table splits: rows with
// TimeColumn < Boundary live in the historical (batch) side, rows with
// TimeColumn >= Boundary in the real-time side. Both sides must expose the
// same column names and types as the hybrid table itself.
type HybridSpec struct {
	Historical HybridPart
	Realtime   HybridPart
	// TimeColumn is the Bigint event-time column the boundary predicate
	// applies to.
	TimeColumn string
	// Boundary is the watermark separating batch history from real-time
	// data (exclusive on the historical side, inclusive on the real-time
	// side).
	Boundary int64
}

// HybridTable marks a connector whose tables are planner-expanded into
// union(historical scan, real-time scan) split by a time predicate. The
// optimizer probes for this on the scan's connector; a hybrid connector
// never executes scans itself.
type HybridTable interface {
	// HybridSpec reports the split spec for a handle, or false when the
	// handle is not hybrid.
	HybridSpec(handle TableHandle) (HybridSpec, bool)
}

// ---------------------------------------------------------------------------
// Catalog registry: catalog name → connector (§IV: catalog.schema.table).

// Registry maps catalog names to connectors.
type Registry struct {
	mu         sync.RWMutex
	connectors map[string]Connector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{connectors: map[string]Connector{}}
}

// Register installs a connector under a catalog name.
func (r *Registry) Register(catalog string, c Connector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.connectors[catalog] = c
}

// Get resolves a catalog name.
func (r *Registry) Get(catalog string) (Connector, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.connectors[catalog]
	if !ok {
		return nil, fmt.Errorf("connector: catalog %q is not registered", catalog)
	}
	return c, nil
}

// Catalogs returns registered catalog names, sorted.
func (r *Registry) Catalogs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.connectors))
	for name := range r.connectors {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Helpers shared by connector implementations.

// SlicePageSource serves a fixed list of pages (used by in-memory stores and
// tests).
type SlicePageSource struct {
	Pages []*block.Page
	pos   int
}

// Next implements PageSource.
func (s *SlicePageSource) Next() (*block.Page, error) {
	if s.pos >= len(s.Pages) {
		return nil, ErrEOF
	}
	p := s.Pages[s.pos]
	s.pos++
	return p, nil
}

// Close implements PageSource.
func (s *SlicePageSource) Close() error { return nil }

// ErrEOF marks page-source exhaustion; it is io.EOF so sources compose with
// standard stream helpers.
var ErrEOF = io.EOF
