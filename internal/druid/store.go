// Package druid implements the real-time OLAP substrate of §IV.B: an
// in-memory columnar store with dictionary encoding, bitmap inverted
// indexes and pre-aggregation-friendly segments, plus a native query engine
// answering filtered/grouped/limited aggregation queries at interactive
// latency. It stands in for Apache Druid / Apache Pinot in the Fig 16
// experiment: the interesting property — native aggregation over indexed
// segments is much faster than streaming raw rows out — is preserved.
package druid

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"prestolite/internal/block"
	"prestolite/internal/cache"
	"prestolite/internal/expr"
	"prestolite/internal/fault"
	"prestolite/internal/types"
)

// Column is a typed druid column. Strings are dictionary-encoded and
// inverted-indexed; numerics are stored flat.
type Column struct {
	Name string
	Type *types.Type // Bigint, Double or Varchar
}

// Table holds sealed immutable segments plus at most one open mutable
// segment accepting real-time appends (see lifecycle.go).
type Table struct {
	Name    string
	Columns []Column

	store *Store // back-pointer: lifecycle metrics, clock, segment ids

	mu       sync.RWMutex
	cfg      SegmentConfig
	segments []*segment // sealed (and compacted) segments
	open     *openSegment
	srcNext  map[string]int64 // per-source delivered watermark (AppendFrom)
	// version counts every visible-data mutation (append, watermark
	// advance, seal, compaction) — the snapshot version result-cache keys
	// are stamped with (§VII).
	version int64
}

// segment is one horizontal shard with columnar storage. Sealed segments
// are immutable; frozen views of the open segment share its buffers but
// carry no inverted indexes (index == nil).
type segment struct {
	// id names a sealed or compacted segment within its store
	// (Store.segmentIDs); 0 for a frozen view of the open segment. It keys
	// the segment's memoised partials: a compaction's merged segment gets a
	// new id, so no partial of the segments it replaced applies to it.
	id        uint64
	n         int
	compacted bool
	cols      []segColumn // by table ordinal
}

// segColumn is one column of a segment, laid out field for field as the block
// a query wraps it in: longs or doubles with an optional null mask for the
// numeric kinds, a dictionary plus ids (-1 = NULL) for varchar.
type segColumn struct {
	longs   []int64
	doubles []float64
	nulls   []bool // numeric kinds only; nil while the column holds no NULL
	dict    []string
	ids     []int32
	index   map[string]*Bitmap // per-value inverted index, sealed segments only
	stats   colStats
	blk     block.Block // the slices above, wrapped once (wrap)
}

// colStats is what a segment knows of a column without visiting a row. They
// are maintained at append and carried through freeze, seal and compaction.
type colStats struct {
	nulls int
	// nan: a double column holds a NaN. min and max are then nil, so no
	// statistics test (OverlapsStats, CoversStats, addFromStats) decides
	// anything about the segment from them.
	nan bool
	// min and max of the non-NULL values, boxed int64 or float64 as
	// expr.Comparison's statistics tests take them; nil for varchar, when
	// every row is NULL, and when nan.
	min, max any
}

func (s *colStats) merge(o colStats) {
	s.nulls += o.nulls
	s.nan = s.nan || o.nan
	if o.min != nil && (s.min == nil || expr.CompareValues(o.min, s.min) < 0) {
		s.min = o.min
	}
	if o.max != nil && (s.max == nil || expr.CompareValues(o.max, s.max) > 0) {
		s.max = o.max
	}
	if s.nan {
		s.min, s.max = nil, nil
	}
}

// wrap sets blk: the column as the engine's block of its kind, without
// copying. The block aliases segment memory, which is immutable (a sealed
// segment) or immutable up to the frozen row count (a view of the open one),
// exactly as cached Parquet chunks are aliased by the pages read from them.
func (c *segColumn) wrap() {
	switch {
	case c.longs != nil:
		c.blk = &block.Int64Block{Values: c.longs, Nulls: c.nulls}
	case c.doubles != nil:
		c.blk = &block.Float64Block{Values: c.doubles, Nulls: c.nulls}
	default:
		c.blk = &block.DictionaryBlock{Dictionary: &block.VarcharBlock{Values: c.dict}, Ids: c.ids}
	}
}

// Store is the embedded druid instance.
type Store struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	metrics atomic.Pointer[storeMetrics]
	clock   fault.Clock
	// partials memoises each sealed segment's partial aggregate per query
	// shape (Execute), keyed by segment ids drawn from segmentIDs.
	partials   *cache.PageMemo[partialKey]
	segmentIDs atomic.Uint64
}

// PartialsMetrics reports the memo of sealed segments' partial aggregates:
// its hits, misses, evictions and resident bytes.
func (s *Store) PartialsMetrics() *cache.Metrics { return s.partials.Metrics }

// TableVersion returns the table's snapshot version: bumped on every
// append, watermark advance, seal and compaction. ok is false when the
// table does not exist.
func (s *Store) TableVersion(name string) (int64, bool) {
	s.mu.RLock()
	t, ok := s.tables[name]
	s.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return t.Version(), true
}

// Version returns the table's snapshot version.
func (t *Table) Version() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// NewStore creates an empty store on the real clock.
func NewStore() *Store {
	return &Store{tables: map[string]*Table{}, clock: fault.RealClock{}, partials: cache.NewPageMemo[partialKey](cache.PartialsBudget)}
}

// clockOrReal is the table-level accessor: tables created without a store
// back-pointer (unit tests) fall back to real time.
func (t *Table) clockOrReal() fault.Clock {
	if t.store != nil && t.store.clock != nil {
		return t.store.clock
	}
	return fault.RealClock{}
}

// CreateTable registers a table.
func (s *Store) CreateTable(name string, cols []Column) (*Table, error) {
	for _, c := range cols {
		switch c.Type.Kind {
		case types.KindBigint, types.KindDouble, types.KindVarchar:
		default:
			return nil, fmt.Errorf("druid: unsupported column type %s for %s", c.Type, c.Name)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.tables[name]; exists {
		return nil, fmt.Errorf("druid: table %q already exists", name)
	}
	t := &Table{Name: name, Columns: cols, store: s, cfg: DefaultSegmentConfig()}
	s.tables[name] = t
	return t, nil
}

// GetTable resolves a table.
func (s *Store) GetTable(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("druid: table %q does not exist", name)
	}
	return t, nil
}

// Tables lists table names, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Ingest appends rows through the mutable-segment lifecycle: rows land in
// the table's open segment (queryable immediately) which seals into an
// immutable indexed segment on the row-count/age thresholds, instead of the
// old one-immutable-segment-per-call behaviour that left bulk loaders with
// thousands of tiny segments.
func (t *Table) Ingest(rows [][]any) error {
	return t.Append(rows, t.clockOrReal().Now())
}

func errRowWidth(table string, ri, got, want int) error {
	return fmt.Errorf("druid: table %s row %d: %d values for %d columns", table, ri, got, want)
}

func errCellType(col string, ri int, want string, got any) error {
	return fmt.Errorf("druid: column %s row %d: want %s, got %T", col, ri, want, got)
}

// ---------------------------------------------------------------------------
// Native query engine (query.go runs it).

// Aggregation is a native aggregate.
type Aggregation struct {
	Func   string // count, sum, min, max, avg (count with empty Column = count(*))
	Column string
	Name   string
}

// Query is the native query shape: scan/select or grouped aggregation.
type Query struct {
	Table        string
	Filters      []expr.Comparison // ANDed
	GroupBy      []string
	Aggregations []Aggregation
	// Columns selects raw columns when there are no aggregations.
	Columns []string
	Limit   int64 // <= 0: unlimited
}

// Result is a query's answer in columns: a select returns one page per
// segment that has a matching row, an aggregation one page of its groups in
// ascending key order (NULL first).
type Result struct {
	Columns []string
	Pages   []*block.Page
}
