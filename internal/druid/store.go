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
	"strings"
	"sync"
	"sync/atomic"

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

	store *Store // back-pointer for lifecycle metrics; nil in tests

	mu       sync.RWMutex
	cfg      SegmentConfig
	segments []*segment // sealed (and compacted) segments
	open     *openSegment
	srcNext  map[string]int64 // per-source delivered watermark (AppendFrom)
	// version counts every visible-data mutation (append, watermark
	// advance, seal, compaction) — the snapshot version result-cache keys
	// are stamped with (§VII).
	version int64
	// pending accumulates lifecycle events recorded under the lock;
	// public entry points drain and publish them after unlocking so
	// listeners never run inside the table lock.
	pending []TableEvent
}

// TableEvent describes one lifecycle transition, delivered to Store
// OnChange listeners (hybrid-table cache invalidation subscribes here).
type TableEvent struct {
	Table string
	Kind  EventKind
	// Version is the table's snapshot version after the transition.
	Version int64
}

// EventKind enumerates lifecycle transitions.
type EventKind int

const (
	// EventAppend fires when rows land (including watermark-advancing
	// AppendFrom deliveries).
	EventAppend EventKind = iota
	// EventSeal fires when the open segment seals into an immutable one.
	EventSeal
	// EventCompact fires when small sealed segments merge.
	EventCompact
)

// segment is one horizontal shard with columnar storage. Sealed segments
// are immutable; frozen views of the open segment share its buffers but
// carry no inverted indexes (index == nil).
type segment struct {
	n         int
	compacted bool
	longs     map[string][]int64
	doubles   map[string][]float64
	strs      map[string]*strColumn
	nulls     map[string][]bool
}

// strColumn is dictionary-encoded with a per-value inverted index.
type strColumn struct {
	dict  []string
	ids   []int32 // -1 = null
	index map[string]*Bitmap
}

// Store is the embedded druid instance.
type Store struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	metrics atomic.Pointer[storeMetrics]
	clock   fault.Clock

	listenerMu sync.RWMutex
	listeners  []func(TableEvent)
}

// OnChange registers a listener invoked after every table lifecycle
// transition (append, seal, compact). Listeners run synchronously, outside
// all store and table locks, in registration order.
func (s *Store) OnChange(fn func(TableEvent)) {
	s.listenerMu.Lock()
	defer s.listenerMu.Unlock()
	s.listeners = append(s.listeners, fn)
}

// publish delivers events to listeners. Callers must hold no locks.
func (s *Store) publish(events []TableEvent) {
	if len(events) == 0 {
		return
	}
	s.listenerMu.RLock()
	fns := s.listeners
	s.listenerMu.RUnlock()
	for _, ev := range events {
		for _, fn := range fns {
			fn(ev)
		}
	}
}

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
	return &Store{tables: map[string]*Table{}, clock: fault.RealClock{}}
}

// SetClock injects the time source Ingest stamps appends with — and so the
// base of every SealAge decision. Chaos and replay harnesses point it at
// the same fault.Clock the rest of the cluster runs on.
func (s *Store) SetClock(c fault.Clock) {
	if c != nil {
		s.clock = c
	}
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
// Native query engine.

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

// Result carries rows with boxed values.
type Result struct {
	Columns []string
	Types   []string
	Rows    [][]any
}

// Execute runs a native query.
func (s *Store) Execute(q Query) (*Result, error) {
	t, err := s.GetTable(q.Table)
	if err != nil {
		return nil, err
	}
	segs := t.snapshotSegments()

	colType := map[string]*types.Type{}
	for _, c := range t.Columns {
		colType[c.Name] = c.Type
	}
	for _, f := range q.Filters {
		if colType[f.Column] == nil {
			return nil, fmt.Errorf("druid: unknown filter column %q", f.Column)
		}
	}

	if len(q.Aggregations) == 0 {
		return s.executeSelect(t, segs, q, colType)
	}
	return s.executeGroupBy(t, segs, q, colType)
}

// selection computes the matching-row bitmap for a segment, using inverted
// indexes for string equality/in filters.
func (seg *segment) selection(filters []expr.Comparison, colType map[string]*types.Type) (*Bitmap, error) {
	sel := NewBitmap(seg.n)
	sel.SetAll()
	for _, f := range filters {
		fb := NewBitmap(seg.n)
		ct := colType[f.Column]
		sc := seg.strs[f.Column]
		if ct.Kind == types.KindVarchar && (f.Op == expr.OpEq || f.Op == expr.OpIn) && sc != nil && sc.index != nil {
			// Inverted index path: union the per-value bitmaps. Frozen views
			// of the open segment have no indexes yet and take the scan path.
			for _, v := range f.Values {
				str, ok := v.(string)
				if !ok {
					return nil, fmt.Errorf("druid: filter on %s: want string, got %T", f.Column, v)
				}
				if bm, exists := sc.index[str]; exists {
					fb.Or(bm)
				}
			}
		} else {
			// Scan path.
			for i := 0; i < seg.n; i++ {
				if f.Match(seg.value(f.Column, ct, i)) {
					fb.Set(i)
				}
			}
		}
		sel.And(fb)
	}
	return sel, nil
}

func (seg *segment) value(col string, t *types.Type, i int) any {
	if seg.nulls[col][i] {
		return nil
	}
	switch t.Kind {
	case types.KindBigint:
		return seg.longs[col][i]
	case types.KindDouble:
		return seg.doubles[col][i]
	default:
		sc := seg.strs[col]
		return sc.dict[sc.ids[i]]
	}
}

func (s *Store) executeSelect(t *Table, segs []*segment, q Query, colType map[string]*types.Type) (*Result, error) {
	cols := q.Columns
	if len(cols) == 0 {
		for _, c := range t.Columns {
			cols = append(cols, c.Name)
		}
	}
	res := &Result{Columns: cols}
	for _, c := range cols {
		ct := colType[c]
		if ct == nil {
			return nil, fmt.Errorf("druid: unknown column %q", c)
		}
		res.Types = append(res.Types, ct.String())
	}
	for _, seg := range segs {
		sel, err := seg.selection(q.Filters, colType)
		if err != nil {
			return nil, err
		}
		done := false
		sel.ForEach(func(i int) bool {
			row := make([]any, len(cols))
			for ci, c := range cols {
				row[ci] = seg.value(c, colType[c], i)
			}
			res.Rows = append(res.Rows, row)
			if q.Limit > 0 && int64(len(res.Rows)) >= q.Limit {
				done = true
				return false
			}
			return true
		})
		if done {
			break
		}
	}
	return res, nil
}

func (s *Store) executeGroupBy(t *Table, segs []*segment, q Query, colType map[string]*types.Type) (*Result, error) {
	type groupAgg struct {
		keys   []any
		states []expr.AggState
	}
	fns := make([]*expr.AggregateFunction, len(q.Aggregations))
	argTypes := make([][]*types.Type, len(q.Aggregations))
	for i, a := range q.Aggregations {
		var at []*types.Type
		if a.Column != "" {
			ct := colType[a.Column]
			if ct == nil {
				return nil, fmt.Errorf("druid: unknown aggregation column %q", a.Column)
			}
			at = []*types.Type{ct}
		}
		fn, err := expr.ResolveAggregate(a.Func, at)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
		argTypes[i] = at
	}
	for _, g := range q.GroupBy {
		if colType[g] == nil {
			return nil, fmt.Errorf("druid: unknown group column %q", g)
		}
	}
	groups := map[string]*groupAgg{}
	var order []string
	for _, seg := range segs {
		sel, err := seg.selection(q.Filters, colType)
		if err != nil {
			return nil, err
		}
		sel.ForEach(func(i int) bool {
			keys := make([]any, len(q.GroupBy))
			var kb strings.Builder
			for ki, g := range q.GroupBy {
				keys[ki] = seg.value(g, colType[g], i)
				fmt.Fprintf(&kb, "%T\x00%v\x01", keys[ki], keys[ki])
			}
			k := kb.String()
			ga, ok := groups[k]
			if !ok {
				ga = &groupAgg{keys: keys, states: make([]expr.AggState, len(fns))}
				for fi, fn := range fns {
					ga.states[fi] = fn.NewState(argTypes[fi])
				}
				groups[k] = ga
				order = append(order, k)
			}
			for fi, a := range q.Aggregations {
				if a.Column == "" {
					ga.states[fi].Add(nil)
					continue
				}
				ga.states[fi].Add([]any{seg.value(a.Column, colType[a.Column], i)})
			}
			return true
		})
	}
	if len(q.GroupBy) == 0 && len(groups) == 0 {
		ga := &groupAgg{states: make([]expr.AggState, len(fns))}
		for fi, fn := range fns {
			ga.states[fi] = fn.NewState(argTypes[fi])
		}
		groups[""] = ga
		order = append(order, "")
	}
	res := &Result{}
	for _, g := range q.GroupBy {
		res.Columns = append(res.Columns, g)
		res.Types = append(res.Types, colType[g].String())
	}
	for i, a := range q.Aggregations {
		name := a.Name
		if name == "" {
			name = a.Func
		}
		res.Columns = append(res.Columns, name)
		res.Types = append(res.Types, fns[i].FinalType(argTypes[i]).String())
	}
	// Deterministic output: sort groups by key string.
	sort.Strings(order)
	for _, k := range order {
		ga := groups[k]
		row := make([]any, 0, len(res.Columns))
		row = append(row, ga.keys...)
		for _, st := range ga.states {
			row = append(row, st.Final())
		}
		res.Rows = append(res.Rows, row)
		if q.Limit > 0 && int64(len(res.Rows)) >= q.Limit {
			break
		}
	}
	return res, nil
}
