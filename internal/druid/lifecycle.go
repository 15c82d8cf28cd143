// Segment lifecycle: mutable → sealed → compacted. Real-time ingestion
// appends rows into one open mutable segment per table (no inverted indexes;
// queries scan a frozen prefix view), which seals into an immutable indexed
// segment on a row-count or age threshold; small sealed segments are merged
// by background compaction. All three states are visible to concurrent
// queries: Execute snapshots the sealed list plus a frozen view of the open
// segment under the table lock.
package druid

import (
	"time"

	"prestolite/internal/obs"
	"prestolite/internal/types"
)

// SegmentConfig tunes the lifecycle thresholds.
type SegmentConfig struct {
	// SealRows seals the open segment once it holds this many rows.
	SealRows int
	// SealAge seals a non-empty open segment once its first append is this
	// old (checked by Maintain).
	SealAge time.Duration
	// CompactBelowRows marks sealed segments smaller than this as compaction
	// candidates.
	CompactBelowRows int
	// CompactBatch bounds how many candidates one compaction merges.
	CompactBatch int
}

// DefaultSegmentConfig matches the bulk-load shape the store always had
// (50k-row ingest batches become one sealed segment each) while keeping
// streaming appends out of the per-call-segment trap.
func DefaultSegmentConfig() SegmentConfig {
	return SegmentConfig{
		SealRows:         50000,
		SealAge:          10 * time.Second,
		CompactBelowRows: 5000,
		CompactBatch:     8,
	}
}

func (c SegmentConfig) withDefaults() SegmentConfig {
	d := DefaultSegmentConfig()
	if c.SealRows <= 0 {
		c.SealRows = d.SealRows
	}
	if c.SealAge <= 0 {
		c.SealAge = d.SealAge
	}
	if c.CompactBelowRows <= 0 {
		c.CompactBelowRows = d.CompactBelowRows
	}
	if c.CompactBatch <= 1 {
		c.CompactBatch = d.CompactBatch
	}
	return c
}

// SetSegmentConfig overrides the table's lifecycle thresholds (zero fields
// fall back to defaults).
func (t *Table) SetSegmentConfig(cfg SegmentConfig) {
	t.mu.Lock()
	t.cfg = cfg.withDefaults()
	t.mu.Unlock()
}

// openSegment is the table's single mutable segment: columnar buffers with
// dictionary encoding but no inverted indexes (those are built at seal time).
// Appends happen under the table write lock; queries read a frozen prefix
// view taken under the read lock, so in-flight appends past the frozen row
// count are invisible to them.
type openSegment struct {
	n           int
	firstAppend time.Time
	cols        []openColumn // by table ordinal
}

// openColumn is the mutable form of segColumn: the same buffers, still
// growing, plus what appending needs — the dictionary's reverse map and the
// running statistics in typed form (boxing a new maximum per row would
// allocate per row on a monotonic time column).
type openColumn struct {
	segColumn
	dictIdx    map[string]int32
	seen       bool // a non-NULL numeric value has been appended
	minL, maxL int64
	minD, maxD float64
}

func newOpenSegment(cols []Column, now time.Time) *openSegment {
	o := &openSegment{firstAppend: now, cols: make([]openColumn, len(cols))}
	for i, c := range cols {
		if c.Type.Kind == types.KindVarchar {
			o.cols[i].dictIdx = map[string]int32{}
		}
	}
	return o
}

// appendRow adds one pre-validated row. Caller holds the table write lock.
func (o *openSegment) appendRow(cols []Column, row []any) {
	for ci := range cols {
		c := &o.cols[ci]
		switch v := row[ci].(type) {
		case int64:
			c.longs = append(c.longs, v)
			c.seen = widen(&c.minL, &c.maxL, v, c.seen)
		case float64:
			c.doubles = append(c.doubles, v)
			c.stats.nan = c.stats.nan || v != v
			c.seen = widen(&c.minD, &c.maxD, v, c.seen)
		case string:
			id, known := c.dictIdx[v]
			if !known {
				id = int32(len(c.dict))
				c.dictIdx[v] = id
				c.dict = append(c.dict, v)
			}
			c.ids = append(c.ids, id)
		default: // NULL
			c.stats.nulls++
			switch cols[ci].Type.Kind {
			case types.KindBigint:
				c.longs = append(c.longs, 0)
			case types.KindDouble:
				c.doubles = append(c.doubles, 0)
			default:
				c.ids = append(c.ids, -1)
				continue
			}
			if c.nulls == nil {
				// The column's first NULL: the mask starts here, all false
				// up to this row. Views frozen earlier keep their nil mask.
				c.nulls = make([]bool, o.n, max(cap(c.longs), cap(c.doubles)))
			}
		}
		if c.nulls != nil {
			c.nulls = append(c.nulls, row[ci] == nil)
		}
	}
	o.n++
}

// widen takes v into the running [lo, hi], which holds nothing until seen.
func widen[T int64 | float64](lo, hi *T, v T, seen bool) bool {
	if !seen || v < *lo {
		*lo = v
	}
	if !seen || v > *hi {
		*hi = v
	}
	return true
}

// freeze returns an immutable segment view of the first n rows. The view
// shares the open buffers: appends only write past n (or reallocate), so the
// view's prefix never changes under it. Statistics are copied by value in the
// same critical section as n, so they describe exactly the view's rows. The
// view carries no inverted indexes (index == nil routes string = and IN down
// the dictionary scan).
func (o *openSegment) freeze() *segment {
	seg := &segment{n: o.n, cols: make([]segColumn, len(o.cols))}
	for i := range o.cols {
		c, f := &o.cols[i], &seg.cols[i]
		f.stats = c.frozenStats()
		switch {
		case c.longs != nil:
			f.longs = c.longs[:o.n]
		case c.doubles != nil:
			f.doubles = c.doubles[:o.n]
		default:
			f.dict, f.ids = c.dict[:len(c.dict):len(c.dict)], c.ids[:o.n]
		}
		if c.nulls != nil {
			f.nulls = c.nulls[:o.n]
		}
		f.wrap()
	}
	return seg
}

// frozenStats boxes the running statistics, once per frozen view.
func (c *openColumn) frozenStats() colStats {
	st := c.stats
	switch {
	case !c.seen || st.nan:
	case c.longs != nil:
		st.min, st.max = c.minL, c.maxL
	default:
		st.min, st.max = c.minD, c.maxD
	}
	return st
}

// seal converts the open segment into an immutable segment with inverted
// indexes built. The buffers transfer ownership — the open segment is
// discarded afterwards, so no writer ever touches them again.
func (o *openSegment) seal() *segment {
	seg := o.freeze()
	for i := range seg.cols {
		seg.cols[i].buildIndex(seg.n)
	}
	return seg
}

// buildIndex builds a string column's per-value bitmaps.
func (c *segColumn) buildIndex(n int) {
	if c.ids == nil {
		return
	}
	byID := make([]*Bitmap, len(c.dict))
	c.index = make(map[string]*Bitmap, len(c.dict))
	for id, v := range c.dict {
		byID[id] = NewBitmap(n)
		c.index[v] = byID[id]
	}
	for i, id := range c.ids {
		if id >= 0 {
			byID[id].Set(i)
		}
	}
}

// ---------------------------------------------------------------------------
// Table-level lifecycle.

// Append validates and appends rows into the open mutable segment, sealing
// it whenever the row threshold is crossed mid-batch. now is the append
// timestamp driving the age-based seal. Rows are visible to queries as soon
// as Append returns.
func (t *Table) Append(rows [][]any, now time.Time) error {
	if len(rows) == 0 {
		return nil
	}
	// Validate outside the lock so a bad row rejects the whole batch before
	// any row lands.
	if err := t.validateRows(rows); err != nil {
		return err
	}
	t.mu.Lock()
	t.appendLocked(rows, now)
	t.mu.Unlock()
	return nil
}

// AppendFrom appends a batch delivered from an offset-addressed source —
// rows covering offsets [next, next+len(rows)) of source — skipping any
// prefix the table has already seen from that source. The per-source
// watermark advances atomically with the append, so a delivery retried
// after a crash between the downstream append and the upstream offset
// commit lands exactly once. Returns how many rows were actually appended.
func (t *Table) AppendFrom(source string, next int64, rows [][]any, now time.Time) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	if err := t.validateRows(rows); err != nil {
		return 0, err
	}
	t.mu.Lock()
	skip := 0
	if seen, ok := t.srcNext[source]; ok && seen > next {
		skip = int(seen - next)
		if skip > len(rows) {
			skip = len(rows)
		}
	}
	if skip < len(rows) {
		t.appendLocked(rows[skip:], now)
	}
	if t.srcNext == nil {
		t.srcNext = map[string]int64{}
	}
	if end := next + int64(len(rows)); end > t.srcNext[source] {
		t.srcNext[source] = end
		if skip >= len(rows) {
			// The rows were all duplicates but the watermark still advanced:
			// that is a visible-state change too.
			t.version++
		}
	}
	t.mu.Unlock()
	return len(rows) - skip, nil
}

// validateRows type-checks a batch against the table schema.
func (t *Table) validateRows(rows [][]any) error {
	for ri, row := range rows {
		if len(row) != len(t.Columns) {
			return errRowWidth(t.Name, ri, len(row), len(t.Columns))
		}
		for ci, col := range t.Columns {
			if row[ci] == nil {
				continue
			}
			switch col.Type.Kind {
			case types.KindBigint:
				if _, ok := row[ci].(int64); !ok {
					return errCellType(col.Name, ri, "int64", row[ci])
				}
			case types.KindDouble:
				if _, ok := row[ci].(float64); !ok {
					return errCellType(col.Name, ri, "float64", row[ci])
				}
			case types.KindVarchar:
				if _, ok := row[ci].(string); !ok {
					return errCellType(col.Name, ri, "string", row[ci])
				}
			}
		}
	}
	return nil
}

// appendLocked adds pre-validated rows to the open segment, sealing whenever
// the row threshold is crossed mid-batch. Caller holds the write lock.
func (t *Table) appendLocked(rows [][]any, now time.Time) {
	for _, row := range rows {
		if t.open == nil {
			t.open = newOpenSegment(t.Columns, now)
		}
		t.open.appendRow(t.Columns, row)
		if t.open.n >= t.cfg.SealRows {
			t.sealLocked()
		}
	}
	t.version++
}

// sealLocked moves the open segment to the sealed list. Caller holds the
// write lock.
func (t *Table) sealLocked() {
	if t.open == nil || t.open.n == 0 {
		return
	}
	seg := t.open.seal()
	seg.id = t.store.segmentIDs.Add(1)
	t.segments = append(t.segments, seg)
	t.open = nil
	t.version++
	if m := t.metrics(); m != nil {
		m.seals.Inc()
	}
}

// Maintain runs the background lifecycle steps: age-based sealing and
// compaction of small sealed segments. Ingestion consumers call it
// periodically; it is safe (and cheap) to call concurrently with queries
// and appends.
func (t *Table) Maintain(now time.Time) {
	t.mu.Lock()
	if t.open != nil && t.open.n > 0 && now.Sub(t.open.firstAppend) >= t.cfg.SealAge {
		t.sealLocked()
	}
	t.compactLocked()
	t.mu.Unlock()
}

// compactLocked merges small sealed segments (fewer than CompactBelowRows
// rows) into one compacted segment, up to CompactBatch at a time. A single
// small segment is left alone — compaction needs at least two candidates to
// make progress. Caller holds the write lock.
func (t *Table) compactLocked() {
	var candidates []int
	for i, seg := range t.segments {
		if seg.n < t.cfg.CompactBelowRows {
			candidates = append(candidates, i)
			if len(candidates) == t.cfg.CompactBatch {
				break
			}
		}
	}
	if len(candidates) < 2 {
		return
	}
	merged := t.mergeSegments(candidates)
	kept := make([]*segment, 0, len(t.segments)-len(candidates)+1)
	drop := map[int]bool{}
	for _, i := range candidates {
		drop[i] = true
	}
	for i, seg := range t.segments {
		if !drop[i] {
			kept = append(kept, seg)
		}
	}
	t.segments = append(kept, merged)
	t.version++
	if m := t.metrics(); m != nil {
		m.compactions.Inc()
		m.compactedSegments.Add(int64(len(candidates)))
	}
}

// mergeSegments concatenates the given sealed segments into one compacted
// segment with a merged dictionary, merged statistics and rebuilt inverted
// indexes.
func (t *Table) mergeSegments(idxs []int) *segment {
	total := 0
	for _, i := range idxs {
		total += t.segments[i].n
	}
	merged := &segment{id: t.store.segmentIDs.Add(1), n: total, compacted: true, cols: make([]segColumn, len(t.Columns))}
	for ci, col := range t.Columns {
		m := &merged.cols[ci]
		switch col.Type.Kind {
		case types.KindBigint:
			m.longs = make([]int64, 0, total)
		case types.KindDouble:
			m.doubles = make([]float64, 0, total)
		default:
			m.ids = make([]int32, 0, total)
		}
		dictIdx := map[string]int32{}
		rows := 0
		for _, i := range idxs {
			src := &t.segments[i].cols[ci]
			m.stats.merge(src.stats)
			m.longs = append(m.longs, src.longs...)
			m.doubles = append(m.doubles, src.doubles...)
			for _, id := range src.ids {
				if id < 0 {
					m.ids = append(m.ids, -1)
					continue
				}
				v := src.dict[id]
				nid, seen := dictIdx[v]
				if !seen {
					nid = int32(len(m.dict))
					dictIdx[v] = nid
					m.dict = append(m.dict, v)
				}
				m.ids = append(m.ids, nid)
			}
			if src.nulls != nil && m.nulls == nil {
				m.nulls = make([]bool, rows, total) // the sources so far had no NULL
			}
			rows += t.segments[i].n
			if m.nulls != nil {
				// A source without a mask contributes its rows as false.
				m.nulls = append(m.nulls, src.nulls...)[:rows]
			}
		}
		m.buildIndex(total)
		m.wrap()
	}
	return merged
}

// snapshotSegments returns the immutable segment list a query iterates:
// sealed/compacted segments plus a frozen view of the open segment.
func (t *Table) snapshotSegments() []*segment {
	t.mu.RLock()
	defer t.mu.RUnlock()
	segs := make([]*segment, 0, len(t.segments)+1)
	segs = append(segs, t.segments...)
	if t.open != nil && t.open.n > 0 {
		segs = append(segs, t.open.freeze())
	}
	return segs
}

// SegmentStats is the lifecycle census of one table.
type SegmentStats struct {
	Open      int // 0 or 1
	OpenRows  int
	Sealed    int // sealed but not compacted
	Compacted int
	Rows      int // total rows across all states
}

// Stats reports the table's segment census.
func (t *Table) Stats() SegmentStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var s SegmentStats
	if t.open != nil && t.open.n > 0 {
		s.Open = 1
		s.OpenRows = t.open.n
		s.Rows += t.open.n
	}
	for _, seg := range t.segments {
		if seg.compacted {
			s.Compacted++
		} else {
			s.Sealed++
		}
		s.Rows += seg.n
	}
	return s
}

// ---------------------------------------------------------------------------
// Observability.

// storeMetrics holds the lifecycle counters shared by every table of a
// store; nil until RegisterObsMetrics wires a registry in.
type storeMetrics struct {
	seals             *obs.Counter
	compactions       *obs.Counter
	compactedSegments *obs.Counter
}

// RegisterObsMetrics publishes the store's lifecycle metrics: seal and
// compaction counters plus computed open/sealed/compacted segment gauges.
// Implements obs.MetricsSource.
func (s *Store) RegisterObsMetrics(reg *obs.Registry) {
	m := &storeMetrics{
		seals:             reg.Counter("druid_segments_sealed"),
		compactions:       reg.Counter("druid_compactions"),
		compactedSegments: reg.Counter("druid_segments_compacted"),
	}
	s.metrics.Store(m)
	census := func(pick func(SegmentStats) int) func() float64 {
		return func() float64 {
			total := 0
			s.mu.RLock()
			tables := make([]*Table, 0, len(s.tables))
			for _, t := range s.tables {
				tables = append(tables, t)
			}
			s.mu.RUnlock()
			for _, t := range tables {
				total += pick(t.Stats())
			}
			return float64(total)
		}
	}
	reg.GaugeFunc("druid_open_segments", census(func(st SegmentStats) int { return st.Open }))
	reg.GaugeFunc("druid_sealed_segments", census(func(st SegmentStats) int { return st.Sealed }))
	reg.GaugeFunc("druid_compacted_segments", census(func(st SegmentStats) int { return st.Compacted }))
}

// metrics resolves the store's metric sink (nil when no registry is wired).
func (t *Table) metrics() *storeMetrics {
	if t.store == nil {
		return nil
	}
	return t.store.metrics.Load()
}
