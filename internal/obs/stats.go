package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// OperatorStats accumulates per-operator execution statistics. All fields
// are atomics so an HTTP handler can snapshot a task while its operators are
// running; recording is a handful of uncontended atomic adds (see
// bench_test.go — well under 20ns/op, cheap enough for the per-page hot
// loop).
type OperatorStats struct {
	rowsOut       atomic.Int64
	bytesOut      atomic.Int64
	wallNanos     atomic.Int64
	pages         atomic.Int64
	peakBatchRows atomic.Int64
	drivers       atomic.Int64

	id       int
	childIDs []int
}

// AddDriver records one more concurrent driver instance feeding this
// operator's stats (intra-task parallelism); registration counts the first.
func (s *OperatorStats) AddDriver() { s.drivers.Add(1) }

// Recorder is the single-writer front end to an OperatorStats: the driving
// goroutine accumulates in plain fields (no atomics, ~2ns/page) and flushes
// to the shared atomics every flushEvery pages and at Flush. Concurrent
// snapshots of a *running* task may therefore lag by up to flushEvery-1
// pages; completed tasks are always exact because the operator wrapper
// flushes on EOF/error/Close.
type Recorder struct {
	stats *OperatorStats

	rows  int64
	bytes int64
	pages int64
	peak  int64
	wall  int64
}

const flushEvery = 64

// NewRecorder creates the recorder for one operator instance.
func NewRecorder(stats *OperatorStats) *Recorder { return &Recorder{stats: stats} }

// RecordPage accounts one output page.
func (r *Recorder) RecordPage(rows int, bytes int64) {
	r.pages++
	r.rows += int64(rows)
	r.bytes += bytes
	if int64(rows) > r.peak {
		r.peak = int64(rows)
	}
	if r.pages%flushEvery == 0 {
		r.Flush()
	}
}

// RecordWall adds wall-clock time spent inside the operator's Next.
func (r *Recorder) RecordWall(d time.Duration) { r.wall += int64(d) }

// Flush publishes the buffered deltas into the shared OperatorStats.
func (r *Recorder) Flush() {
	s := r.stats
	if r.rows != 0 {
		s.rowsOut.Add(r.rows)
		r.rows = 0
	}
	if r.bytes != 0 {
		s.bytesOut.Add(r.bytes)
		r.bytes = 0
	}
	if r.pages != 0 {
		s.pages.Add(r.pages)
		r.pages = 0
	}
	if r.wall != 0 {
		s.wallNanos.Add(r.wall)
		r.wall = 0
	}
	if r.peak > 0 {
		for {
			cur := s.peakBatchRows.Load()
			if r.peak <= cur || s.peakBatchRows.CompareAndSwap(cur, r.peak) {
				break
			}
		}
		r.peak = 0
	}
}

// OperatorStatsSnapshot is the wire/JSON form of one operator's statistics.
// RowsIn/BytesIn are derived at snapshot time from the operator's children
// (for leaves, input equals output: a scan's input is what it read). Name
// is the operator's plan text, empty until a holder of the plan renders it
// by ID (execution.NameOperators).
type OperatorStatsSnapshot struct {
	ID            int
	Name          string
	RowsIn        int64
	BytesIn       int64
	RowsOut       int64
	BytesOut      int64
	WallNanos     int64
	Pages         int64
	PeakBatchRows int64
	// Tasks counts how many task-level snapshots were merged into this one
	// (1 for a single task; >1 after MergeSnapshots).
	Tasks int
	// Drivers counts the concurrent pipeline instances that recorded into
	// this operator, summed across merged tasks (a serial task contributes
	// 1, so drivers == tasks means no intra-task parallelism ran).
	Drivers int
}

// TaskStats collects the operator statistics of one running task.
// Registration (plan build time) takes a lock; recording is lock-free.
type TaskStats struct {
	mu  sync.Mutex
	ops []*OperatorStats
}

// NewTaskStats creates an empty stats sink.
func NewTaskStats() *TaskStats { return &TaskStats{} }

// Register adds an operator identified by its pre-order plan id. childIDs
// are the ids of the operator's plan children, used to derive input rows.
// The operator's name is not kept: whoever holds the plan renders it by id
// when the stats are read (execution.NameOperators).
func (t *TaskStats) Register(id int, childIDs []int) *OperatorStats {
	s := &OperatorStats{id: id, childIDs: append([]int(nil), childIDs...)}
	s.drivers.Store(1)
	t.mu.Lock()
	t.ops = append(t.ops, s)
	t.mu.Unlock()
	return s
}

// Snapshot captures all operators, sorted by id, with derived input rows.
// Safe to call while operators are still recording.
func (t *TaskStats) Snapshot() []OperatorStatsSnapshot {
	t.mu.Lock()
	ops := append([]*OperatorStats(nil), t.ops...)
	t.mu.Unlock()

	out := make([]OperatorStatsSnapshot, len(ops))
	byID := make(map[int]*OperatorStatsSnapshot, len(ops))
	for i, s := range ops {
		out[i] = OperatorStatsSnapshot{
			ID:            s.id,
			RowsOut:       s.rowsOut.Load(),
			BytesOut:      s.bytesOut.Load(),
			WallNanos:     s.wallNanos.Load(),
			Pages:         s.pages.Load(),
			PeakBatchRows: s.peakBatchRows.Load(),
			Tasks:         1,
			Drivers:       int(s.drivers.Load()),
		}
		byID[s.id] = &out[i]
	}
	for i, s := range ops {
		if len(s.childIDs) == 0 {
			out[i].RowsIn = out[i].RowsOut
			out[i].BytesIn = out[i].BytesOut
			continue
		}
		for _, cid := range s.childIDs {
			if c, ok := byID[cid]; ok {
				out[i].RowsIn += c.RowsOut
				out[i].BytesIn += c.BytesOut
			}
		}
	}
	sortSnapshots(out)
	return out
}

func sortSnapshots(s []OperatorStatsSnapshot) {
	// Insertion sort: operator counts are tiny and this avoids pulling in
	// sort for a hot-free path.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// MergeSnapshots sums per-operator snapshots from multiple tasks that ran
// the same plan fragment (operators matched by id): rows, bytes, wall time
// and page counts add; peak batch rows takes the max.
func MergeSnapshots(tasks ...[]OperatorStatsSnapshot) []OperatorStatsSnapshot {
	merged := map[int]*OperatorStatsSnapshot{}
	var order []int
	for _, snap := range tasks {
		for _, op := range snap {
			m, ok := merged[op.ID]
			if !ok {
				cp := op
				merged[op.ID] = &cp
				order = append(order, op.ID)
				continue
			}
			m.RowsIn += op.RowsIn
			m.BytesIn += op.BytesIn
			m.RowsOut += op.RowsOut
			m.BytesOut += op.BytesOut
			m.WallNanos += op.WallNanos
			m.Pages += op.Pages
			m.Tasks += op.Tasks
			m.Drivers += op.Drivers
			if op.PeakBatchRows > m.PeakBatchRows {
				m.PeakBatchRows = op.PeakBatchRows
			}
		}
	}
	out := make([]OperatorStatsSnapshot, 0, len(order))
	for _, id := range order {
		out = append(out, *merged[id])
	}
	sortSnapshots(out)
	return out
}

// MetricsSource is implemented by components (connectors, caches) that can
// publish their metrics into a registry.
type MetricsSource interface {
	RegisterObsMetrics(r *Registry)
}
