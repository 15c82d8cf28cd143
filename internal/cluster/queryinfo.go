package cluster

import (
	"sync"
	"time"

	"prestolite/internal/execution"
	"prestolite/internal/obs"
	"prestolite/internal/planner"
)

// QueryState is the coordinator-side query lifecycle (§VIII: the coordinator
// "tracks task state").
type QueryState string

const (
	QueryQueued   QueryState = "QUEUED"
	QueryPlanning QueryState = "PLANNING"
	QueryRunning  QueryState = "RUNNING"
	QueryFinished QueryState = "FINISHED"
	QueryFailed   QueryState = "FAILED"
)

// StageInfo aggregates one plan fragment's execution: operator statistics
// merged across all tasks of the stage (fragment 0 is the coordinator-side
// root; source fragments run on workers, one task per worker with splits).
type StageInfo struct {
	FragmentID int
	TableKey   string `json:",omitempty"` // source stages: catalog.schema.table scanned
	Tasks      int
	Workers    []string `json:",omitempty"`
	Operators  []obs.OperatorStatsSnapshot
}

// QueryInfo is the per-query document retained in the coordinator's recent
// query ring and served at /v1/query/{id}.
type QueryInfo struct {
	ID    string
	Query string
	User  string
	State QueryState
	Error string `json:",omitempty"`

	// Lifecycle timestamps: Queued -> Planning -> Running -> Finished.
	Queued   time.Time
	Planning time.Time
	Running  time.Time
	Finished time.Time

	// Rows is the number of result rows streamed to the client.
	Rows int64

	// FromCache marks a query served whole from the coordinator's
	// fragment-result cache: no fragments were scheduled, Stages is empty.
	FromCache bool `json:",omitempty"`

	// Resource usage (§XII.C): time spent queued for an admission slot, the
	// query memory context's peak reservation, and bytes spilled to disk.
	QueuedMs        int64 `json:",omitempty"`
	PeakMemoryBytes int64 `json:",omitempty"`
	SpilledBytes    int64 `json:",omitempty"`

	Stages []StageInfo

	// fragments is the plan Stages ran. Tasks record operator statistics by
	// id alone; the names are rendered from it when the info is first read
	// (nameOperators).
	fragments *planner.FragmentedPlan
}

// nameOperators names each stage's operators by their plan text, once: the
// first read renders them into new Stages and lets the plan go.
func (qi *QueryInfo) nameOperators() {
	if qi.fragments == nil {
		return
	}
	stages := make([]StageInfo, len(qi.Stages))
	for i, s := range qi.Stages {
		root := qi.fragments.Root.Root
		if s.FragmentID != 0 {
			root = qi.fragments.Sources[s.FragmentID].Root
		}
		s.Operators = execution.NameOperators(root, s.Operators)
		stages[i] = s
	}
	qi.Stages, qi.fragments = stages, nil
}

// queryLog is a bounded ring of recent queries (live queries included). All
// QueryInfo mutation and reading goes through its lock; the coordinator
// mutates via update() and handlers read copies via get()/list().
type queryLog struct {
	mu       sync.Mutex
	capacity int
	byID     map[string]*QueryInfo
	order    []string // oldest .. newest
}

func newQueryLog(capacity int) *queryLog {
	if capacity <= 0 {
		capacity = 128
	}
	return &queryLog{capacity: capacity, byID: map[string]*QueryInfo{}}
}

// add registers a query, evicting the oldest beyond capacity.
func (l *queryLog) add(qi *QueryInfo) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byID[qi.ID] = qi
	l.order = append(l.order, qi.ID)
	for len(l.order) > l.capacity {
		delete(l.byID, l.order[0])
		l.order = l.order[1:]
	}
}

// update mutates a query's info under the log lock.
func (l *queryLog) update(id string, fn func(*QueryInfo)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if qi, ok := l.byID[id]; ok {
		fn(qi)
	}
}

// get returns a copy, its operators named (stages shared read-only; they are
// replaced wholesale, never mutated in place).
func (l *queryLog) get(id string) (QueryInfo, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	qi, ok := l.byID[id]
	if !ok {
		return QueryInfo{}, false
	}
	qi.nameOperators()
	return *qi, true
}

// list returns copies, most recent first.
func (l *queryLog) list() []QueryInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]QueryInfo, 0, len(l.order))
	for i := len(l.order) - 1; i >= 0; i-- {
		qi := l.byID[l.order[i]]
		qi.nameOperators()
		out = append(out, *qi)
	}
	return out
}
