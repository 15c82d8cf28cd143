package planner

import (
	"fmt"
	"strconv"

	"prestolite/internal/connector"
	"prestolite/internal/sql"
)

// PlanQuery is the one planning sequence — analyze, optimize, CheckTypes —
// behind the embedded engine, the coordinator and both their EXPLAINs, so a
// plan one of them renders is a plan all of them would run.
func PlanQuery(catalogs *connector.Registry, session *Session, q *sql.Query) (Node, error) {
	analyzer := &Analyzer{Catalogs: catalogs, Session: session}
	plan, err := analyzer.Analyze(q)
	if err != nil {
		return nil, err
	}
	optimizer := &Optimizer{Catalogs: catalogs, Session: session}
	plan = optimizer.Optimize(plan)
	if err := CheckTypes(plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// ExecProperties are the session properties that tune execution rather than
// planning, parsed and validated in one place for the embedded engine and the
// cluster coordinator.
type ExecProperties struct {
	// TaskConcurrency is task_concurrency, the driver pipelines per task;
	// 0 when the session does not set it.
	TaskConcurrency int
	// DisableVectorized is vectorized_execution=false: pin aggregations and
	// joins to the row-at-a-time reference operators — the escape hatch, and
	// the oracle the equivalence suite compares the kernels against.
	DisableVectorized bool
	// MaxMemory is query_max_memory in bytes, meaningful when MaxMemorySet
	// (an unset property defers to the resource group's cap).
	MaxMemory    int64
	MaxMemorySet bool
	// SpillEnabled is spill_enabled (default true): blocking operators may
	// spill to a configured spill manager instead of failing.
	SpillEnabled bool
}

// ExecProperties parses the session's execution properties.
func (s *Session) ExecProperties() (ExecProperties, error) {
	p := ExecProperties{
		DisableVectorized: s.Property("vectorized_execution", "true") == "false",
		SpillEnabled:      s.Property("spill_enabled", "true") == "true",
	}
	if v := s.Property("task_concurrency", ""); v != "" {
		d, err := strconv.Atoi(v)
		if err != nil || d < 1 {
			return p, fmt.Errorf("session: bad task_concurrency %q: want a positive integer", v)
		}
		p.TaskConcurrency = d
	}
	if v := s.Property("query_max_memory", ""); v != "" {
		limit, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("session: bad query_max_memory %q: %w", v, err)
		}
		p.MaxMemory, p.MaxMemorySet = limit, true
	}
	return p, nil
}
