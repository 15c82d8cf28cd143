package planner

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

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
	// MaxMemory is query_max_memory in bytes, meaningful when MaxMemorySet
	// (an unset property defers to the resource group's cap).
	MaxMemory    int64
	MaxMemorySet bool
	// SpillEnabled is spill_enabled (default true): blocking operators may
	// spill to a configured spill manager instead of failing.
	SpillEnabled bool
	// MaxRun is query_max_run_ms, the query's wall-clock budget; 0 when the
	// session does not set it. Only the cluster coordinator enforces it.
	MaxRun time.Duration
	// ResultCache is result_cache (default true): the coordinator may answer
	// from, and fill, its result cache.
	ResultCache bool
}

// sessionProperties are the names a session may set, all of them. README's
// "Session properties" table has one row per name (a test holds it to this
// list); the first five are ExecProperties' own, the planner reads
// geospatial_optimization and the coordinator's admission reads
// resource_group.
var sessionProperties = []string{
	"task_concurrency",
	"query_max_memory",
	"spill_enabled",
	"query_max_run_ms",
	"result_cache",
	"geospatial_optimization",
	"resource_group",
}

// ExecProperties parses the session's execution properties. A name outside
// sessionProperties is an error: a misspelt property must not run with the
// default and say nothing.
func (s *Session) ExecProperties() (ExecProperties, error) {
	if s != nil {
		var unknown []string
		for name := range s.Properties {
			if !slices.Contains(sessionProperties, name) {
				unknown = append(unknown, name)
			}
		}
		if len(unknown) > 0 {
			slices.Sort(unknown) // the same error whichever way the map iterates
			return ExecProperties{}, fmt.Errorf("session: unknown property %q (known: %s)", unknown[0], strings.Join(sessionProperties, ", "))
		}
	}
	p := ExecProperties{
		SpillEnabled: s.Property("spill_enabled", "true") == "true",
		ResultCache:  s.Property("result_cache", "true") != "false",
	}
	var err error
	if p.TaskConcurrency, err = s.positiveInt("task_concurrency"); err != nil {
		return p, err
	}
	if v := s.Property("query_max_memory", ""); v != "" {
		limit, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("session: bad query_max_memory %q: %w", v, err)
		}
		p.MaxMemory, p.MaxMemorySet = limit, true
	}
	ms, err := s.positiveInt("query_max_run_ms")
	p.MaxRun = time.Duration(ms) * time.Millisecond
	return p, err
}

// positiveInt parses a property that, when set, must be a positive integer;
// it is 0 when unset.
func (s *Session) positiveInt(name string) (int, error) {
	v := s.Property(name, "")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("session: bad %s %q: want a positive integer", name, v)
	}
	return n, nil
}
