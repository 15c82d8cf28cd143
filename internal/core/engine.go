// Package core is the embedded engine façade: it wires the SQL front end,
// analyzer, optimizer and execution together behind a simple Query API
// (§III Fig 1, single-process form). The distributed runtime in
// internal/cluster reuses the same pieces with a fragmenter and scheduler.
package core

import (
	"fmt"
	"runtime"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/execution"
	"prestolite/internal/obs"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/sql"
	"prestolite/internal/types"

	// Load the geospatial plugin's functions (§VI.E).
	_ "prestolite/internal/geo"
)

// Engine is an embedded single-process query engine.
type Engine struct {
	Catalogs *connector.Registry
	// Obs is the engine's metrics registry: connectors that expose cache
	// metrics publish into it at Register time, and EXPLAIN ANALYZE appends
	// its cache section from it.
	Obs *obs.Registry
	// Mem is the engine-wide memory pool: every query runs in, and is
	// accounted by, a child of it capped at its query_max_memory, so
	// concurrent queries share one budget. New installs an unlimited one;
	// replace it to set a limit.
	Mem *resource.Pool
	// Spill, when non-nil, lets blocking operators spill to disk instead of
	// failing when a reservation is refused (subject to the spill_enabled
	// session property, default true).
	Spill *resource.SpillManager
}

// New creates an engine with an empty catalog registry and an unlimited
// memory pool.
func New() *Engine {
	return &Engine{Catalogs: connector.NewRegistry(), Obs: obs.NewRegistry(), Mem: resource.NewPool("engine", 0)}
}

// Register installs a connector under a catalog name. Connectors that
// implement obs.MetricsSource (e.g. hive with its §VII caches) are wired
// into the engine's metrics registry.
func (e *Engine) Register(catalog string, c connector.Connector) {
	e.Catalogs.Register(catalog, c)
	if src, ok := c.(obs.MetricsSource); ok {
		src.RegisterObsMetrics(e.Obs)
	}
}

// Result is a fully materialized query result.
type Result struct {
	Columns []planner.Column
	Pages   []*block.Page
}

// RowCount returns the total number of result rows.
func (r *Result) RowCount() int {
	n := 0
	for _, p := range r.Pages {
		n += p.Count()
	}
	return n
}

// Rows returns all rows boxed (convenient for tests and small results).
func (r *Result) Rows() [][]any {
	out := make([][]any, 0, r.RowCount())
	for _, p := range r.Pages {
		for i := 0; i < p.Count(); i++ {
			out = append(out, p.Row(i))
		}
	}
	return out
}

// DefaultSession returns a session with the given defaults.
func DefaultSession(catalog, schema string) *planner.Session {
	return &planner.Session{Catalog: catalog, Schema: schema, User: "test", Properties: map[string]string{}}
}

// Plan parses, analyzes and optimizes a query, returning the physical plan.
func (e *Engine) Plan(session *planner.Session, query string) (planner.Node, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	q, ok := stmt.(*sql.Query)
	if !ok {
		return nil, fmt.Errorf("core: Plan requires a SELECT query, got %T", stmt)
	}
	return planner.PlanQuery(e.Catalogs, session, q)
}

// Query executes a statement and materializes the result. EXPLAIN and SHOW
// statements return single-column textual results.
func (e *Engine) Query(session *planner.Session, query string) (*Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	switch t := stmt.(type) {
	case *sql.Query:
		plan, err := planner.PlanQuery(e.Catalogs, session, t)
		if err != nil {
			return nil, err
		}
		return e.execute(session, plan)
	case *sql.Explain:
		q, ok := t.Stmt.(*sql.Query)
		if !ok {
			return nil, fmt.Errorf("core: EXPLAIN supports only SELECT")
		}
		plan, err := planner.PlanQuery(e.Catalogs, session, q)
		if err != nil {
			return nil, err
		}
		if t.Analyze {
			text, err := e.explainAnalyze(session, plan)
			if err != nil {
				return nil, err
			}
			return textResult("Query Plan", text), nil
		}
		return textResult("Query Plan", planner.Format(plan)), nil
	case *sql.ShowTables:
		conn, err := e.Catalogs.Get(t.Catalog)
		if err != nil {
			return nil, err
		}
		tables, err := conn.Metadata().ListTables(t.Schema)
		if err != nil {
			return nil, err
		}
		vals := make([]any, len(tables))
		for i, name := range tables {
			vals[i] = name
		}
		return &Result{
			Columns: []planner.Column{{Name: "table", Type: types.Varchar}},
			Pages:   []*block.Page{block.NewPage(block.FromValues(types.Varchar, vals...))},
		}, nil
	default:
		return nil, fmt.Errorf("core: unsupported statement %T", stmt)
	}
}

func textResult(column, text string) *Result {
	return &Result{
		Columns: []planner.Column{{Name: column, Type: types.Varchar}},
		Pages:   []*block.Page{block.NewPage(block.FromValues(types.Varchar, text))},
	}
}

// run executes plan for a session and materializes what it returns. Every
// query runs in its own child of the engine's pool, capped at
// query_max_memory (§XII.C: exceeding it fails with the "Insufficient
// Resources" error — unless spill is available and enabled) and closed when
// the query ends, so a failed operator cannot leak reservations into the
// shared pool. With stats set, every operator is instrumented (EXPLAIN
// ANALYZE); footer is the pool's "Memory:" line.
func (e *Engine) run(session *planner.Session, plan planner.Node, stats *obs.TaskStats) (pages []*block.Page, footer string, err error) {
	props, err := session.ExecProperties()
	if err != nil {
		return nil, "", err
	}
	pool := e.queryPool(props.MaxMemory)
	defer pool.Close()
	ctx := &execution.Context{
		Catalogs: e.Catalogs,
		Memory:   pool,
		Stats:    stats,
		// Intra-task parallelism: how many driver pipelines a query runs over
		// its split queue. Defaults to the core count; task_concurrency=1
		// forces serial execution.
		Drivers: runtime.NumCPU(),
	}
	if props.TaskConcurrency > 0 {
		ctx.Drivers = props.TaskConcurrency
	}
	if props.SpillEnabled {
		ctx.Spill = e.Spill
	}
	op, err := execution.Build(plan, ctx)
	if err != nil {
		return nil, "", err
	}
	if pages, err = execution.Drain(op); err != nil {
		return nil, "", err
	}
	// A client always reads what it asked for, so deferred decode is charged
	// — and a column that cannot be read is reported — here.
	if err := materialize(pages); err != nil {
		return nil, "", err
	}
	if stats != nil {
		footer = execution.MemoryFooter(pool)
	}
	return pages, footer, nil
}

// queryPool opens one query's memory context. An Engine built as a literal
// rather than by New has no pool of its own; its queries' pools are roots.
func (e *Engine) queryPool(limit int64) *resource.Pool {
	if e.Mem == nil {
		return resource.NewPool("query", limit)
	}
	return e.Mem.Child("query", limit)
}

func (e *Engine) execute(session *planner.Session, plan planner.Node) (*Result, error) {
	pages, _, err := e.run(session, plan, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: plan.Outputs(), Pages: pages}, nil
}

// materialize forces the lazy columns of pages leaving the engine, in place.
func materialize(pages []*block.Page) (err error) {
	defer func() {
		if lerr := block.RecoveredLoadError(recover()); lerr != nil {
			err = lerr
		}
	}()
	for i, p := range pages {
		pages[i] = block.MaterializePage(p)
	}
	return nil
}

// explainAnalyze executes plan with instrumentation enabled and renders the
// physical tree annotated with actual rows, bytes, wall time and batch
// counts per operator, plus the cache, reader and memory footers.
func (e *Engine) explainAnalyze(session *planner.Session, plan planner.Node) (string, error) {
	stats := obs.NewTaskStats()
	_, memory, err := e.run(session, plan, stats)
	if err != nil {
		return "", err
	}
	snap := e.Obs.Snapshot()
	return execution.FormatAnnotated(plan, stats.Snapshot()) + CacheStatsFooter(snap) + snap.ReaderSection() + memory, nil
}

// CacheStatsFooter renders the cache-related gauges of a registry snapshot
// ("" when there are none) — appended to EXPLAIN ANALYZE output so §VII
// cache effectiveness shows up next to the operators it accelerates.
func CacheStatsFooter(snap obs.Snapshot) string { return snap.CacheSection() }

// Explain returns the formatted optimized plan.
func (e *Engine) Explain(session *planner.Session, query string) (string, error) {
	plan, err := e.Plan(session, query)
	if err != nil {
		return "", err
	}
	return planner.Format(plan), nil
}
