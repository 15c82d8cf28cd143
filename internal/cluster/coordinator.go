package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptrace"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cache"
	"prestolite/internal/connector"
	"prestolite/internal/execution"
	"prestolite/internal/frame"
	"prestolite/internal/obs"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/sql"
	"prestolite/internal/types"

	// Geospatial plugin functions must exist on the coordinator too.
	_ "prestolite/internal/geo"
)

// Coordinator is the single stateful node of a cluster (§VIII): it parses,
// plans, optimizes, fragments, schedules tasks onto workers, tracks task
// status and streams results to clients. It also tracks every query as a
// QueryInfo (state, lifecycle timestamps, per-stage operator statistics) in
// a bounded ring served at /v1/query, and publishes cluster-level metrics —
// including the queries_outstanding gauge the gateway routes on — at
// /v1/stats.
type Coordinator struct {
	Catalogs *connector.Registry

	// DrainGrace bounds how long GracefulDrain waits for in-flight queries
	// to finish before aborting the stragglers with ErrCoordinatorDraining.
	// 0 means the 5s default.
	DrainGrace time.Duration

	cfg ClientConfig

	http *http.Server
	ln   net.Listener
	addr string

	mu       sync.Mutex
	workers  map[string]*workerClient // addr -> client
	inflight map[string]map[*taskHandle]struct{}

	// draining latches once GracefulDrain starts: new statements are
	// refused with the typed, retryable ErrCoordinatorDraining.
	draining atomic.Bool
	// liveMu guards live, the queryID -> queryState registry of in-flight
	// queries; the drain aborts through it.
	liveMu sync.Mutex
	live   map[string]*queryState

	// id prefixes every task id the coordinator posts (id.q<N>.f<F>.t<W>):
	// minted once, at random, so that two coordinators sharing a worker
	// never post the same id, whose answer or acknowledgement the worker
	// would give the other.
	id           string
	queryCounter atomic.Int64
	queries      *queryLog
	obs          *obs.Registry

	// res is the resource-management subsystem (memory pool, admission
	// groups, spill, OOM killer): the zero ResourceConfig's until
	// ConfigureResources replaces it.
	res *coordResources

	// planMemo keeps each statement's optimized plan under its text and
	// session (planMemoKey), above tier 2; always on. resultCache is tier 2
	// of the cache hierarchy: whole query results keyed by the plan's binary
	// encoding plus every scanned table's snapshot version (keyPlan). nil
	// until EnableResultCache.
	planMemo          *cache.LRU[string, planEntry]
	resultCache       *cache.LRU[string, cachedResult]
	resultUncacheable *obs.Counter

	submitted     *obs.Counter
	finished      *obs.Counter
	failed        *obs.Counter
	httpWriteErrs *obs.Counter
	taskRetries   *obs.Counter
	rpcRetries    *obs.Counter
	hedgedFetches *obs.Counter
	drains        *obs.Counter
	outstanding   *obs.Gauge
	queryWall     *obs.Histogram

	affinityPlaced   *obs.Counter
	affinityOverflow *obs.Counter

	// The requests the coordinator makes of workers, by kind: task starts
	// (POST /v1/task), results fetches (GET ?page=N), DELETEs and live stats
	// reads. On the no-fault path a task costs one start and nothing else.
	rpcStart, rpcFetch, rpcDelete, rpcStats *obs.Counter
}

type workerClient struct {
	addr string
	http *http.Client

	mu sync.Mutex
	// acks are the tasks on this worker whose Done answer was read, for the
	// next task document to it to acknowledge (TaskRequest.Acks).
	acks []string
}

// ack queues acknowledgements for the next task document to w. Past
// maxTaskAcks the oldest go unsent: the worker releases those after
// releaseAfter.
func (w *workerClient) ack(ids ...string) {
	w.mu.Lock()
	w.acks = append(w.acks, ids...)
	if over := len(w.acks) - maxTaskAcks; over > 0 {
		w.acks = append(w.acks[:0], w.acks[over:]...)
	}
	w.mu.Unlock()
}

// takeAcks takes the queued acknowledgements.
func (w *workerClient) takeAcks() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	acks := w.acks
	w.acks = nil
	return acks
}

// NewCoordinator creates a coordinator over a catalog registry with the
// default client configuration.
func NewCoordinator(catalogs *connector.Registry) *Coordinator {
	return NewCoordinatorWithConfig(catalogs, ClientConfig{})
}

// NewCoordinatorWithConfig creates a coordinator with explicit timeouts,
// transport, clock and retry policy (zero fields take defaults). Chaos
// tests inject their fault transport and tightened timeouts here.
func NewCoordinatorWithConfig(catalogs *connector.Registry, cfg ClientConfig) *Coordinator {
	c := &Coordinator{
		Catalogs: catalogs,
		cfg:      cfg.WithDefaults(),
		id:       strconv.FormatUint(rand.Uint64(), 36),
		workers:  map[string]*workerClient{},
		inflight: map[string]map[*taskHandle]struct{}{},
		live:     map[string]*queryState{},
		queries:  newQueryLog(128),
		obs:      obs.NewRegistry(),
	}
	c.submitted = c.obs.Counter("queries_submitted")
	c.finished = c.obs.Counter("queries_finished")
	c.failed = c.obs.Counter("queries_failed")
	c.httpWriteErrs = c.obs.Counter("http_write_errors")
	c.taskRetries = c.obs.Counter("task_retries")
	c.rpcRetries = c.obs.Counter("rpc_retries")
	c.hedgedFetches = c.obs.Counter("hedged_fetches")
	c.drains = c.obs.Counter("coordinator_drains")
	c.outstanding = c.obs.Gauge("queries_outstanding")
	c.queryWall = c.obs.Histogram("query_wall")
	c.affinityPlaced = c.obs.Counter("splits_affinity_placed")
	c.affinityOverflow = c.obs.Counter("splits_affinity_overflow")
	c.rpcStart = c.obs.Counter("coordinator.task_rpc.start")
	c.rpcFetch = c.obs.Counter("coordinator.task_rpc.fetch")
	c.rpcDelete = c.obs.Counter("coordinator.task_rpc.delete")
	c.rpcStats = c.obs.Counter("coordinator.task_rpc.stats")
	c.planMemo = cache.NewSizedLRU[string, planEntry](math.MaxInt, 0, cache.NewBudget(planMemoBudget))
	c.planMemo.Metrics.RegisterObs(c.obs, "coordinator.cache.plan")
	c.obs.GaugeFunc("coordinator_draining", func() float64 {
		if c.draining.Load() {
			return 1
		}
		return 0
	})
	_ = c.ConfigureResources(ResourceConfig{}) // no spill directory to make: cannot fail
	registerCatalogMetrics(catalogs, c.obs)
	return c
}

// Obs exposes the coordinator's metrics registry (served at /v1/stats).
func (c *Coordinator) Obs() *obs.Registry { return c.obs }

// cachedResult is one coordinator result-cache entry: the finished result
// plus the row count QueryInfo reports on a hit.
type cachedResult struct {
	res  *QueryResult
	rows int64
}

// EnableResultCache turns on the coordinator's fragment-result cache (§VII,
// tier 2 of the hierarchy): SELECT results are cached under a key built from
// the encoded optimized plan and the snapshot version of every table it
// scans (keyPlan). Version-in-key makes invalidation implicit — a metastore
// partition add or a druid append, seal or compaction bumps the version and
// the stale entry simply stops being addressed; ttl and maxBytes only bound
// residency. Queries over tables whose connectors cannot report a snapshot
// version are never cached (counted in coordinator.cache.result.uncacheable).
func (c *Coordinator) EnableResultCache(capacity int, maxBytes int64, ttl time.Duration) {
	rc := cache.NewSizedLRU[string, cachedResult](capacity, ttl, cache.NewBudget(maxBytes))
	rc.SetClock(c.cfg.Clock)
	rc.Metrics.RegisterObs(c.obs, "coordinator.cache.result")
	c.resultUncacheable = c.obs.Counter("coordinator.cache.result.uncacheable")
	c.resultCache = rc
}

// QueryInfos lists the retained recent queries, most recent first.
func (c *Coordinator) QueryInfos() []QueryInfo { return c.queries.list() }

// GetQueryInfo returns one query's info by id.
func (c *Coordinator) GetQueryInfo(id string) (QueryInfo, bool) { return c.queries.get(id) }

// AddWorker registers a worker (graceful expansion, §IX: "new workers are
// automatically added to the existing cluster").
func (c *Coordinator) AddWorker(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[addr] = &workerClient{addr: addr, http: c.cfg.workerHTTPClient()}
}

// forgetWorker takes a worker out of the candidate set: no later task is
// placed on it. Its tasks in flight carry on and are fetched as usual — what
// a worker that refused a task because it is shutting down needs (§IX).
func (c *Coordinator) forgetWorker(addr string) {
	c.mu.Lock()
	delete(c.workers, addr)
	c.mu.Unlock()
}

// RemoveWorker forgets a dead worker and aborts its tasks still in flight,
// so the affected queries reschedule them at once instead of waiting out
// the HTTP timeout against a vanished node.
func (c *Coordinator) RemoveWorker(addr string) {
	c.forgetWorker(addr)
	c.mu.Lock()
	handles := c.inflight[addr]
	delete(c.inflight, addr)
	c.mu.Unlock()
	for th := range handles {
		th.abort(fmt.Errorf("cluster: worker %s was removed from the cluster with task %s in flight", addr, th.taskID))
	}
}

// trackTask registers a handle as in flight on its worker.
func (c *Coordinator) trackTask(th *taskHandle) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.inflight[th.worker.addr]
	if !ok {
		m = map[*taskHandle]struct{}{}
		c.inflight[th.worker.addr] = m
	}
	m[th] = struct{}{}
}

// releaseTask untracks a task and releases it on its worker: a task whose
// Done answer was read is acknowledged on the next task document to the
// worker; one abandoned before that (under LIMIT, on a failure or an abort),
// or one of a query that failed, is deleted.
func (c *Coordinator) releaseTask(th *taskHandle, abandoned bool) {
	c.mu.Lock()
	if m, ok := c.inflight[th.worker.addr]; ok {
		delete(m, th)
		if len(m) == 0 {
			delete(c.inflight, th.worker.addr)
		}
	}
	c.mu.Unlock()
	if !abandoned && th.answered() {
		th.worker.ack(th.taskID)
		return
	}
	c.rpcDelete.Inc()
	th.delete()
}

// Workers lists registered worker addresses, sorted.
func (c *Coordinator) Workers() []string {
	var out []string
	for _, w := range c.candidates("") {
		out = append(out, w.addr)
	}
	return out
}

// candidates returns the registered workers other than except, sorted by
// address: the set tasks are placed on. Nothing is asked of a worker to put
// it here; it leaves when a task RPC shows it dead or leaving (see
// startTaskAnywhere and rescheduleTask), and /v1/announce brings it back.
func (c *Coordinator) candidates(except string) []*workerClient {
	c.mu.Lock()
	out := make([]*workerClient, 0, len(c.workers))
	for addr, w := range c.workers {
		if addr != except {
			out = append(out, w)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// errTaskRefused marks a worker rejecting a task assignment; the scheduler
// retries these on another worker instead of failing the query.
// errWorkerLeaving is the refusal of a worker that has left ACTIVE.
var (
	errTaskRefused   = errors.New("worker refused task")
	errWorkerLeaving = errors.New("worker is leaving the cluster")
)

// startTaskAnywhere starts req on workers[prefer], falling back to the
// remaining workers on refusal or on a request that did not reach the
// worker, so the surviving workers take the splits. What a failed start
// shows is kept: a worker whose connection is refused or reset is dead and
// removed (its in-flight tasks reschedule); one that refuses because it has
// left ACTIVE is forgotten, and its in-flight tasks finish (§IX promises
// in-flight queries survive a graceful shrink); a timeout or a dropped
// request keeps the worker, because slow is not dead. A start that reached
// the worker is not failed here (startTask). Whole-set failures are retried with
// backoff for MaxAttempts rounds before the typed ErrSchedulingFailed
// surfaces. Each round re-checks the query's deadline and abort latch, so a
// drained or overdue query stops scheduling work.
func (c *Coordinator) startTaskAnywhere(qs *queryState, workers []*workerClient, prefer int, req TaskRequest) (*taskHandle, error) {
	var lastErr error
	for round := 1; round <= c.cfg.MaxAttempts; round++ {
		if err := c.checkQuery(qs); err != nil {
			return nil, err
		}
		if round > 1 {
			c.rpcRetries.Inc()
			c.cfg.Clock.Sleep(c.cfg.backoff(round - 1))
		}
		for off := 0; off < len(workers); off++ {
			w := workers[(prefer+off)%len(workers)]
			c.rpcStart.Inc()
			th, err := w.startTask(req)
			switch {
			case err == nil:
				return th, nil
			case isWorkerGone(err):
				c.RemoveWorker(w.addr)
			case errors.Is(err, errWorkerLeaving):
				c.forgetWorker(w.addr)
			}
			lastErr = fmt.Errorf("scheduling task on %s: %w", w.addr, err)
		}
	}
	return nil, fmt.Errorf("%w: %v", ErrSchedulingFailed, lastErr)
}

// QueryResult is what clients receive. Over HTTP it travels as one envelope
// (block.Envelope): a header of Columns and Types
// (appendStatementHeader), then Pages as they are.
type QueryResult struct {
	Columns []string
	Types   []string
	Pages   [][]byte // encoded pages
}

// Rows decodes all pages into boxed rows.
func (qr *QueryResult) Rows() ([][]any, error) {
	var out [][]any
	for _, data := range qr.Pages {
		p, err := block.DecodePage(data)
		if err != nil {
			return nil, err
		}
		for i := 0; i < p.Count(); i++ {
			out = append(out, p.Row(i))
		}
	}
	return out, nil
}

// Query plans and executes a SQL statement across the cluster. SELECT
// returns rows; EXPLAIN renders the fragmented plan; EXPLAIN ANALYZE
// executes the statement and renders the plan annotated with the actual
// per-operator statistics gathered from every worker task.
func (c *Coordinator) Query(session *planner.Session, query string) (*QueryResult, error) {
	if c.draining.Load() {
		// Refused before any state is created: the statement is safe to
		// resubmit verbatim on another cluster.
		return nil, ErrCoordinatorDraining
	}
	memoKey := planMemoKey(session, query)
	if e, ok := c.planMemo.GetFresh(memoKey, c.current); ok {
		res, _, err := c.runTracked(session, statement{memo: e}, query, false)
		return res, err
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	switch t := stmt.(type) {
	case *sql.Query:
		res, _, err := c.runTracked(session, statement{q: t, memoKey: memoKey}, query, false)
		return res, err
	case *sql.Explain:
		q, ok := t.Stmt.(*sql.Query)
		if !ok {
			return nil, fmt.Errorf("cluster: EXPLAIN supports only SELECT, got %T", t.Stmt)
		}
		if !t.Analyze {
			plan, err := planner.PlanQuery(c.Catalogs, session, q)
			if err != nil {
				return nil, err
			}
			fragmenter := &planner.Fragmenter{}
			return planTextResult(planner.FormatFragments(fragmenter.Fragment(plan)))
		}
		_, text, err := c.runTracked(session, statement{q: q}, query, true)
		if err != nil {
			return nil, err
		}
		return planTextResult(text)
	default:
		return nil, fmt.Errorf("cluster: unsupported statement %T", stmt)
	}
}

// planTextResult packages rendered plan text as a one-row result.
func planTextResult(text string) (*QueryResult, error) {
	data, err := block.EncodePage(block.NewPage(block.FromValues(types.Varchar, text)))
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		Columns: []string{"Query Plan"},
		Types:   []string{types.Varchar.String()},
		Pages:   [][]byte{data},
	}, nil
}

// statement is what execQuery runs: a parsed query q to plan and, when it
// has a memoKey (a SELECT, not EXPLAIN ANALYZE), to memoise once it
// succeeds; or, with q nil, the memo's plan.
type statement struct {
	q       *sql.Query
	memoKey string
	memo    planEntry
}

// runTracked wraps execQuery with QueryInfo lifecycle tracking and the
// cluster-level metrics the gateway routes on.
func (c *Coordinator) runTracked(session *planner.Session, st statement, rawSQL string, analyze bool) (*QueryResult, string, error) {
	queryID := fmt.Sprintf("q%d", c.queryCounter.Add(1))
	c.queries.add(&QueryInfo{ID: queryID, Query: rawSQL, User: session.User, State: QueryQueued, Queued: c.cfg.Clock.Now()})
	c.submitted.Inc()
	c.outstanding.Add(1)
	start := c.cfg.Clock.Now()

	res, text, err := c.admitAndExec(session, st, queryID, analyze, start)

	c.outstanding.Add(-1)
	c.queryWall.Observe(c.cfg.Clock.Now().Sub(start))
	if err != nil {
		c.failed.Inc()
		now := c.cfg.Clock.Now()
		c.queries.update(queryID, func(qi *QueryInfo) {
			qi.State = QueryFailed
			qi.Error = err.Error()
			qi.Finished = now
		})
		return nil, "", err
	}
	c.finished.Inc()
	return res, text, nil
}

// admitAndExec runs the admission-control rung of the §XII.C degradation
// ladder before execution: the query waits in its resource group's FIFO
// queue (staying in the QUEUED state it was added with) until a concurrency
// slot frees up. A full queue rejects immediately with the typed
// resource.ErrQueueFull, which the HTTP front end maps to 429.
func (c *Coordinator) admitAndExec(session *planner.Session, st statement, queryID string, analyze bool, queued time.Time) (*QueryResult, string, error) {
	if g := c.groupFor(session); g != nil {
		release, err := g.Acquire(nil)
		if err != nil {
			c.res.admissionRejects.Inc()
			return nil, "", err
		}
		defer release()
		queuedMs := c.cfg.Clock.Now().Sub(queued).Milliseconds()
		c.queries.update(queryID, func(qi *QueryInfo) { qi.QueuedMs = queuedMs })
	}
	return c.execQuery(session, st, queryID, analyze)
}

func (c *Coordinator) execQuery(session *planner.Session, st statement, queryID string, analyze bool) (*QueryResult, string, error) {
	c.queries.update(queryID, func(qi *QueryInfo) { qi.State = QueryPlanning; qi.Planning = c.cfg.Clock.Now() })
	props, err := session.ExecProperties()
	if err != nil {
		return nil, "", err
	}
	memLimit := queryMemoryLimit(props, c.groupFor(session))
	// A memoised statement is planned already, and its entry is its key.
	// Otherwise plan it; what EXPLAIN ANALYZE plans is neither memoised nor
	// result-cached, so it is not keyed either.
	entry, keyed := st.memo, st.q == nil
	var plan planner.Node
	if st.q != nil {
		if plan, err = planner.PlanQuery(c.Catalogs, session, st.q); err != nil {
			return nil, "", err
		}
		if !analyze {
			entry, keyed = keyPlan(plan)
		}
	}

	// Result-cache probe (tier 2). EXPLAIN ANALYZE always executes — its
	// deliverable is the annotated plan, not the rows — and a session can opt
	// out per query with result_cache=false.
	resultCacheKey := ""
	if c.resultCache != nil && !analyze && props.ResultCache {
		if keyed {
			if hit, found := c.resultCache.Get(entry.resultKey); found {
				c.memoise(st, entry)
				now := c.cfg.Clock.Now()
				c.queries.update(queryID, func(qi *QueryInfo) {
					qi.State = QueryFinished
					qi.Finished = now
					qi.Rows = hit.rows
					qi.FromCache = true
				})
				return hit.res, "", nil
			}
			resultCacheKey = entry.resultKey
		} else {
			c.resultUncacheable.Inc()
		}
	}
	if plan == nil {
		if plan, err = c.decodePlan(entry); err != nil {
			return nil, "", err
		}
	}

	fragmenter := &planner.Fragmenter{}
	fp := fragmenter.Fragment(plan)

	c.queries.update(queryID, func(qi *QueryInfo) { qi.State = QueryRunning; qi.Running = c.cfg.Clock.Now() })

	// Schedule source fragments onto active workers. The query state
	// carries the shared retry budget its remote sources draw on, the
	// query's deadline, and the abort latch the coordinator drain trips.
	qs := newQueryState(&c.cfg)
	if props.MaxRun > 0 {
		qs.deadline = c.cfg.Clock.Now().Add(props.MaxRun)
	}
	c.liveMu.Lock()
	c.live[queryID] = qs
	c.liveMu.Unlock()
	defer func() {
		c.liveMu.Lock()
		delete(c.live, queryID)
		c.liveMu.Unlock()
	}()
	remotes := map[int][]*taskHandle{}
	// Registered before the first task starts: a query that fails while
	// scheduling must still release the tasks it already placed, once their
	// starts have settled — at once, since no later statement may come to
	// acknowledge them.
	failed := true
	defer func() {
		for _, ths := range remotes {
			for _, th := range ths {
				if th.wait() == nil {
					c.releaseTask(th, failed)
				}
			}
		}
	}()
	if !fp.SingleFragment() {
		workers := c.candidates("")
		if len(workers) == 0 {
			return nil, "", fmt.Errorf("%w: none registered", ErrNoActiveWorkers)
		}
		for id, frag := range fp.Sources {
			conn, err := c.Catalogs.Get(frag.Scan.Catalog)
			if err != nil {
				return nil, "", err
			}
			splits, err := conn.SplitManager().Splits(frag.Scan.Handle)
			if err != nil {
				return nil, "", err
			}
			// Split assignment across workers ("scheduler assigns tasks on
			// worker execution slots"): soft-affinity rendezvous hashing by
			// default (§VII: RaptorX techniques) — the same split keeps
			// landing on the same worker, maximizing that worker's footer,
			// chunk and fragment-result cache hits — degrading to the next
			// preferred worker at the load cap.
			assignment, placed, overflow := assignSplits(splits, workers)
			c.affinityPlaced.Add(int64(placed))
			c.affinityOverflow.Add(int64(overflow))
			shared := encodeFragment(frag.Root, frag.TableKey)
			for wi, splitSet := range assignment {
				if len(splitSet) == 0 {
					continue
				}
				// Every task of every source fragment is posted at once; the
				// root takes them in order as their answers come (drainTask).
				th := &taskHandle{started: make(chan struct{}), req: TaskRequest{
					TaskID:   fmt.Sprintf("%s.%s.f%d.t%d", c.id, queryID, id, wi),
					Fragment: frag.Root,
					TableKey: frag.TableKey,
					Splits:   splitSet,
					// 0 lets each worker apply its own -task-concurrency default.
					Drivers:         props.TaskConcurrency,
					MaxMemory:       memLimit,
					Deadline:        deadlineNanos(qs.deadline),
					SnapshotVersion: frag.Scan.Version,
					fragment:        shared,
				}}
				th.taskID = th.req.TaskID
				go c.start(qs, workers, wi, th)
				remotes[id] = append(remotes[id], th)
			}
			if len(remotes[id]) == 0 {
				// No splits at all: register an empty source.
				remotes[id] = nil
			}
		}
	}
	// Execute the root fragment locally, pulling remote pages, with the
	// coordinator-side operators instrumented. The query gets its own memory
	// context — a child of the process-wide pool capped at its session/group
	// limit — and, when configured, the shared spill manager.
	rootStats := obs.NewTaskStats()
	qpool := c.res.pool.Child(queryID, memLimit)
	defer qpool.Close()
	ctx := &execution.Context{
		Catalogs: c.Catalogs,
		Stats:    rootStats,
		Memory:   qpool,
		RemoteSources: func(fragmentID int, cols []planner.Column) (execution.Operator, error) {
			return &remoteSourceOperator{c: c, qs: qs, tasks: remotes[fragmentID]}, nil
		},
	}
	if props.SpillEnabled {
		ctx.Spill = c.res.spill
	}
	op, err := execution.Build(fp.Root.Root, ctx)
	if err != nil {
		return nil, "", err
	}
	pages, err := execution.Drain(op)
	if err != nil {
		return nil, "", err
	}

	// Aggregate per-stage operator statistics: fragment 0 is the
	// coordinator's root; each source fragment merges across its tasks.
	stages := []StageInfo{{FragmentID: 0, Tasks: 1, Operators: rootStats.Snapshot()}}
	for id := 1; id < 1+len(fp.Sources); id++ {
		frag, ok := fp.Sources[id]
		if !ok {
			continue
		}
		stage := StageInfo{FragmentID: id, TableKey: frag.TableKey, Tasks: len(remotes[id])}
		var taskSnaps [][]obs.OperatorStatsSnapshot
		for _, th := range remotes[id] {
			if th.wait() != nil {
				continue // a fragment the root never read, whose start failed
			}
			taskSnaps = append(taskSnaps, c.taskStats(th))
			stage.Workers = append(stage.Workers, th.worker.addr)
		}
		stage.Operators = obs.MergeSnapshots(taskSnaps...)
		stages = append(stages, stage)
	}

	res := &QueryResult{}
	for _, col := range fp.Root.Root.Outputs() {
		res.Columns = append(res.Columns, col.Name)
		res.Types = append(res.Types, col.Type.String())
	}
	var rows int64
	for _, p := range pages {
		// Worker pages arrive with their dictionary and run-length columns
		// intact; what a client is sent is flat, as it always was.
		data, err := block.EncodePage(block.MaterializePage(p))
		if err != nil {
			return nil, "", err
		}
		rows += int64(p.Count())
		res.Pages = append(res.Pages, data)
	}

	now := c.cfg.Clock.Now()
	peak, spilled := qpool.Peak(), qpool.Spilled()
	c.queries.update(queryID, func(qi *QueryInfo) {
		qi.State = QueryFinished
		qi.Finished = now
		qi.Rows = rows
		qi.Stages = stages
		qi.fragments = fp
		qi.PeakMemoryBytes = peak
		qi.SpilledBytes = spilled
	})

	if keyed {
		c.memoise(st, entry)
	}
	if resultCacheKey != "" {
		size := int64(0)
		for _, data := range res.Pages {
			size += int64(len(data))
		}
		c.resultCache.PutSized(resultCacheKey, cachedResult{res: res, rows: rows}, size)
	}

	text := ""
	if analyze {
		snap := c.obs.Snapshot()
		text = formatAnalyzedFragments(fp, stages) + snap.CacheSection() + snap.ReaderSection() + execution.MemoryFooter(qpool)
	}
	failed = false
	return res, text, nil
}

// formatAnalyzedFragments renders the distributed EXPLAIN ANALYZE: every
// fragment's tree annotated with the stats aggregated in stages.
func formatAnalyzedFragments(fp *planner.FragmentedPlan, stages []StageInfo) string {
	byFrag := map[int]StageInfo{}
	for _, s := range stages {
		byFrag[s.FragmentID] = s
	}
	out := "Fragment 0 (coordinator):\n" + execution.FormatAnnotated(fp.Root.Root, byFrag[0].Operators)
	for id := 1; id < 1+len(fp.Sources); id++ {
		frag, ok := fp.Sources[id]
		if !ok {
			continue
		}
		stage := byFrag[id]
		out += fmt.Sprintf("Fragment %d (source, table %s, %d tasks):\n%s",
			id, frag.TableKey, stage.Tasks, execution.FormatAnnotated(frag.Root, stage.Operators))
	}
	return out
}

// ---------------------------------------------------------------------------
// Task client.

type taskHandle struct {
	worker *workerClient
	taskID string
	// req is kept so a dead worker's task can be rescheduled onto a
	// survivor: the same fragment over the same splits.
	req TaskRequest
	// started, when not nil, is closed once a start running beside the
	// query has settled (Coordinator.start): worker and first are set then,
	// or startErr.
	started  chan struct{}
	startErr error
	// first is the answer to the task's POST — its output from page 0, or
	// why that answer could not be read — until the drain takes it.
	first *firstAnswer

	mu       sync.Mutex
	stats    []obs.OperatorStatsSnapshot // from the response that reported done, if seen
	done     bool                        // the drain read a Done answer
	abortErr error
}

// firstAnswer is the answer a task start came back with.
type firstAnswer struct {
	res taskResults
	err error
}

// start runs th's start beside the query, on workers[prefer] or the next
// worker that takes it, and closes th.started.
func (c *Coordinator) start(qs *queryState, workers []*workerClient, prefer int, th *taskHandle) {
	defer close(th.started)
	started, err := c.startTaskAnywhere(qs, workers, prefer, th.req)
	if err != nil {
		th.startErr = err
		return
	}
	th.worker, th.first = started.worker, started.first
	c.trackTask(th)
}

// wait waits for the task's start to settle and returns its error.
func (t *taskHandle) wait() error {
	if t.started != nil {
		<-t.started
	}
	return t.startErr
}

// takeFirst takes the start's answer, as the first attempt at page 0.
func (t *taskHandle) takeFirst(page int) *firstAnswer {
	a := t.first
	if page != 0 || a == nil {
		return nil
	}
	t.first = nil
	return a
}

// read notes a checked answer the drain consumed: a Done one (the task
// ended, failed or not) carries the task's stats, and from then on the
// worker may release the task on acknowledgement. A task whose Done answer
// arrived but was never consumed was abandoned, and is deleted.
func (t *taskHandle) read(res taskResults) {
	if !res.Done {
		return
	}
	t.mu.Lock()
	t.done = true
	if res.Stats != nil {
		t.stats = res.Stats
	}
	t.mu.Unlock()
}

// answered reports whether a Done answer of the task was read.
func (t *taskHandle) answered() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// abort marks the handle failed (worker removed); readers see the error on
// their next fetch instead of timing out against a vanished node.
func (t *taskHandle) abort(err error) {
	t.mu.Lock()
	if t.abortErr == nil {
		t.abortErr = err
	}
	t.mu.Unlock()
}

func (t *taskHandle) aborted() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.abortErr
}

// taskStats returns a task's operator statistics. Tasks drained to
// completion shipped them with their last pages; tasks abandoned early (LIMIT
// satisfied upstream) are asked for a live snapshot.
func (c *Coordinator) taskStats(th *taskHandle) []obs.OperatorStatsSnapshot {
	th.mu.Lock()
	s := th.stats
	th.mu.Unlock()
	if s != nil {
		return s
	}
	c.rpcStats.Inc()
	return th.liveStats()
}

// liveStats asks the worker for the task's operator statistics so far.
func (t *taskHandle) liveStats() []obs.OperatorStatsSnapshot {
	resp, err := t.worker.http.Get("http://" + t.worker.addr + "/v1/task/" + t.taskID + "/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	body, err := readAll(io.LimitReader(resp.Body, maxStatsBytes+1), min(resp.ContentLength, maxStatsBytes))
	if err != nil || len(body) > maxStatsBytes {
		return nil
	}
	r := frame.NewReader(body)
	if s := obs.ReadSnapshots(r); r.Close() == nil {
		return s
	}
	return nil
}

// startTask posts req, with the acknowledgements queued for w, and reads
// the answer: the task's output from page 0, or nothing yet with Done unset
// (Worker.handleTask). An error means the task did not start on w — the
// worker refused it, or the request never reached it — and the caller may
// place it elsewhere. A request that reached the worker and whose answer
// was cut, damaged or lost still returns the handle, with that failure as
// its first answer: the drain reads the answer again with GET ?page=0, and a
// 404 there (the task never started after all) reschedules it.
func (w *workerClient) startTask(req TaskRequest) (*taskHandle, error) {
	doc := req
	doc.Acks = w.takeAcks()
	hreq, err := http.NewRequest(http.MethodPost, "http://"+w.addr+"/v1/task", bytes.NewReader(doc.encode()))
	if err != nil {
		w.ack(doc.Acks...)
		return nil, err
	}
	// wrote records whether the last attempt at the request went out whole.
	var wrote atomic.Bool
	hreq = hreq.WithContext(httptrace.WithClientTrace(hreq.Context(), &httptrace.ClientTrace{
		GetConn:      func(string) { wrote.Store(false) },
		WroteRequest: func(info httptrace.WroteRequestInfo) { wrote.Store(info.Err == nil) },
	}))
	hreq.Header.Set("Content-Type", "application/octet-stream")
	// Marked idempotent (the nil value sends no header) so that net/http
	// re-sends the start on a fresh connection when a kept-alive one turns
	// out closed, as it does every GET: a dead worker then shows as refused,
	// not as an EOF. Had a worker taken the first copy, the second would
	// replace it under the same ID: the same fragment over the same splits.
	hreq.Header["Idempotency-Key"] = nil
	resp, err := w.http.Do(hreq)
	if err != nil {
		w.ack(doc.Acks...) // they may not have arrived; a repeat is harmless
		if isWorkerGone(err) || !wrote.Load() {
			return nil, err
		}
		return w.handle(req, taskResults{}, fmt.Errorf("cluster: answer of task %s from %s: %w", req.TaskID, w.addr, err)), nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if state := resp.Header.Get(workerStateHeader); state != "" {
			return nil, fmt.Errorf("%w: %s is %s", errWorkerLeaving, w.addr, state)
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024)) // best-effort error detail
		return nil, fmt.Errorf("%w: %s", errTaskRefused, bytes.TrimSpace(body))
	}
	body, err := readAll(resp.Body, resp.ContentLength)
	var res taskResults
	if err == nil {
		res, err = readResults(body, 0)
	}
	if err != nil {
		err = fmt.Errorf("cluster: answer of task %s from %s: %w", req.TaskID, w.addr, err)
	}
	return w.handle(req, res, err), nil
}

// handle is the handle of a task started on w whose start was answered with
// res, or err. A Done answer's stats are the task's even if the query never
// reads its frames.
func (w *workerClient) handle(req TaskRequest, res taskResults, err error) *taskHandle {
	th := &taskHandle{worker: w, taskID: req.TaskID, req: req, first: &firstAnswer{res: res, err: err}}
	if err == nil && res.Done {
		th.stats = res.Stats
	}
	return th
}

// fetchResults fetches the task's published pages from index page on.
// Naming the page (instead of the worker keeping a cursor) makes the fetch
// idempotent, which is what allows the retry and hedging layers to fire
// duplicates safely. The response is checked and decoded here, so one damaged
// in flight is this fetch's error and is retried like any other.
func (t *taskHandle) fetchResults(page int) (taskResults, error) {
	resp, err := t.worker.http.Get("http://" + t.worker.addr + "/v1/task/" + t.taskID + "/results?page=" + strconv.Itoa(page))
	if err != nil {
		return taskResults{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return taskResults{}, fmt.Errorf("%w: task %s on %s", errTaskUnknown, t.taskID, t.worker.addr)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024)) // best-effort error detail
		return taskResults{}, fmt.Errorf("task %s on %s: status %d: %s",
			t.taskID, t.worker.addr, resp.StatusCode, bytes.TrimSpace(body))
	}
	body, err := readAll(resp.Body, resp.ContentLength)
	if err != nil {
		return taskResults{}, err
	}
	return readResults(body, page)
}

func (t *taskHandle) delete() {
	req, err := http.NewRequest(http.MethodDelete, "http://"+t.worker.addr+"/v1/task/"+t.taskID, nil)
	if err != nil {
		return // static URL; cannot happen
	}
	resp, err := t.worker.http.Do(req)
	if err == nil {
		_ = resp.Body.Close() // best-effort cleanup of a fire-and-forget DELETE
	}
}

// remoteSourceOperator streams pages from all tasks of one fragment. Each
// task is drained to completion (through the retry/reschedule/hedging
// machinery in retry.go) before any of its pages flow downstream, so a task
// that dies halfway is replaced wholesale and can never leak a partial —
// and therefore wrong — page stream into the query. What a drain holds is
// the task's checked page frames as they came; each is decoded when Next
// reaches it, and dropped as it is.
type remoteSourceOperator struct {
	c     *Coordinator
	qs    *queryState
	tasks []*taskHandle

	pos     int
	frames  [][]byte // drained page frames of tasks[pos]
	next    int      // index of the frame Next decodes next
	drained bool
}

func (o *remoteSourceOperator) Next() (*block.Page, error) {
	for o.pos < len(o.tasks) {
		if !o.drained {
			frames, err := o.c.drainTask(o.qs, o.tasks, o.pos)
			if err != nil {
				return nil, err
			}
			o.frames, o.next, o.drained = frames, 0, true
		}
		if o.next < len(o.frames) {
			f := o.frames[o.next]
			o.frames[o.next] = nil
			o.next++
			// The frame passed its checksum when it was fetched, so a frame
			// that does not decode is what the worker serves: fetching it
			// again cannot help.
			p, err := block.DecodePage(f)
			if err != nil {
				return nil, fmt.Errorf("cluster: task %s, page %d: %w", o.tasks[o.pos].taskID, o.next-1, err)
			}
			return p, nil
		}
		o.pos++
		o.frames, o.drained = nil, false
	}
	return nil, io.EOF
}

func (o *remoteSourceOperator) Close() error { return nil }

// ---------------------------------------------------------------------------
// HTTP front end (what the CLI and the gateway talk to).

// StatementRequest is the client query document.
type StatementRequest struct {
	Query      string
	Catalog    string
	Schema     string
	User       string
	Properties map[string]string
}

// Start serves the coordinator API on addr.
func (c *Coordinator) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: coordinator listen: %w", err)
	}
	c.ln = ln
	c.addr = ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/statement", c.handleStatement)
	mux.HandleFunc("/v1/announce", c.handleAnnounce)
	mux.HandleFunc("/v1/stats", c.handleStats)
	mux.HandleFunc("/v1/query", c.handleQueries)
	mux.HandleFunc("/v1/query/", c.handleQueryByID)
	mux.HandleFunc("/v1/shutdown", c.handleShutdown)
	c.http = &http.Server{Handler: mux}
	go c.http.Serve(ln)
	return nil
}

// Addr returns the coordinator address.
func (c *Coordinator) Addr() string { return c.addr }

// Close stops the server immediately (the SIGKILL path). The graceful
// counterpart is GracefulDrain.
func (c *Coordinator) Close() error {
	if c.http != nil {
		return c.http.Close()
	}
	return nil
}

// deadlineNanos encodes a query deadline for the wire: unix nanos, 0 = none.
func deadlineNanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// liveCount returns the number of in-flight queries.
func (c *Coordinator) liveCount() int {
	c.liveMu.Lock()
	defer c.liveMu.Unlock()
	return len(c.live)
}

// GracefulDrain is the coordinator's half of §IX graceful shrink, mirroring
// the worker's: latch draining (handleStatement starts refusing with the
// retryable 503 and the coordinator_draining gauge flips, so gateways route
// around this cluster), let in-flight queries finish for up to DrainGrace,
// abort any stragglers with the typed ErrCoordinatorDraining, wait for
// their handlers to unwind, then close the listener. Idempotent — a second
// call returns immediately.
func (c *Coordinator) GracefulDrain() error {
	if !c.draining.CompareAndSwap(false, true) {
		return nil
	}
	c.drains.Inc()
	grace := c.DrainGrace
	if grace <= 0 {
		grace = 5 * time.Second
	}
	deadline := c.cfg.Clock.Now().Add(grace)
	for c.liveCount() > 0 && c.cfg.Clock.Now().Before(deadline) {
		c.cfg.Clock.Sleep(5 * time.Millisecond)
	}
	// Abort the stragglers: every RPC hop checks the latch, so each query
	// fails with the typed error at its next hop instead of running on
	// against a closing server.
	c.liveMu.Lock()
	for _, qs := range c.live {
		qs.abort(ErrCoordinatorDraining)
	}
	c.liveMu.Unlock()
	// Let the aborted handlers deliver their 503s before the listener goes
	// away; they stop at the next hop, so this converges in RPC time, not
	// query time.
	settle := c.cfg.Clock.Now().Add(grace)
	for c.liveCount() > 0 && c.cfg.Clock.Now().Before(settle) {
		c.cfg.Clock.Sleep(5 * time.Millisecond)
	}
	return c.Close()
}

// handleShutdown begins the graceful drain, like the worker's /v1/shutdown.
func (c *Coordinator) handleShutdown(rw http.ResponseWriter, r *http.Request) {
	go func() { _ = c.GracefulDrain() }() // drain errors surface via the caller of Close
	rw.WriteHeader(http.StatusAccepted)
}

func (c *Coordinator) handleStatement(rw http.ResponseWriter, r *http.Request) {
	req, _, ok := ReadStatement(rw, r)
	if !ok {
		return
	}
	session := &planner.Session{Catalog: req.Catalog, Schema: req.Schema, User: req.User, Properties: req.Properties}
	res, err := c.Query(session, req.Query)
	if err != nil {
		if errors.Is(err, resource.ErrQueueFull) {
			// Admission rejected the query: tell the client (and any gateway
			// in front) to retry elsewhere or later.
			rw.Header().Set("Retry-After", "1")
			http.Error(rw, err.Error(), http.StatusTooManyRequests)
			return
		}
		if IsRetryable(err) {
			// Refused or lost for availability reasons (drain, no active
			// worker, no worker took the task), not by the statement: the
			// query is safe to replay verbatim elsewhere. X-Presto-Retryable
			// is what the gateway's transparent resubmission keys on.
			rw.Header().Set("Retry-After", "1")
			rw.Header().Set("X-Presto-Retryable", "true")
			http.Error(rw, err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	// The result's pages — fresh, or a result-cache entry's — go out as the
	// frames they already are, after the header frame.
	env := block.NewEnvelope(appendStatementHeader(res.Columns, res.Types), res.Pages)
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(env.Len()))
	if _, err := env.WriteTo(rw); err != nil {
		c.httpWriteErrs.Inc()
	}
}

// handleStats serves the coordinator's metrics registry as JSON.
func (c *Coordinator) handleStats(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	if _, err := rw.Write(c.obs.Snapshot().JSON()); err != nil {
		c.httpWriteErrs.Inc()
	}
}

// handleQueries lists retained recent queries, most recent first.
func (c *Coordinator) handleQueries(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c.QueryInfos()); err != nil {
		c.httpWriteErrs.Inc()
	}
}

// handleQueryByID serves one query's full QueryInfo (per-stage operator
// statistics included) at /v1/query/{id}.
func (c *Coordinator) handleQueryByID(rw http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/query/")
	qi, ok := c.GetQueryInfo(id)
	if !ok {
		http.Error(rw, "unknown query "+id, http.StatusNotFound)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(qi); err != nil {
		c.httpWriteErrs.Inc()
	}
}

// handleAnnounce lets workers self-register (graceful expansion: start a
// worker configured with the coordinator address and it joins the cluster).
func (c *Coordinator) handleAnnounce(rw http.ResponseWriter, r *http.Request) {
	addr := r.URL.Query().Get("addr")
	if addr == "" {
		http.Error(rw, "missing addr", http.StatusBadRequest)
		return
	}
	c.AddWorker(addr)
	rw.WriteHeader(http.StatusOK)
}

// Client executes queries against a remote coordinator.
type Client struct {
	Addr string
	HTTP *http.Client
}

// NewClient targets a coordinator with the default client configuration.
func NewClient(addr string) *Client {
	return NewClientWithConfig(addr, ClientConfig{})
}

// NewClientWithConfig targets a coordinator with explicit timeouts and
// transport (zero fields take defaults).
func NewClientWithConfig(addr string, cfg ClientConfig) *Client {
	cfg = cfg.WithDefaults()
	return &Client{Addr: addr, HTTP: cfg.statementHTTPClient()}
}

// QueryWithIdentity runs a statement carrying user/group headers, which a
// gateway (§VIII) uses to pick the target cluster; the 307 redirect replays
// the request against the chosen coordinator.
func (cl *Client) QueryWithIdentity(req StatementRequest, user, group string) (*QueryResult, error) {
	return cl.QueryWithSession(req, user, group, "")
}

// QueryWithSession additionally carries a session key (X-Presto-Session): a
// gateway with a sticky route hashes the key to a preferred cluster so a
// dashboard's repeated statements keep landing where its caches are warm.
func (cl *Client) QueryWithSession(req StatementRequest, user, group, session string) (*QueryResult, error) {
	return PostStatement(cl.HTTP, "http://"+cl.Addr+"/v1/statement", req, user, group, session)
}

// PostStatement posts one statement document with its identity headers to a
// coordinator's /v1/statement or a gateway's /v1/execute and checks the
// answer: a response cut short or damaged on the way is an error, never a
// shorter result. A nil hc means the default statement client.
func PostStatement(hc *http.Client, url string, req StatementRequest, user, group, session string) (*QueryResult, error) {
	httpReq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(req.encode()))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/octet-stream")
	httpReq.Header.Set("X-Presto-User", user)
	httpReq.Header.Set("X-Presto-Group", group)
	if session != "" {
		httpReq.Header.Set("X-Presto-Session", session)
	}
	if hc == nil {
		def := DefaultClientConfig()
		hc = def.statementHTTPClient()
	}
	resp, err := hc.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // best-effort error detail
		return nil, fmt.Errorf("query failed (status %d): %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	body, err := readAll(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading the answer from %s: %w", url, err)
	}
	hdr, frames, err := block.ReadEnvelope(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: answer from %s: %w", url, err)
	}
	columns, types, err := readStatementHeader(hdr)
	if err != nil {
		return nil, fmt.Errorf("cluster: answer from %s: header: %w", url, err)
	}
	return &QueryResult{Columns: columns, Types: types, Pages: frames}, nil
}
