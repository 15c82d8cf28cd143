// Package cluster implements the distributed runtime of §III: one
// coordinator parses, plans and schedules; workers execute tasks over splits
// and stream result pages back. It also implements §IX's graceful expansion
// (new workers announce themselves and receive work immediately) and
// graceful shrink (SHUTTING_DOWN drain with a grace period, so no queries
// fail during scale-down).
package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cache"
	"prestolite/internal/connector"
	"prestolite/internal/execution"
	"prestolite/internal/fault"
	"prestolite/internal/obs"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
)

// WorkerState is the §IX lifecycle.
type WorkerState string

const (
	StateActive       WorkerState = "ACTIVE"
	StateShuttingDown WorkerState = "SHUTTING_DOWN"
	StateShutdown     WorkerState = "SHUTDOWN"
)

// workerStateHeader carries the state of a worker that refuses a task
// because it has left ACTIVE.
const workerStateHeader = "X-Presto-Worker-State"

// TaskRequest asks a worker to run one fragment over the given splits.
type TaskRequest struct {
	TaskID   string
	Fragment planner.Node
	TableKey string
	Splits   []connector.Split
	// Drivers requests a specific intra-task parallelism (the session's
	// task_concurrency); 0 defers to the worker's own configuration.
	Drivers int
	// MaxMemory is the query's memory cap in bytes (query_max_memory, else
	// its resource group's PerQueryMemory; 0 = uncapped): the limit of the
	// task's child of the worker pool.
	MaxMemory int64
	// Deadline is the query's deadline in unix nanoseconds (0 = none). The
	// worker refuses tasks that arrive already expired — the last hop of the
	// coordinator's per-RPC deadline enforcement.
	Deadline int64
	// SnapshotVersion is the scanned table's snapshot version as planning
	// read it (planner.TableScan.Version): -1 when the catalog cannot report
	// one or the table had none, as a hive table with an open partition. It is part of the worker's
	// fragment-result cache key (cacheKey), so cached fragment output over
	// data that has since changed is unreachable rather than stale; a task at
	// -1 is not cached.
	SnapshotVersion int64
	// Acks names earlier tasks on this worker whose Done answer the
	// coordinator has read: the worker releases them (their frames and the
	// pool bytes charging them). It rides on the next task document to the
	// worker, after the task's own fields and outside the cache key, and
	// holds at most maxTaskAcks ids.
	Acks []string

	// fragment is the encoded part of the request every task of its fragment
	// shares (encodeFragment), when the coordinator encoded it once for all
	// of them; nil otherwise.
	fragment []byte
}

// fragmentCacheBytes bounds each worker's fragment result cache, sized by the
// encoded frames it holds: the same 64 MiB the chunk cache defaults to.
const fragmentCacheBytes = 64 << 20

// Worker executes tasks. It owns a connector registry (each worker process
// mounts the same catalogs).
type Worker struct {
	Catalogs    *connector.Registry
	GracePeriod time.Duration // shutdown.grace-period, default 2 minutes in prod
	// EnableFragmentResultCache turns on the §VII fragment result cache:
	// identical (fragment, splits) tasks are served from memory instead of
	// re-reading files. Safe for sealed data; paired with the coordinator's
	// affinity scheduling so repeats land on the same worker.
	EnableFragmentResultCache bool
	// FragmentCacheHits counts tasks served from the cache (the fragment
	// cache's own hit counter, also published as fragment_cache.hits).
	FragmentCacheHits *atomic.Int64
	// Obs is the worker's metrics registry, served as JSON at /v1/stats:
	// task counters, a task wall-time histogram, and the §VII cache metrics
	// of every connector that exposes them.
	Obs *obs.Registry
	// Clock drives the graceful-shutdown grace periods, the results waits
	// and the release of unacknowledged tasks; defaults to real time.
	// Fault-injection tests substitute a manual clock.
	Clock fault.Clock
	// MemoryLimit caps the worker's process-wide memory pool (§XII.C), which
	// Start creates; every task runs in, and is accounted by, a child of it.
	// 0 = unlimited.
	MemoryLimit int64
	// SpillDir, when set, lets task operators spill to disk when a memory
	// reservation is refused. Runs are removed as tasks close; anything left
	// (crash-path leftovers) is swept on worker shutdown.
	SpillDir string
	// SpillBudget caps bytes on disk across live spill runs. 0 = unlimited.
	SpillBudget int64
	// TaskConcurrency is the default number of driver pipelines per task
	// (the -task-concurrency flag); 0 means one per CPU core. A TaskRequest
	// carrying an explicit Drivers overrides it.
	TaskConcurrency int

	pool  *resource.Pool
	spill *resource.SpillManager

	http *http.Server
	ln   net.Listener
	addr string

	mu     sync.Mutex
	state  WorkerState
	tasks  map[string]*workerTask
	closed chan struct{}

	fragCache *cache.LRU[string, [][]byte]

	tasksStarted   *obs.Counter
	tasksCompleted *obs.Counter
	tasksFailed    *obs.Counter
	httpWriteErrs  *obs.Counter
	taskWall       *obs.Histogram
}

type workerTask struct {
	stats *obs.TaskStats // live; snapshot at any time
	// settled is closed once the task is done or aborted: what a results
	// request for an unfinished task waits on.
	settled    chan struct{}
	settleOnce sync.Once
	// answered is closed once the task has served its Done answer or has
	// been aborted: what a graceful drain waits on.
	answered   chan struct{}
	answerOnce sync.Once

	mu sync.Mutex
	// frames is the task's whole output, one encoded page each, published
	// together with done and immutable from then on: a retried or hedged
	// fetch is served the same bytes, and nothing is encoded twice.
	frames    [][]byte
	done      bool
	err       error
	cancel    context.CancelFunc
	cancelled bool
	// pool is the child of the worker pool charged with the frames' bytes
	// from the moment they are published until the task is released.
	pool *resource.Pool
	// stopRelease stops the release timer the first Done answer started.
	stopRelease func() bool
}

func newWorkerTask() *workerTask {
	return &workerTask{stats: obs.NewTaskStats(), settled: make(chan struct{}), answered: make(chan struct{})}
}

// releaseAfter is how long a worker keeps a finished task after serving its
// Done answer when no acknowledgement comes (the coordinator acknowledges it
// on its next task document to the worker). Until then the frames stay
// charged to the worker pool, so a coordinator that went away costs a
// bounded, accounted amount of memory. The bound covers the coordinator's
// retry window at the defaults, in which a lost or damaged answer is read
// again with GET ?page=0: MaxAttempts (3) fetches of up to WorkerTimeout
// (30 s) each, with backoffs of at most MaxBackoff (1 s) between them, is
// 92 s. A re-read after the release finds no task and reschedules it.
const releaseAfter = 2 * time.Minute

func (t *workerTask) settle() { t.settleOnce.Do(func() { close(t.settled) }) }

// setCancel publishes the task's cancel function once execution starts; an
// abort that raced in beforehand (DELETE straight after the POST) fires
// immediately instead of being lost.
func (t *workerTask) setCancel(fn context.CancelFunc) {
	t.mu.Lock()
	t.cancel = fn
	aborted := t.cancelled
	t.mu.Unlock()
	if aborted {
		fn()
	}
}

// abort cancels the task's execution context, stopping all of its drivers
// promptly (scans and exchange producers check it between pages), and ends
// the wait of any results request for it and of a graceful drain.
func (t *workerTask) abort() {
	t.mu.Lock()
	t.cancelled = true
	fn := t.cancel
	t.mu.Unlock()
	t.settle()
	t.answerOnce.Do(func() { close(t.answered) })
	if fn != nil {
		fn()
	}
}

// free aborts the task and gives back what it holds: the release timer and
// the pool bytes charging its frames. A task still running frees its pool
// itself as it ends (finish, runTask).
func (t *workerTask) free() {
	t.abort()
	t.mu.Lock()
	pool, stop := t.pool, t.stopRelease
	t.pool, t.stopRelease = nil, nil
	t.mu.Unlock()
	if stop != nil {
		stop()
	}
	if pool != nil {
		pool.Close()
	}
}

// release forgets task id and frees it, unless the id names another task
// by now.
func (w *Worker) release(id string, t *workerTask) {
	w.mu.Lock()
	if w.tasks[id] == t {
		delete(w.tasks, id)
	}
	w.mu.Unlock()
	t.free()
}

// releaseAcked releases the acknowledged tasks; an id that names no task
// (released already, or unknown) is ignored.
func (w *Worker) releaseAcked(ids []string) {
	for _, id := range ids {
		w.mu.Lock()
		t := w.tasks[id]
		w.mu.Unlock()
		if t != nil {
			w.release(id, t)
		}
	}
}

// releaseAll releases every task.
func (w *Worker) releaseAll() {
	w.mu.Lock()
	tasks := w.tasks
	w.tasks = map[string]*workerTask{}
	w.mu.Unlock()
	for _, t := range tasks {
		t.free()
	}
}

// answer notes that t has served its Done answer: the drain stops waiting
// for it, and it is released after releaseAfter unless acknowledged first.
func (w *Worker) answer(id string, t *workerTask) {
	t.answerOnce.Do(func() {
		stop := w.Clock.AfterFunc(releaseAfter, func() { w.release(id, t) })
		t.mu.Lock()
		t.stopRelease = stop
		t.mu.Unlock()
		close(t.answered)
	})
}

// NewWorker creates a worker with the given catalogs.
func NewWorker(catalogs *connector.Registry) *Worker {
	w := &Worker{
		Catalogs:    catalogs,
		GracePeriod: 2 * time.Minute,
		Clock:       fault.RealClock{},
		state:       StateActive,
		tasks:       map[string]*workerTask{},
		closed:      make(chan struct{}),
		fragCache:   cache.NewSizedLRU[string, [][]byte](256, 10*time.Minute, cache.NewBudget(fragmentCacheBytes)),
		Obs:         obs.NewRegistry(),
	}
	w.FragmentCacheHits = &w.fragCache.Metrics.Hits
	w.fragCache.Metrics.RegisterObs(w.Obs, "fragment_cache")
	w.tasksStarted = w.Obs.Counter("tasks_started")
	w.tasksCompleted = w.Obs.Counter("tasks_completed")
	w.tasksFailed = w.Obs.Counter("tasks_failed")
	w.httpWriteErrs = w.Obs.Counter("http_write_errors")
	w.taskWall = w.Obs.Histogram("task_wall")
	w.Obs.GaugeFunc("active_tasks", func() float64 { return float64(w.activeTaskCount()) })
	registerCatalogMetrics(catalogs, w.Obs)
	return w
}

// registerCatalogMetrics wires every connector exposing metrics (e.g. hive's
// file-list and footer caches) into reg.
func registerCatalogMetrics(catalogs *connector.Registry, reg *obs.Registry) {
	for _, name := range catalogs.Catalogs() {
		conn, err := catalogs.Get(name)
		if err != nil {
			continue
		}
		if src, ok := conn.(obs.MetricsSource); ok {
			src.RegisterObsMetrics(reg)
		}
	}
}

func (w *Worker) activeTaskCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, t := range w.tasks {
		t.mu.Lock()
		if !t.done {
			n++
		}
		t.mu.Unlock()
	}
	return n
}

// Start listens on addr (use "127.0.0.1:0" for tests).
func (w *Worker) Start(addr string) error {
	w.pool = resource.NewPool("worker", w.MemoryLimit)
	w.pool.SetClock(w.Clock)
	w.Obs.GaugeFunc("pool_reserved_bytes", func() float64 { return float64(w.pool.Reserved()) })
	if w.SpillDir != "" {
		mgr, err := resource.NewSpillManager(w.SpillDir, w.SpillBudget)
		if err != nil {
			return err
		}
		mgr.SetCounters(w.Obs.Counter("spills"), w.Obs.Counter("spilled_bytes"))
		w.spill = mgr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: worker listen: %w", err)
	}
	w.ln = ln
	w.addr = ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/task", w.handleTask)
	mux.HandleFunc("/v1/task/", w.handleTaskResults)
	mux.HandleFunc("/v1/stats", w.handleStats)
	mux.HandleFunc("/v1/shutdown", w.handleShutdown)
	w.http = &http.Server{Handler: mux}
	go w.http.Serve(ln)
	return nil
}

// Addr returns the worker address.
func (w *Worker) Addr() string { return w.addr }

// State returns the current lifecycle state.
func (w *Worker) State() WorkerState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

// Close stops the server immediately (ungraceful). In-flight tasks are
// cancelled (their drivers stop at the next page boundary), finished ones
// released, and their spill runs swept, so a killed worker leaves neither
// goroutines scanning nor temp files behind.
func (w *Worker) Close() error {
	w.releaseAll()
	if w.spill != nil {
		w.spill.RemoveAll()
	}
	if w.http != nil {
		return w.http.Close()
	}
	return nil
}

// handleStats serves the worker's metrics registry as JSON.
func (w *Worker) handleStats(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	if _, err := rw.Write(w.Obs.Snapshot().JSON()); err != nil {
		w.httpWriteErrs.Inc()
	}
}

// handleShutdown begins the §IX graceful-shrink sequence.
func (w *Worker) handleShutdown(rw http.ResponseWriter, r *http.Request) {
	go w.GracefulShutdown()
	rw.WriteHeader(http.StatusAccepted)
}

// GracefulShutdown follows §IX exactly: enter SHUTTING_DOWN, sleep for the
// grace period (so the coordinator notices and stops sending tasks), block
// until every task has served its Done answer or has been aborted, sleep
// the grace period again (so the coordinator sees all tasks complete), then
// release what is left and shut down. From the first step on, handleTask
// refuses new tasks and names the state: that refusal is how the
// coordinator notices. The drain waits on each task's answer, not on its
// release: the acknowledgements ride on task documents, which a leaving
// worker refuses.
func (w *Worker) GracefulShutdown() {
	w.mu.Lock()
	if w.state != StateActive {
		w.mu.Unlock()
		return
	}
	w.state = StateShuttingDown
	w.mu.Unlock()

	// Grace period 1: a coordinator that asks for a task is refused and
	// stops assigning; tasks accepted before the state changed complete.
	w.Clock.Sleep(w.GracePeriod)
	// Drain: a task is through when its Done answer has gone out (or it was
	// aborted) — waiting for execution alone would race result fetches
	// against the listener closing below. No task is added from here on:
	// handleTask registers one only while the worker is ACTIVE.
	w.mu.Lock()
	tasks := make([]*workerTask, 0, len(w.tasks))
	for _, t := range w.tasks {
		tasks = append(tasks, t)
	}
	w.mu.Unlock()
	for _, t := range tasks {
		<-t.answered
	}
	// Grace period 2: an answer lost on its way is read again meanwhile.
	w.Clock.Sleep(w.GracePeriod)

	w.mu.Lock()
	w.state = StateShutdown
	w.mu.Unlock()
	w.releaseAll()
	close(w.closed)
	if w.spill != nil {
		w.spill.RemoveAll()
	}
	_ = w.http.Close() // shutting down: the listener is going away regardless
}

// WaitShutdown blocks until the worker exits.
func (w *Worker) WaitShutdown() { <-w.closed }

// handleTask serves POST /v1/task: it releases the tasks the document
// acknowledges, starts the task, and answers on the same request exactly
// what GET ?page=0 would (serveResults): the task's output from its first
// frame once it settles, or nothing with Done unset at resultsWait, after
// which the coordinator goes on with GET ?page=N. A task that ends within
// resultsWait thus costs its coordinator this one request.
func (w *Worker) handleTask(rw http.ResponseWriter, r *http.Request) {
	body, ok := readRequest(rw, r, maxTaskBytes)
	if !ok {
		return
	}
	req, key, err := decodeTask(body, w.Catalogs)
	if err != nil {
		http.Error(rw, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	w.releaseAcked(req.Acks)
	// A worker that has left ACTIVE takes no new task (§IX). The refusal
	// names the state, and the coordinator forgets the worker on reading
	// it: this answer is how the coordinator becomes aware of the shutdown.
	// Tasks already accepted run to completion. The state is checked where
	// the task is registered, so a graceful drain sees every task accepted.
	task := newWorkerTask()
	w.mu.Lock()
	state := w.state
	var replaced *workerTask
	if state == StateActive {
		replaced = w.tasks[req.TaskID]
		w.tasks[req.TaskID] = task
	}
	w.mu.Unlock()
	if state != StateActive {
		rw.Header().Set(workerStateHeader, string(state))
		http.Error(rw, "worker is "+string(state), http.StatusServiceUnavailable)
		return
	}
	if replaced != nil {
		// A re-sent start (the coordinator's client repeats one whose
		// connection broke): the same fragment over the same splits.
		replaced.free()
	}
	if req.Deadline > 0 && w.Clock.Now().UnixNano() >= req.Deadline {
		// The query blew its deadline in flight; starting the task would
		// only burn cycles the coordinator will never collect.
		w.release(req.TaskID, task)
		http.Error(rw, "task "+req.TaskID+" arrived past its query deadline", http.StatusServiceUnavailable)
		return
	}
	go w.runTask(&req, key, task)
	w.serveResults(rw, r, req.TaskID, task, 0)
}

// runTask runs a task to its end. key is the key part of the task document
// the request was read from (decodeTask), the task's fragment-cache key; nil
// for a request built in memory, whose key is encoded here if it is needed.
func (w *Worker) runTask(req *TaskRequest, key []byte, task *workerTask) {
	w.tasksStarted.Inc()
	// Per-task memory context: tasks share the worker pool, and a failed
	// task cannot leak reservations past its Close.
	tpool := w.pool.Child(req.TaskID, req.MaxMemory)
	frames, size, err := w.execTask(req, key, task, tpool)
	tpool.Close()
	// The output frames are charged to a child of their own, under the
	// worker's limit but not the query's (query_max_memory caps what its
	// operators hold), until the task is released.
	var held *resource.Pool
	if err == nil {
		held = w.pool.Child(req.TaskID, 0)
		if err = held.Reserve(size); err != nil {
			held.Close()
		}
	}
	if err != nil {
		w.tasksFailed.Inc()
		task.fail(err)
		return
	}
	w.tasksCompleted.Inc()
	task.finish(frames, held)
}

// execTask produces a task's output frames: from the fragment cache, or by
// running the fragment under tpool.
func (w *Worker) execTask(req *TaskRequest, key []byte, task *workerTask, tpool *resource.Pool) ([][]byte, int64, error) {
	start := w.Clock.Now()
	var cacheKey string
	if w.EnableFragmentResultCache && req.SnapshotVersion >= 0 {
		if key == nil {
			key = req.cacheKey()
		}
		cacheKey = string(key)
		if frames, ok := w.fragCache.Get(cacheKey); ok {
			size := int64(0)
			for _, f := range frames {
				size += int64(len(f))
			}
			return frames, size, nil
		}
	}
	// The task context is the cancellation root for every driver this task
	// runs: a DELETE from the coordinator or a worker Close aborts them all.
	// (It is created here, not in the HTTP handler — the task deliberately
	// outlives its submitting request.)
	tctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	task.setCancel(cancel)
	ctx := &execution.Context{
		Catalogs: w.Catalogs,
		Splits:   map[string][]connector.Split{req.TableKey: req.Splits},
		Stats:    task.stats,
		Ctx:      tctx,
		Drivers:  w.taskDrivers(req),
		Memory:   tpool,
		Spill:    w.spill,
	}
	op, err := execution.Build(req.Fragment, ctx)
	if err != nil {
		return nil, 0, err
	}
	frames, size, err := drainFrames(op)
	w.taskWall.Observe(w.Clock.Now().Sub(start))
	if err != nil {
		return nil, 0, err
	}
	if cacheKey != "" {
		w.fragCache.PutSized(cacheKey, frames, size)
	}
	return frames, size, nil
}

// drainFrames runs a task's operator tree to completion and encodes each
// output page, once, into the frame every fetch of it will be served. Lazy
// columns load here — in the task's goroutine, under its memory pool and
// inside its wall time — so a column that cannot be read fails the task.
func drainFrames(op execution.Operator) (frames [][]byte, size int64, err error) {
	pages, err := execution.Drain(op)
	if err != nil {
		return nil, 0, err
	}
	frames = make([][]byte, len(pages))
	for i, p := range pages {
		if frames[i], err = block.EncodePage(p); err != nil {
			return nil, 0, err
		}
		size += int64(len(frames[i]))
		pages[i] = nil // the frame replaces the page: do not hold a task's output twice
	}
	return frames, size, nil
}

// taskDrivers resolves a task's intra-task parallelism: the request's
// explicit session setting wins, then the worker's -task-concurrency
// default, then one driver per core.
func (w *Worker) taskDrivers(req *TaskRequest) int {
	if req.Drivers > 0 {
		return req.Drivers
	}
	if w.TaskConcurrency > 0 {
		return w.TaskConcurrency
	}
	return runtime.NumCPU()
}

// finish publishes the task's output, charged to pool (nil: charged
// nowhere). The pool is the task's to close from then on: at its release,
// or at once when the task was aborted meanwhile.
func (t *workerTask) finish(frames [][]byte, pool *resource.Pool) {
	t.mu.Lock()
	t.frames = frames
	t.done = true
	aborted := t.cancelled
	if !aborted {
		t.pool = pool
	}
	t.mu.Unlock()
	if aborted && pool != nil {
		pool.Close()
	}
	t.settle()
}

func (t *workerTask) fail(err error) {
	t.mu.Lock()
	t.err = err
	t.done = true
	t.mu.Unlock()
	t.settle()
}

// handleTaskResults serves GET /v1/task/{id}/results, GET
// /v1/task/{id}/stats and DELETE /v1/task/{id}.
func (w *Worker) handleTaskResults(rw http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/v1/task/"), "/")
	taskID := parts[0]
	w.mu.Lock()
	task := w.tasks[taskID]
	w.mu.Unlock()
	if task == nil {
		http.Error(rw, "no such task", http.StatusNotFound)
		return
	}
	if r.Method == http.MethodDelete {
		// A deleted task was abandoned before its Done answer was read (under
		// LIMIT, or on a failure or an abort) and may still be executing:
		// cancel it so its drivers stop scanning.
		w.release(taskID, task)
		rw.WriteHeader(http.StatusOK)
		return
	}
	if len(parts) > 1 && parts[1] == "stats" {
		// Live per-operator snapshot (used by the coordinator for tasks it
		// did not drain to completion, e.g. under LIMIT).
		body := obs.AppendSnapshots(nil, task.stats.Snapshot())
		rw.Header().Set("Content-Length", strconv.Itoa(len(body)))
		if _, err := rw.Write(body); err != nil {
			w.httpWriteErrs.Inc()
		}
		return
	}
	// Idempotent paged protocol: GET ...?page=N serves the published frames
	// from index N on (results.go), so retried and hedged duplicates of a
	// fetch are safe: a duplicate gets the same immutable frames, or a longer
	// prefix of them. The worker keeps no read cursor; a request that names
	// no page is malformed.
	idx, err := strconv.Atoi(r.URL.Query().Get("page"))
	if err != nil || idx < 0 {
		http.Error(rw, "bad page index", http.StatusBadRequest)
		return
	}
	w.serveResults(rw, r, taskID, task, idx)
}

// serveResults answers a request for task's frames from index idx on: the
// task POST (idx 0) and GET ?page=N alike.
func (w *Worker) serveResults(rw http.ResponseWriter, r *http.Request, taskID string, task *workerTask, idx int) {
	// Frames are published only when the task is done, so a request for an
	// unfinished task waits for that, at most resultsWait, instead of
	// answering "nothing yet" for the coordinator to ask again.
	select {
	case <-task.settled:
	case <-w.Clock.After(resultsWait):
	case <-r.Context().Done():
	}
	task.mu.Lock()
	frames, done, taskErr := task.frames, task.done, task.err
	task.mu.Unlock()
	// Built and written with the lock released: the HTTP write can block on
	// a slow client and must not stall the task's goroutine. The length is
	// announced so the reader can take the body in one exact-size read; the
	// published frames are written as they are, after the header frame.
	env, answered := resultsEnvelope(frames, idx, done, taskErr, task.stats)
	if answered {
		w.answer(taskID, task)
	}
	rw.Header().Set("Content-Length", strconv.Itoa(env.Len()))
	if _, err := env.WriteTo(rw); err != nil {
		w.httpWriteErrs.Inc()
	}
}
