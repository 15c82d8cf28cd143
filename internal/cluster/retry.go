package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Typed availability errors. A query that cannot make progress fails with
// one of these within its retry budget — never a hang, and never a silent
// wrong answer. errors.Is works through all the wrapping the retry layers
// add.
var (
	// ErrNoActiveWorkers: the coordinator has no worker to place a task on:
	// none registered, or every one forgotten as dead or leaving. (Workers
	// registered but unreachable are ErrSchedulingFailed.)
	ErrNoActiveWorkers = errors.New("cluster: no active workers")
	// ErrSchedulingFailed: every active worker refused or failed the task
	// start across all retry rounds.
	ErrSchedulingFailed = errors.New("cluster: could not schedule task on any active worker")
	// ErrRetryBudgetExhausted: the query burned its whole task-reschedule
	// budget and still could not finish.
	ErrRetryBudgetExhausted = errors.New("cluster: task retry budget exhausted")
	// ErrCoordinatorDraining: the coordinator is in its graceful-shutdown
	// drain and no longer admits queries. Retryable on another cluster — the
	// gateway resubmits idempotent statements transparently.
	ErrCoordinatorDraining = errors.New("cluster: coordinator is draining")
	// ErrWorkerGone: a worker's process died abruptly (connection refused or
	// reset, not a timeout). Surfaced by the first failed fetch so split
	// rescheduling engages immediately instead of after retry exhaustion.
	ErrWorkerGone = errors.New("cluster: worker is gone")
	// ErrDeadlineExceeded: the query overran its deadline. Terminal — it is
	// never rescheduled, and every RPC hop checks it.
	ErrDeadlineExceeded = errors.New("cluster: query deadline exceeded")

	// errTaskUnknown: a worker answered a results fetch with 404 — the task
	// never started there (its start was lost on the way), or the worker
	// released it or restarted. Asking again cannot help; the task is
	// rescheduled.
	errTaskUnknown = errors.New("cluster: worker does not know the task")
)

// IsRetryable reports whether a failed query may be resubmitted elsewhere
// without risking duplicate effects: the coordinator refused or lost the
// query for availability reasons rather than rejecting its content. The HTTP
// front end answers these 503 + X-Presto-Retryable, which the gateway's
// transparent-resubmission path keys on.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrCoordinatorDraining) ||
		errors.Is(err, ErrNoActiveWorkers) ||
		errors.Is(err, ErrSchedulingFailed)
}

// isWorkerGone classifies transport errors that mean the peer process is
// dead (refused: nothing listens; reset: the listener vanished mid-stream)
// rather than slow or lossy. Injected faults and timeouts deliberately do
// not match — those keep the per-RPC retry loop, death skips it.
func isWorkerGone(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET)
}

// isTerminal reports errors that must fail the query as-is: rescheduling the
// task cannot help (the deadline stays blown, the drain stays in progress).
func isTerminal(err error) bool {
	return errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrCoordinatorDraining)
}

// queryState carries the per-query fault-tolerance budget shared by all of
// the query's remote-source operators, plus the query's deadline and its
// abort latch (set by the coordinator drain).
type queryState struct {
	budget      atomic.Int64 // remaining task reschedules
	reschedules atomic.Int64 // used for unique replacement task IDs
	deadline    time.Time    // zero = no deadline

	mu       sync.Mutex
	abortErr error
}

func newQueryState(cfg *ClientConfig) *queryState {
	qs := &queryState{}
	qs.budget.Store(int64(cfg.RetryBudget))
	return qs
}

// abort latches a terminal error onto the query; every RPC hop observes it
// on its next check. First abort wins.
func (qs *queryState) abort(err error) {
	qs.mu.Lock()
	if qs.abortErr == nil {
		qs.abortErr = err
	}
	qs.mu.Unlock()
}

func (qs *queryState) aborted() error {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return qs.abortErr
}

// checkQuery is the per-hop liveness gate: every RPC loop (task start,
// result fetch, worker wait) calls it so an aborted or deadline-blown query
// stops at the next hop instead of grinding through retries. nil qs (direct
// task-client use in tests) always passes.
func (c *Coordinator) checkQuery(qs *queryState) error {
	if qs == nil {
		return nil
	}
	if err := qs.aborted(); err != nil {
		return err
	}
	if !qs.deadline.IsZero() && !c.cfg.Clock.Now().Before(qs.deadline) {
		return fmt.Errorf("%w (deadline %s)", ErrDeadlineExceeded, qs.deadline.Format(time.RFC3339Nano))
	}
	return nil
}

// drainTask pulls every result page frame of tasks[i], rescheduling the task onto
// a surviving worker (and re-draining from page zero) whenever the current
// attempt fails. The all-or-nothing drain is what keeps results row-exact
// under worker death: no page reaches downstream operators until one task
// attempt has produced its complete, consistent page stream.
func (c *Coordinator) drainTask(qs *queryState, tasks []*taskHandle, i int) ([][]byte, error) {
	if err := tasks[i].wait(); err != nil {
		return nil, err // startTaskAnywhere tried every worker already
	}
	for {
		th := tasks[i]
		frames, err := c.drainOnce(qs, th)
		if err == nil {
			return frames, nil
		}
		if isTerminal(err) {
			return nil, err
		}
		replacement, rerr := c.rescheduleTask(qs, th, err)
		if rerr != nil {
			return nil, rerr
		}
		c.trackTask(replacement)
		c.releaseTask(th, false) // an acknowledgement if it answered Done (failed), else a DELETE
		tasks[i] = replacement
	}
}

// drainOnce fetches the complete page stream of one task attempt, as checked
// page frames, starting from the answer its start came back with. A fetch of
// an unfinished task waits on the worker, up to resultsWait, so the loop
// asks again at once when one comes back empty.
func (c *Coordinator) drainOnce(qs *queryState, th *taskHandle) ([][]byte, error) {
	var frames [][]byte
	for {
		res, err := c.fetchResults(qs, th, len(frames))
		if err != nil {
			return nil, err
		}
		th.read(res)
		if res.Err != "" {
			return nil, fmt.Errorf("cluster: task %s failed on %s: %s", th.taskID, th.worker.addr, res.Err)
		}
		frames = append(frames, res.frames...)
		if res.Done {
			return frames, nil
		}
	}
}

// fetchResults fetches a task's pages from index page on with per-RPC
// retries (exponential backoff + jitter) and hedging. For page 0 the first
// attempt is the answer the task's start came back with; a damaged, cut or
// lost one is read again with GET ?page=0 like any failed fetch. Fetches are
// idempotent — the request names the page index, the worker keeps no cursor
// — so retried and hedged copies of the same fetch are safe. A
// connection-refused/reset failure short-circuits the retry loop as
// ErrWorkerGone: the process is dead, and rescheduling should engage on the
// first failed fetch, not after MaxAttempts rounds of backoff against a
// corpse. So does a 404 (errTaskUnknown): the worker has no such task.
func (c *Coordinator) fetchResults(qs *queryState, th *taskHandle, page int) (taskResults, error) {
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if err := c.checkQuery(qs); err != nil {
			return taskResults{}, err
		}
		if err := th.aborted(); err != nil {
			return taskResults{}, err
		}
		if attempt > 1 {
			c.rpcRetries.Inc()
			c.cfg.Clock.Sleep(c.cfg.backoff(attempt - 1))
		}
		var res taskResults
		var err error
		if a := th.takeFirst(page); a != nil {
			res, err = a.res, a.err
		} else {
			res, err = c.fetchResultsHedged(th, page)
		}
		if err == nil {
			return res, nil
		}
		if isWorkerGone(err) {
			return taskResults{}, fmt.Errorf("%w: fetching results of task %s from %s: %v",
				ErrWorkerGone, th.taskID, th.worker.addr, err)
		}
		if errors.Is(err, errTaskUnknown) {
			return taskResults{}, err
		}
		lastErr = err
	}
	return taskResults{}, fmt.Errorf("cluster: fetching results from %s: %w", th.worker.addr, lastErr)
}

// fetchResultsHedged fires a GET ?page=N and, if no response arrives within
// HedgeDelay, races a duplicate against it (§VII straggler mitigation for
// result pulls). First response wins; an abandoned copy finishes on its own
// within the client timeout and is discarded. A task's POST is never
// hedged: a duplicate start would run the task twice.
func (c *Coordinator) fetchResultsHedged(th *taskHandle, page int) (taskResults, error) {
	c.rpcFetch.Inc()
	if c.cfg.HedgeDelay <= 0 {
		return th.fetchResults(page)
	}
	type result struct {
		res taskResults
		err error
	}
	ch := make(chan result, 2) // buffered: the loser's send never blocks
	fetch := func() {
		res, err := th.fetchResults(page)
		ch <- result{res, err}
	}
	go fetch()
	select {
	case r := <-ch:
		return r.res, r.err
	case <-c.cfg.Clock.After(c.cfg.HedgeDelay):
		c.hedgedFetches.Inc()
		c.rpcFetch.Inc()
		go fetch()
	}
	r := <-ch
	return r.res, r.err
}

// rescheduleTask restarts a failed task attempt on a surviving worker,
// consuming one unit of the query's retry budget. The replacement runs the
// same fragment over the same splits, so its page stream is equivalent to
// what the dead worker would have produced.
func (c *Coordinator) rescheduleTask(qs *queryState, th *taskHandle, cause error) (*taskHandle, error) {
	if err := c.checkQuery(qs); err != nil {
		return nil, err
	}
	if qs.budget.Add(-1) < 0 {
		return nil, fmt.Errorf("%w (task %s): %v", ErrRetryBudgetExhausted, th.taskID, cause)
	}
	c.taskRetries.Inc()
	if errors.Is(cause, ErrWorkerGone) {
		c.RemoveWorker(th.worker.addr)
	}
	// Prefer workers other than the one that just failed; fall back to the
	// whole registry when it was the only one left (its failure may have
	// been a transient RPC problem, not death). Picking asks no worker
	// anything: a replacement placed on a dead or leaving worker is refused,
	// and startTaskAnywhere moves on.
	workers := c.candidates(th.worker.addr)
	if len(workers) == 0 {
		workers = c.candidates("")
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("%w: rescheduling task %s after: %v", ErrNoActiveWorkers, th.taskID, cause)
	}
	req := th.req
	req.TaskID = fmt.Sprintf("%s.r%d", th.req.TaskID, qs.reschedules.Add(1))
	replacement, err := c.startTaskAnywhere(qs, workers, 0, req)
	if err != nil {
		return nil, fmt.Errorf("cluster: rescheduling task %s (after: %v): %w", th.req.TaskID, cause, err)
	}
	return replacement, nil
}
