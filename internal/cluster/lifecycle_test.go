package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"prestolite/internal/fault"
)

// TestCoordinatorDrainRefusesNewQueries: once the drain latches, new
// statements fail with the typed ErrCoordinatorDraining (direct API) and the
// HTTP front end answers 503 + X-Presto-Retryable so a gateway can resubmit
// the statement elsewhere.
func TestCoordinatorDrainRefusesNewQueries(t *testing.T) {
	coord, _ := newCluster(t, newCatalogs(t), 2)
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	coord.DrainGrace = 50 * time.Millisecond

	if _, err := coord.Query(session(), "SELECT count(*) FROM trips"); err != nil {
		t.Fatalf("pre-drain query: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- coord.GracefulDrain() }()

	// The latch flips synchronously at the head of GracefulDrain; poll
	// briefly for the goroutine to get there.
	deadline := time.Now().Add(time.Second)
	for !coord.draining.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !coord.draining.Load() {
		t.Fatal("coordinator never entered draining")
	}

	_, err := coord.Query(session(), "SELECT count(*) FROM trips")
	if !errors.Is(err, ErrCoordinatorDraining) {
		t.Fatalf("draining query error = %v, want ErrCoordinatorDraining", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("ErrCoordinatorDraining must be retryable")
	}

	// HTTP surface: 503 + Retry-After + X-Presto-Retryable, while the
	// listener is still up (no live queries hold the drain open).
	stmt := StatementRequest{Query: "SELECT count(*) FROM trips", Catalog: "hive", Schema: "rawdata"}
	resp, err := http.Post("http://"+coord.Addr()+"/v1/statement", "application/octet-stream", bytes.NewReader(stmt.encode()))
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("X-Presto-Retryable") != "true" {
			t.Fatalf("missing X-Presto-Retryable header, got %v", resp.Header)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("missing Retry-After header")
		}
	}
	// err != nil means the drain already closed the listener — also a valid
	// refusal from the client's point of view (connection refused is
	// classified worker-gone/retryable by the gateway path).

	if derr := <-done; derr != nil {
		t.Fatalf("GracefulDrain: %v", derr)
	}
	if coord.Obs().Snapshot().Counters["coordinator_drains"] != 1 {
		t.Fatalf("coordinator_drains = %v, want 1", coord.Obs().Snapshot().Counters["coordinator_drains"])
	}

	// Idempotent: a second drain is a no-op and does not double-count.
	if err := coord.GracefulDrain(); err != nil {
		t.Fatalf("second GracefulDrain: %v", err)
	}
	if coord.Obs().Snapshot().Counters["coordinator_drains"] != 1 {
		t.Fatalf("second drain must not re-count")
	}
}

// TestCoordinatorDrainLetsInFlightFinish: queries already running when the
// drain starts complete normally inside the grace period.
func TestCoordinatorDrainLetsInFlightFinish(t *testing.T) {
	coord, _ := newCluster(t, newCatalogs(t), 2)
	coord.DrainGrace = 5 * time.Second

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = coord.Query(session(), "SELECT city_id, sum(fare) FROM trips GROUP BY city_id")
		}(i)
	}
	// Begin the drain while the queries are (likely) in flight; those
	// already registered must finish, later arrivals get the typed error.
	if err := coord.GracefulDrain(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrCoordinatorDraining) {
			t.Fatalf("query %d failed with %v, want success or ErrCoordinatorDraining", i, err)
		}
	}
}

// TestWorkerGoneFastReschedule is satellite 1: an abruptly killed worker
// (Close, the simulated SIGKILL) surfaces as the typed ErrWorkerGone on the
// FIRST failed fetch — no per-RPC retry rounds against the corpse — and the
// query still answers exactly via rescheduling onto the survivor.
func TestWorkerGoneFastReschedule(t *testing.T) {
	// Unit half: a fetch against a dead address classifies as worker-gone
	// without burning rpc retries.
	coord := NewCoordinatorWithConfig(newCatalogs(t), ClientConfig{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		HedgeDelay:  -1, // disabled: one fetch per attempt
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close() // nothing listens here anymore: connection refused
	th := &taskHandle{
		worker: &workerClient{addr: deadAddr, http: coord.cfg.workerHTTPClient()},
		taskID: "t0",
	}
	before := coord.Obs().Snapshot().Counters["rpc_retries"]
	_, err = coord.fetchResults(nil, th, 0)
	if !errors.Is(err, ErrWorkerGone) {
		t.Fatalf("fetch from dead worker = %v, want ErrWorkerGone", err)
	}
	if got := coord.Obs().Snapshot().Counters["rpc_retries"]; got != before {
		t.Fatalf("rpc_retries = %d (was %d): worker-gone must short-circuit the retry loop", got, before)
	}

	// Integration half: kill one of two workers mid-cluster; the query
	// reschedules its splits onto the survivor and stays row-exact.
	coord2, workers := newCluster(t, newCatalogs(t), 2)
	workers[0].Close()
	res, err := coord2.Query(session(), "SELECT count(*) FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].(int64) != 80 {
		t.Fatalf("rows = %v, want [[80]]", rows)
	}
}

// TestQueryDeadline: the per-hop deadline gate on the coordinator's clock,
// and the worker-side refusal of tasks that arrive already expired.
func TestQueryDeadline(t *testing.T) {
	clock := fault.NewManualClock(time.Unix(1000, 0))
	coord := NewCoordinatorWithConfig(newCatalogs(t), ClientConfig{Clock: clock, HedgeDelay: -1})

	qs := newQueryState(&coord.cfg)
	qs.deadline = clock.Now().Add(100 * time.Millisecond)
	if err := coord.checkQuery(qs); err != nil {
		t.Fatalf("fresh deadline: %v", err)
	}
	clock.Advance(100 * time.Millisecond)
	err := coord.checkQuery(qs)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline = %v, want ErrDeadlineExceeded", err)
	}
	if !isTerminal(err) {
		t.Fatal("deadline errors must be terminal (never rescheduled)")
	}

	// Terminal errors stop drainTask before it consumes reschedule budget.
	th := &taskHandle{worker: &workerClient{addr: "127.0.0.1:1", http: coord.cfg.workerHTTPClient()}, taskID: "t0"}
	budgetBefore := qs.budget.Load()
	if _, err := coord.drainTask(qs, []*taskHandle{th}, 0); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("drainTask = %v, want ErrDeadlineExceeded", err)
	}
	if qs.budget.Load() != budgetBefore {
		t.Fatal("terminal error must not consume retry budget")
	}

	// Worker half: a task whose Deadline is already past is refused 503.
	reg := newCatalogs(t)
	w := NewWorker(reg)
	if err := w.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	frag, splits := sourceFragment(t, reg, "SELECT count(*) FROM hive.rawdata.trips")
	req := TaskRequest{TaskID: "expired", Fragment: frag.Root, TableKey: frag.TableKey, Splits: splits, Deadline: w.Clock.Now().Add(-time.Second).UnixNano()}
	resp, err := http.Post("http://"+w.Addr()+"/v1/task", "application/octet-stream", bytes.NewReader(req.encode()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired task status = %d, want 503", resp.StatusCode)
	}
}

// TestQueryDeadlineSessionProperty: the session property parses, propagates
// into TaskRequests, and a bad value is rejected up front — before planning,
// so a statement the result cache could answer is rejected all the same.
func TestQueryDeadlineSessionProperty(t *testing.T) {
	coord, _ := newCluster(t, newCatalogs(t), 2)
	coord.EnableResultCache(64, 8<<20, time.Hour)
	const q = "SELECT count(*) FROM trips"
	s := session()
	s.Properties["query_max_run_ms"] = "60000"
	if _, err := coord.Query(s, q); err != nil {
		t.Fatalf("query with generous deadline: %v", err)
	}
	if coord.resultCache.Len() != 1 {
		t.Fatal("the first run should have filled the result cache")
	}
	for _, bad := range []string{"banana", "0"} {
		s.Properties["query_max_run_ms"] = bad
		_, err := coord.Query(s, q)
		if err == nil || !strings.Contains(err.Error(), "session: bad query_max_run_ms") {
			t.Fatalf("query_max_run_ms=%q on a cached statement = %v, want a session: bad … error", bad, err)
		}
	}
	// The same bad value on a statement the cache has never seen.
	_, err := coord.Query(s, "SELECT max(fare) FROM trips")
	if err == nil || !strings.Contains(err.Error(), "session: bad query_max_run_ms") {
		t.Fatalf("bad query_max_run_ms on a cache miss = %v, want a session: bad … error", err)
	}
	// A name no property has (misspelt, or retired) is refused the same way,
	// and buys the same execution no second cache entry.
	s = session()
	s.Properties["query_max_run_msec"] = "60000"
	if _, err := coord.Query(s, q); err == nil || !strings.Contains(err.Error(), `unknown property "query_max_run_msec"`) {
		t.Fatalf("unknown property on a cached statement = %v, want it refused by name", err)
	}
	if coord.resultCache.Len() != 1 {
		t.Fatalf("result cache holds %d entries, want 1", coord.resultCache.Len())
	}
}

// TestTaskResultsRequirePage: the results protocol is paged by index only —
// a GET that names no page (or a bad one) is a 400, not a cursor read that
// would make a retried fetch skip a page.
func TestTaskResultsRequirePage(t *testing.T) {
	w := NewWorker(newCatalogs(t))
	if err := w.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	task := newWorkerTask()
	task.finish(nil, nil)
	w.mu.Lock()
	w.tasks["t0"] = task
	w.mu.Unlock()
	for query, want := range map[string]int{
		"":         http.StatusBadRequest,
		"?page=-1": http.StatusBadRequest,
		"?page=x":  http.StatusBadRequest,
		"?page=0":  http.StatusOK,
	} {
		resp, err := http.Get("http://" + w.Addr() + "/v1/task/t0/results" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET results%s = %d, want %d", query, resp.StatusCode, want)
		}
	}
}

// requestLog records, in order, each request a client starts and each one
// that fails.
type requestLog struct {
	base http.RoundTripper
	mu   sync.Mutex
	log  []string
}

func (l *requestLog) add(event string) {
	l.mu.Lock()
	l.log = append(l.log, event)
	l.mu.Unlock()
}

func (l *requestLog) RoundTrip(r *http.Request) (*http.Response, error) {
	l.add(r.Method + " " + r.URL.Host + r.URL.Path)
	resp, err := l.base.RoundTrip(r)
	if err != nil {
		l.add("failed " + r.Method + " " + r.URL.Host + r.URL.Path)
	}
	return resp, err
}

func (l *requestLog) events() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.log...)
}

// TestRescheduleAsksNoWorker: a task whose worker stops answering — it takes
// the task, and the answer never comes back — moves to another worker with
// nothing asked in between. The replacement used to be picked by polling
// every registered worker, the failed one included, so a black-holed worker
// cost one more WorkerTimeout on every reschedule.
func TestRescheduleAsksNoWorker(t *testing.T) {
	catalogs := newCatalogs(t)
	inj := fault.NewInjector(1)
	rlog := &requestLog{base: &fault.Transport{Injector: inj}}
	coord := NewCoordinatorWithConfig(catalogs, ClientConfig{
		WorkerTimeout: time.Second,
		MaxAttempts:   1,
		HedgeDelay:    -1,
		Transport:     rlog,
	})
	var workers []*Worker
	for i := 0; i < 2; i++ {
		w := NewWorker(catalogs)
		if err := w.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		coord.AddWorker(w.Addr())
		workers = append(workers, w)
	}
	rows := func() string {
		t.Helper()
		res, err := coord.Query(session(), "SELECT city_id, count(*), sum(fare) FROM trips GROUP BY city_id ORDER BY city_id")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.Rows()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(rows)
	}
	want := rows()
	a := busiestWorker(workers).Addr()
	inj.FaultHTTP(fault.HTTPRule{Target: a, Path: "/v1/task", LoseProb: 1})

	if got := rows(); got != want {
		t.Fatalf("after the reschedule:\n got %s\nwant %s", got, want)
	}
	events := rlog.events()
	failed := -1
	for i, e := range events {
		if strings.HasPrefix(e, "failed POST "+a) && strings.HasSuffix(e, "/v1/task") {
			failed = i
			break
		}
	}
	if failed < 0 {
		t.Fatalf("no task start on %s lost its answer: %v", a, events)
	}
	for _, e := range events[failed+1:] {
		if strings.HasPrefix(e, "POST ") && strings.HasSuffix(e, "/v1/task") {
			break
		}
		t.Errorf("request %q between the failed fetch from %s and the replacement's start", e, a)
	}
	if n := counter(coord, "task_retries"); n < 1 {
		t.Errorf("task_retries = %d, want the black-holed task rescheduled", n)
	}
}
