package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptrace"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestolite/internal/druid"
	"prestolite/internal/fault"
	"prestolite/internal/fsys"
)

// What a task costs in requests: the task POST answers with the task's
// output, and a finished task is released by the acknowledgement the next
// task document to its worker carries, after a bound without one, or when
// its worker shuts down — a DELETE only for a task abandoned before its Done
// answer was read.

// rpcCounts are the coordinator's task-RPC counters.
type rpcCounts struct{ start, fetch, delete, stats int64 }

func taskRPCs(coord *Coordinator) rpcCounts {
	c := coord.Obs().Snapshot().Counters
	return rpcCounts{c["coordinator.task_rpc.start"], c["coordinator.task_rpc.fetch"], c["coordinator.task_rpc.delete"], c["coordinator.task_rpc.stats"]}
}

func (a rpcCounts) minus(b rpcCounts) rpcCounts {
	return rpcCounts{a.start - b.start, a.fetch - b.fetch, a.delete - b.delete, a.stats - b.stats}
}

// lastQueryTasks is the number of tasks the coordinator's latest statement
// ran, as its QueryInfo tells.
func lastQueryTasks(t *testing.T, coord *Coordinator) int64 {
	t.Helper()
	n := int64(0)
	for _, st := range coord.QueryInfos()[0].Stages[1:] {
		n += int64(st.Tasks)
	}
	if n == 0 {
		t.Fatal("the statement ran no task")
	}
	return n
}

// gateClock is real time, except that Sleep waits for gate to close: a
// fault.FS delaying reads on it holds each read until then.
type gateClock struct {
	fault.RealClock
	gate chan struct{}
}

func (c gateClock) Sleep(time.Duration) { <-c.gate }

// TestOneRequestPerTask: on the no-fault path each task costs its
// coordinator exactly one request, the POST — no results GET, no DELETE, no
// stats read — for a distributed join with an aggregate and for a hybrid
// statement; and a LIMIT statement that abandons tasks still running sends
// one DELETE for each of them, and none for the task it read.
func TestOneRequestPerTask(t *testing.T) {
	// The workers answer every POST when the task is done, however long it
	// takes under load: what a GET would have been needed for never happens.
	held := func(w *Worker) { w.Clock = heldClock{} }
	noFault := func(t *testing.T, catalogs func() *Coordinator, query func(*Coordinator) error) {
		coord := catalogs()
		if err := query(coord); err != nil { // plans, memoises and warms the caches
			t.Fatal(err)
		}
		before := taskRPCs(coord)
		if err := query(coord); err != nil {
			t.Fatal(err)
		}
		tasks := lastQueryTasks(t, coord)
		if got, want := taskRPCs(coord).minus(before), (rpcCounts{start: tasks}); got != want {
			t.Errorf("%d tasks cost %+v, want %+v", tasks, got, want)
		}
	}

	t.Run("join and aggregate", func(t *testing.T) {
		noFault(t, func() *Coordinator {
			coord, _ := chaosCluster(t, newCatalogs(t), 3, ClientConfig{}, held)
			return coord
		}, func(coord *Coordinator) error {
			res, err := coord.Query(session(), "SELECT c.name, count(*) AS n, sum(t.fare) AS f FROM trips t JOIN memory.meta.cities c ON t.city_id = c.city_id GROUP BY c.name ORDER BY c.name")
			if err == nil && len(res.Pages) == 0 {
				err = fmt.Errorf("no rows")
			}
			return err
		})
	})

	t.Run("hybrid", func(t *testing.T) {
		noFault(t, func() *Coordinator {
			catalogs, rt := ChaosEventsCatalogs(t, nil, 200, druid.SegmentConfig{SealRows: 50})
			var rows [][]any
			for i := int64(0); i < 120; i++ {
				rows = append(rows, []any{ChaosEventsBoundary + i, []string{"us", "de"}[i%2], i % 7})
			}
			if err := rt.Ingest(rows); err != nil {
				t.Fatal(err)
			}
			coord, _ := chaosCluster(t, catalogs, 2, ClientConfig{}, held)
			return coord
		}, func(coord *Coordinator) error {
			_, err := coord.Query(ingestSession(), "SELECT country, count(*) AS n, sum(clicks) AS c FROM events GROUP BY country ORDER BY country")
			return err
		})
	})

	t.Run("limit", func(t *testing.T) {
		// Every worker reads through its own gate, held shut: its tasks run
		// until the test ends, except on the worker the root reads first.
		warehouse := newWarehouse(t)
		var gates []chan struct{}
		coord, workers := chaosCluster(t, warehouse(nil), 3, ClientConfig{HedgeDelay: -1}, func(w *Worker) {
			gate := make(chan struct{})
			gates = append(gates, gate)
			inj := fault.NewInjector(1)
			inj.Clock = gateClock{gate: gate}
			inj.FaultFS(fault.FSRule{Ops: []string{"read"}, DelayProb: 1, Delay: time.Nanosecond})
			w.Catalogs = warehouse(func(fs fsys.FileSystem) fsys.FileSystem { return &fault.FS{Injector: inj, Base: fs} })
		})
		t.Cleanup(func() {
			for _, g := range gates {
				select {
				case <-g:
				default:
					close(g)
				}
			}
		})
		// Tasks are placed, and read, in the order of the workers' addresses:
		// open the gate of the worker whose task comes first.
		const query = "SELECT city_id, fare FROM hive.rawdata.trips LIMIT 1"
		frag := sourceFragments(t, coord.Catalogs, query)[0]
		assignment, _, _ := assignSplits(frag.splits, coord.candidates(""))
		for i, w := range coord.candidates("") {
			if len(assignment[i]) > 0 {
				for j := range workers {
					if workers[j].Addr() == w.addr {
						close(gates[j])
					}
				}
				break
			}
		}

		before := taskRPCs(coord)
		res, err := coord.Query(session(), query)
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := res.Rows(); err != nil || len(rows) != 1 {
			t.Fatalf("LIMIT 1 answered %v, %v", rows, err)
		}
		tasks := lastQueryTasks(t, coord)
		if tasks < 2 {
			t.Fatalf("the statement ran %d task, want some to abandon", tasks)
		}
		got := taskRPCs(coord).minus(before)
		if got.start != tasks || got.delete != tasks-1 || got.stats != tasks-1 {
			t.Errorf("%d tasks, %d of them abandoned, cost %+v; want a start each, and a DELETE and a live stats read for each abandoned one", tasks, tasks-1, got)
		}
	})
}

// TestAcknowledgementReleasesTasks: a finished task stays on its worker,
// its frames charged to the worker pool, until the next task document to the
// worker acknowledges it; the coordinator sends no request of its own for
// that.
func TestAcknowledgementReleasesTasks(t *testing.T) {
	coord, workers := newCluster(t, newCatalogs(t), 2)
	const query = "SELECT city_id, count(*) AS n, sum(fare) AS f FROM trips GROUP BY city_id"
	held := func(w *Worker, queryID string) (ids []string) {
		w.mu.Lock()
		defer w.mu.Unlock()
		for id := range w.tasks {
			if strings.HasPrefix(id, coord.id+"."+queryID+".") {
				ids = append(ids, id)
			}
		}
		return ids
	}
	var prev string
	for run := 0; run < 3; run++ {
		before := taskRPCs(coord)
		if _, err := coord.Query(session(), query); err != nil {
			t.Fatal(err)
		}
		if got := taskRPCs(coord).minus(before); got.delete != 0 || got.stats != 0 {
			t.Errorf("run %d: %+v, want no DELETE and no stats read", run, got)
		}
		id := coord.QueryInfos()[0].ID
		kept := 0
		for _, w := range workers {
			kept += len(held(w, id))
			if prev != "" {
				if ids := held(w, prev); len(ids) != 0 {
					t.Errorf("run %d: worker %s still holds %v of the statement before", run, w.Addr(), ids)
				}
			}
			if got, frames := w.pool.Reserved(), unacknowledged(w); got != frames || (kept > 0 && frames == 0) {
				t.Errorf("run %d: worker %s pool holds %d bytes, its unacknowledged frames %d", run, w.Addr(), got, frames)
			}
		}
		if int64(kept) != lastQueryTasks(t, coord) {
			t.Errorf("run %d: the workers keep %d of the statement's %d tasks until acknowledged", run, kept, lastQueryTasks(t, coord))
		}
		prev = id
	}
}

// TestUnacknowledgedFramesReleasedAfterBound: a coordinator that never
// acknowledges a task it read leaves its frames charged to the worker pool
// for releaseAfter from the Done answer, and not a moment more.
func TestUnacknowledgedFramesReleasedAfterBound(t *testing.T) {
	clock := fault.NewManualClock(time.Unix(1000, 0))
	reg := newCatalogs(t)
	w := NewWorker(reg)
	w.Clock = clock
	if err := w.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	coord := NewCoordinatorWithConfig(reg, ClientConfig{HedgeDelay: -1})
	wc := &workerClient{addr: w.Addr(), http: coord.cfg.workerHTTPClient()}
	frag := sourceFragments(t, reg, "SELECT city_id, fare FROM hive.rawdata.trips")[0]
	th, err := wc.startTask(TaskRequest{TaskID: "t0", Fragment: frag.root, TableKey: frag.tableKey, Splits: frag.splits})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := coord.drainOnce(nil, th)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(0)
	for _, f := range frames {
		size += int64(len(f))
	}
	// The Done answer went out at the clock's present reading: nothing has
	// moved the clock since.
	if got := w.pool.Reserved(); got != size || size == 0 {
		t.Fatalf("the pool holds %d bytes for %d bytes of unacknowledged frames", got, size)
	}
	clock.Advance(releaseAfter - time.Nanosecond)
	time.Sleep(20 * time.Millisecond)
	if got := w.pool.Reserved(); got != size {
		t.Fatalf("%v after the Done answer the pool holds %d bytes, want the frames' %d", releaseAfter-time.Nanosecond, got, size)
	}
	clock.Advance(time.Nanosecond)
	deadline := time.Now().Add(5 * time.Second)
	for w.pool.Reserved() != 0 || len(tasksOf(w)) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("releaseAfter passed and the pool still holds %d bytes, tasks %v", w.pool.Reserved(), tasksOf(w))
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := th.fetchResults(0); err == nil || !strings.Contains(err.Error(), "does not know") {
		t.Errorf("a fetch of the released task = %v, want the worker not to know it", err)
	}
}

// TestTaskIDsDistinctAcrossCoordinators: two coordinators that share a
// worker count their statements from the same q1, yet post distinct task
// ids, so at once each gets its own answer, and a coordinator's
// acknowledgements release its own tasks on the worker and never the
// other's.
func TestTaskIDsDistinctAcrossCoordinators(t *testing.T) {
	catalogs := newCatalogs(t)
	_, workers := newCluster(t, catalogs, 1)
	w := workers[0]
	coords := []*Coordinator{NewCoordinator(catalogs), NewCoordinator(catalogs)}
	queries := []string{
		"SELECT city_id, count(*) AS n FROM trips GROUP BY city_id ORDER BY city_id",
		"SELECT sum(fare) AS f FROM trips WHERE fare >= 10.0",
	}
	answer := func(c int) (string, error) {
		res, err := coords[c].Query(session(), queries[c])
		if err != nil {
			return "", err
		}
		rows, err := res.Rows()
		return fmt.Sprint(rows), err
	}
	var want [2]string
	for c, coord := range coords {
		coord.AddWorker(w.Addr())
		var err error
		if want[c], err = answer(c); err != nil {
			t.Fatal(err)
		}
	}
	if coords[0].id == coords[1].id {
		t.Fatalf("both coordinators minted %q", coords[0].id)
	}
	held := func(c int) (ids []string) {
		prefix := coords[c].id + "." + coords[c].QueryInfos()[0].ID + "."
		for _, id := range tasksOf(w) {
			if strings.HasPrefix(id, prefix) {
				ids = append(ids, id)
			}
		}
		return ids
	}

	// Both statements run at once, again and again: each coordinator reads
	// its own answer.
	var wg sync.WaitGroup
	for c := range coords {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := answer(c)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[c] {
					t.Errorf("coordinator %d, run %d: answered %s, want %s", c, i, got, want[c])
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// The worker holds the last statement's tasks of each coordinator until
	// that coordinator's next task document acknowledges them.
	last := held(1)
	if len(last) == 0 || len(held(0)) == 0 {
		t.Fatalf("the worker holds %v of coordinator 0's last statement and %v of coordinator 1's", held(0), last)
	}
	if _, err := answer(0); err != nil {
		t.Fatal(err)
	}
	for _, id := range last {
		if !slices.Contains(tasksOf(w), id) {
			t.Errorf("coordinator 0's acknowledgements released coordinator 1's task %s", id)
		}
	}
	if _, err := answer(1); err != nil {
		t.Fatal(err)
	}
	for _, id := range last {
		if slices.Contains(tasksOf(w), id) {
			t.Errorf("coordinator 1's next statement did not release its task %s", id)
		}
	}
}

// tasksOf lists the ids of w's tasks.
func tasksOf(w *Worker) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var ids []string
	for id := range w.tasks {
		ids = append(ids, id)
	}
	return ids
}

// TestGracefulDrainWaitsForAnswersNotAcks: a shutting-down worker refuses
// the task documents that would carry acknowledgements, so its drain waits
// for each task's Done answer to go out, not for its release: a worker
// holding answered, unacknowledged tasks shuts down after exactly its two
// grace periods, and frees what they held.
func TestGracefulDrainWaitsForAnswersNotAcks(t *testing.T) {
	clock := fault.NewManualClock(time.Unix(1000, 0))
	reg := newCatalogs(t)
	w := NewWorker(reg)
	w.Clock = clock
	w.GracePeriod = time.Second
	if err := w.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	coord := NewCoordinatorWithConfig(reg, ClientConfig{HedgeDelay: -1})
	wc := &workerClient{addr: w.Addr(), http: coord.cfg.workerHTTPClient()}
	frag := sourceFragments(t, reg, "SELECT city_id, fare FROM hive.rawdata.trips")[0]
	for i := 0; i < 3; i++ {
		th, err := wc.startTask(TaskRequest{TaskID: fmt.Sprintf("t%d", i), Fragment: frag.root, TableKey: frag.tableKey, Splits: frag.splits})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.drainOnce(nil, th); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(tasksOf(w)); n != 3 || w.pool.Reserved() == 0 {
		t.Fatalf("the worker holds %d tasks and %d bytes, want the 3 answered ones and their frames", n, w.pool.Reserved())
	}
	slept := clock.Slept()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.GracefulShutdown()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the drain waits for acknowledgements a shutting-down worker never receives")
	}
	if got := clock.Slept() - slept; got != 2*w.GracePeriod {
		t.Errorf("the shutdown slept %v, want exactly two grace periods (%v)", got, 2*w.GracePeriod)
	}
	if w.State() != StateShutdown || w.pool.Reserved() != 0 || len(tasksOf(w)) != 0 {
		t.Errorf("after shutdown: state %s, %d bytes held, tasks %v", w.State(), w.pool.Reserved(), tasksOf(w))
	}
}

// dialCounter counts the requests that went out on a newly dialled
// connection rather than a reused one.
type dialCounter struct {
	base  http.RoundTripper
	dials atomic.Int64
}

func (d *dialCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			d.dials.Add(1)
		}
	}}
	return d.base.RoundTrip(r.WithContext(httptrace.WithClientTrace(r.Context(), trace)))
}

// TestWorkerConnectionsAreReused: two clients running statements at once
// post several tasks to each worker at a time, and the coordinator's worker
// connections are kept for the next ones: after a warm-up, 50 statements
// dial no new connection to a worker. http.DefaultTransport keeps two idle
// connections per host, fewer than are in flight.
func TestWorkerConnectionsAreReused(t *testing.T) {
	counter := &dialCounter{base: workerTransport}
	catalogs := newCatalogs(t)
	coord, workers := chaosCluster(t, catalogs, 3, ClientConfig{Transport: counter})
	const query = "SELECT c.name, count(*) AS n FROM trips t JOIN memory.meta.cities c ON t.city_id = c.city_id GROUP BY c.name"
	run := func(statements int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < statements/2; i++ {
					if _, err := coord.Query(session(), query); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	// Warm-up: the statements, and then eight requests held on each worker
	// at once — more than the two clients' statements have in flight to
	// one — so each worker's connections are open before the count starts.
	run(10)
	for _, w := range workers {
		held := newWorkerTask() // never finishes: a fetch of it waits resultsWait
		w.mu.Lock()
		w.tasks["held"] = held
		w.mu.Unlock()
		coord.mu.Lock()
		wc := coord.workers[w.Addr()]
		coord.mu.Unlock()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := &taskHandle{worker: wc, taskID: "held"}
				if _, err := th.fetchResults(0); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		w.release("held", held)
	}
	if counter.dials.Load() == 0 {
		t.Fatal("no connection was dialled: the counter sees nothing")
	}
	counter.dials.Store(0)
	run(50)
	if n := counter.dials.Load(); n != 0 {
		t.Errorf("50 statements from two clients dialled %d new connections to the workers", n)
	}
}
