package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/execution"
	"prestolite/internal/fault"
	"prestolite/internal/fsys"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/tpch"
)

// The chaos suite (run via `make chaos`): seeded fault injection against an
// embedded coordinator+workers cluster running TPC-H queries. The invariant
// every test asserts is the §IX reliability contract — a query either returns
// row-exact correct results or a clean typed error, never a hang and never
// wrong rows. Each failure logs its seed; re-run one with
// CHAOS_SEED=<seed> make chaos.

const (
	chaosDataSeed    = 99 // data is fixed; chaos seeds vary only the faults
	chaosFiles       = 8
	chaosRowsPerFile = 250
)

// chaosQueries are TPC-H-flavored statements over LINEITEM. Aggregates are
// restricted to counts and sums of small integral doubles (l_quantity is
// 1..50), so results are bit-exact regardless of the order partial aggregates
// merge in — which is what lets the suite assert row-exact equality even when
// tasks are re-executed on different workers. The projection moves rows, not
// aggregates: one page frame per file from each source task, so the results
// responses it is fetched in carry several frames each. Each file numbers its
// orders from 1, so it orders by every column it selects: rows that tie are
// equal.
var chaosQueries = []string{
	`SELECT l_returnflag, l_linestatus, count(*) AS n, sum(l_quantity) AS q
		FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
	`SELECT count(*) AS n FROM lineitem WHERE l_quantity < 25.0`,
	`SELECT l_shipmode, count(*) AS n FROM lineitem GROUP BY l_shipmode ORDER BY l_shipmode`,
	`SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem WHERE l_quantity < 10.0
		ORDER BY l_orderkey, l_linenumber, l_quantity`,
}

// chaosCatalogs builds a hive warehouse of TPC-H LINEITEM files over the
// simulated HDFS, wrapped in the fault-injecting filesystem when inj != nil.
// The table is loaded before any fault rules exist, so the data itself is
// always intact — chaos fires on the read path.
func chaosCatalogs(t *testing.T, inj *fault.Injector) *connector.Registry {
	t.Helper()
	var fs fsys.FileSystem = hdfs.New(hdfs.Config{})
	if inj != nil {
		fs = &fault.FS{Injector: inj, Base: fs}
	}
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	cols := make([]metastore.Column, len(tpch.LineItemColumns))
	for i, c := range tpch.LineItemColumns {
		cols[i] = metastore.Column{Name: c.Name, Type: c.Type}
	}
	var pages []*block.Page
	for f := 0; f < chaosFiles; f++ {
		pages = append(pages, tpch.GeneratePage(chaosDataSeed+int64(f), chaosRowsPerFile))
	}
	if err := loader.CreateTable("tpch", "lineitem", cols, pages); err != nil {
		t.Fatal(err)
	}
	reg := connector.NewRegistry()
	reg.Register("hive", hive.New("hive", ms, fs, hive.Options{}))
	return reg
}

// chaosCluster starts a coordinator with cfg plus n workers, each handed to
// setup before it starts.
func chaosCluster(t *testing.T, catalogs *connector.Registry, n int, cfg ClientConfig, setup ...func(*Worker)) (*Coordinator, []*Worker) {
	t.Helper()
	coord := NewCoordinatorWithConfig(catalogs, cfg)
	var workers []*Worker
	for i := 0; i < n; i++ {
		w := NewWorker(catalogs)
		w.GracePeriod = 20 * time.Millisecond
		for _, fn := range setup {
			fn(w)
		}
		if err := w.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		coord.AddWorker(w.Addr())
		workers = append(workers, w)
	}
	return coord, workers
}

func chaosSession() *planner.Session {
	return &planner.Session{Catalog: "hive", Schema: "tpch", User: "chaos", Properties: map[string]string{}}
}

// chaosBaseline runs every chaos query on a clean, fault-free cluster and
// returns the expected row sets.
func chaosBaseline(t *testing.T) []string {
	t.Helper()
	coord, _ := chaosCluster(t, chaosCatalogs(t, nil), 3, ClientConfig{})
	out := make([]string, len(chaosQueries))
	for i, q := range chaosQueries {
		out[i] = mustRows(t, coord, q)
	}
	return out
}

// mustRows runs one query and renders its rows for exact comparison.
func mustRows(t *testing.T, coord *Coordinator, query string) string {
	t.Helper()
	res, err := coord.Query(chaosSession(), query)
	if err != nil {
		t.Fatalf("query failed: %v\n  query: %s", err, query)
	}
	rows, err := res.Rows()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(rows)
}

// counter reads one counter from the coordinator's metrics registry.
func counter(coord *Coordinator, name string) int64 {
	return coord.Obs().Snapshot().Counters[name]
}

// busiestWorker returns the worker that has started the most tasks: the one
// to fault when a test needs a worker the split placement actually uses.
// Placement rendezvous-hashes the workers' ephemeral addresses under a
// fair-share+1 cap (4 of the suite's 8 splits), so two workers can hold every
// split: on about one port draw in seventy a given worker — workers[0], say —
// is dealt none, and killing it reschedules nothing. The placement is the
// same for every query on the same addresses, so one clean query tells.
func busiestWorker(workers []*Worker) *Worker {
	started := func(w *Worker) int64 { return w.Obs.Snapshot().Counters["tasks_started"] }
	busiest := workers[0]
	for _, w := range workers[1:] {
		if started(w) > started(busiest) {
			busiest = w
		}
	}
	return busiest
}

// TestChaosWorkerDeathReschedules: one worker accepts tasks but every answer
// carrying task output from it is lost on the way back — the task's POST and
// each GET that reads it again (the deterministic stand-in for a node dying
// mid-query). Every query must still return the exact baseline rows, and the
// recovery must be visible as task_retries — dead-worker splits re-executed
// on survivors.
func TestChaosWorkerDeathReschedules(t *testing.T) {
	want := chaosBaseline(t)
	for _, seed := range ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
		inj := fault.NewInjector(seed)
		coord, workers := chaosCluster(t, chaosCatalogs(t, inj), 3, ChaosConfig(inj))
		mustRows(t, coord, chaosQueries[0]) // a clean pass, so busiestWorker has something to read
		inj.FaultHTTP(fault.HTTPRule{Target: busiestWorker(workers).Addr(), Path: "/v1/task", LoseProb: 1})

		Watchdog(t, 60*time.Second, func() {
			for i, q := range chaosQueries {
				if got := mustRows(t, coord, q); got != want[i] {
					t.Errorf("seed %d query %d: rows diverged from clean baseline\ngot  %s\nwant %s", seed, i, got, want[i])
				}
			}
		})
		if n := inj.Counters.Lost.Load(); n < 1 {
			t.Errorf("seed %d: no answer was lost — the chaos run was a no-op", seed)
		}
		if n := counter(coord, "task_retries"); n < 1 {
			t.Errorf("seed %d: task_retries = %d, want >= 1 (no split was rescheduled off the dead worker)", seed, n)
		}
	}
}

// TestChaosWorkerKilledMidQuery: a worker is actually torn down (listener
// closed) while queries run. Queries must return exact rows — the scheduler
// and retry layers route around the corpse.
func TestChaosWorkerKilledMidQuery(t *testing.T) {
	want := chaosBaseline(t)
	for _, seed := range ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
		inj := fault.NewInjector(seed)
		coord, workers := chaosCluster(t, chaosCatalogs(t, inj), 3, ChaosConfig(inj))

		var once sync.Once
		kill := func() { once.Do(func() { workers[0].Close() }) }
		go func() {
			time.Sleep(time.Duration(5+seed%10) * time.Millisecond)
			kill()
		}()
		Watchdog(t, 60*time.Second, func() {
			for i, q := range chaosQueries {
				if got := mustRows(t, coord, q); got != want[i] {
					t.Errorf("seed %d query %d: rows diverged after worker kill\ngot  %s\nwant %s", seed, i, got, want[i])
				}
			}
		})
		kill()
	}
}

// TestChaosDroppedRPCs: 10% of every coordinator→worker RPC fails before
// reaching the server. The per-RPC retry layer (and, when retries run dry,
// task rescheduling) must absorb all of it: every query exact.
func TestChaosDroppedRPCs(t *testing.T) {
	want := chaosBaseline(t)
	for _, seed := range ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
		inj := fault.NewInjector(seed)
		coord, _ := chaosCluster(t, chaosCatalogs(t, inj), 3, ChaosConfig(inj))
		inj.FaultHTTP(fault.HTTPRule{DropProb: 0.1})

		Watchdog(t, 60*time.Second, func() {
			for i, q := range chaosQueries {
				if got := mustRows(t, coord, q); got != want[i] {
					t.Errorf("seed %d query %d: rows diverged under 10%% RPC drops\ngot  %s\nwant %s", seed, i, got, want[i])
				}
			}
		})
		if n := inj.Counters.Dropped.Load(); n == 0 {
			t.Errorf("seed %d: injector dropped nothing — the chaos run was a no-op", seed)
		}
	}
}

// TestChaosStragglerHedging: storage reads stall and most result fetches are
// slow. With hedging enabled, duplicate fetches race the stragglers
// (idempotent paged protocol makes the duplicates safe); results stay exact
// and hedged_fetches shows the mitigation actually fired. A task's POST is
// never hedged, and it carries the whole output of a task that ends within
// resultsWait; every read here stalls that long, so each task outlasts its
// POST and is read with GETs, which are hedged.
func TestChaosStragglerHedging(t *testing.T) {
	want := chaosBaseline(t)
	for _, seed := range ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
		inj := fault.NewInjector(seed)
		cfg := ChaosConfig(inj)
		cfg.HedgeDelay = 40 * time.Millisecond
		coord, _ := chaosCluster(t, chaosCatalogs(t, inj), 3, cfg)
		inj.FaultFS(fault.FSRule{Ops: []string{"read"}, DelayProb: 0.3, Delay: 20 * time.Millisecond})
		inj.FaultFS(fault.FSRule{Ops: []string{"read"}, DelayProb: 1, Delay: resultsWait})
		inj.FaultHTTP(fault.HTTPRule{Path: "/results", DelayProb: 0.75, Delay: 250 * time.Millisecond})

		Watchdog(t, 60*time.Second, func() {
			if got := mustRows(t, coord, chaosQueries[0]); got != want[0] {
				t.Errorf("seed %d: rows diverged under stalled reads\ngot  %s\nwant %s", seed, got, want[0])
			}
		})
		if n := counter(coord, "hedged_fetches"); n < 1 {
			t.Errorf("seed %d: hedged_fetches = %d, want >= 1 (stragglers were never hedged)", seed, n)
		}
	}
}

// TestChaosFlakyStorage: one warehouse file's reads fail intermittently.
// Tasks over that split fail and re-execute (budget permitting) until a clean
// attempt lands; rows stay exact.
func TestChaosFlakyStorage(t *testing.T) {
	want := chaosBaseline(t)
	for _, seed := range ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
		inj := fault.NewInjector(seed)
		cfg := ChaosConfig(inj)
		cfg.RetryBudget = 64
		coord, _ := chaosCluster(t, chaosCatalogs(t, inj), 3, cfg)
		inj.FaultFS(fault.FSRule{Path: "lineitem/part-00003", Ops: []string{"read"}, ErrProb: 0.02})

		Watchdog(t, 60*time.Second, func() {
			for i, q := range chaosQueries {
				if got := mustRows(t, coord, q); got != want[i] {
					t.Errorf("seed %d query %d: rows diverged under flaky storage\ngot  %s\nwant %s", seed, i, got, want[i])
				}
			}
		})
	}
}

// TestChaosFullPartition: every RPC is dropped — the coordinator is cut off
// from all workers. The query must fail with a typed availability error
// within the retry budget. Hanging (or a wrong answer) is the bug.
func TestChaosFullPartition(t *testing.T) {
	for _, seed := range ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
		inj := fault.NewInjector(seed)
		coord, _ := chaosCluster(t, chaosCatalogs(t, inj), 3, ChaosConfig(inj))
		inj.FaultHTTP(fault.HTTPRule{DropProb: 1})

		Watchdog(t, 30*time.Second, func() {
			_, err := coord.Query(chaosSession(), chaosQueries[0])
			if err == nil {
				t.Errorf("seed %d: query succeeded with every RPC dropped", seed)
				return
			}
			if !isUnavailable(err) {
				t.Errorf("seed %d: err = %v, want a typed availability error (isUnavailable)", seed, err)
			}
		})
	}
}

// TestChaosParallelDriversDroppedRPCs: every worker runs its tasks with 4
// driver pipelines (intra-task parallelism) while 10% of coordinator→worker
// RPCs drop. Results must stay row-exact, and — the teardown invariant — no
// driver or exchange goroutine may outlive its task: after the workload
// drains and the workers shut down (aborting any task whose DELETE was
// dropped), the process goroutine count must return to the pre-cluster
// baseline.
func TestChaosParallelDriversDroppedRPCs(t *testing.T) {
	want := chaosBaseline(t)
	for _, seed := range ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
		inj := fault.NewInjector(seed)
		catalogs := chaosCatalogs(t, inj)

		baseGoroutines := runtime.NumGoroutine()
		coord := NewCoordinatorWithConfig(catalogs, ChaosConfig(inj))
		var workers []*Worker
		for i := 0; i < 3; i++ {
			w := NewWorker(catalogs)
			w.GracePeriod = 20 * time.Millisecond
			w.TaskConcurrency = 4
			if err := w.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			coord.AddWorker(w.Addr())
			workers = append(workers, w)
		}
		inj.FaultHTTP(fault.HTTPRule{DropProb: 0.1})

		Watchdog(t, 60*time.Second, func() {
			for i, q := range chaosQueries {
				if got := mustRows(t, coord, q); got != want[i] {
					t.Errorf("seed %d query %d: rows diverged with 4 drivers under 10%% RPC drops\ngot  %s\nwant %s", seed, i, got, want[i])
				}
			}
		})
		if n := inj.Counters.Dropped.Load(); n == 0 {
			t.Errorf("seed %d: injector dropped nothing — the chaos run was a no-op", seed)
		}

		// Teardown leak check: close the workers (aborting tasks whose DELETE
		// was dropped) and poll until the goroutine count is back to the
		// baseline. Idle HTTP connections park goroutines in the shared
		// default transport, so shed them while polling.
		for _, w := range workers {
			w.Close()
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if tr, ok := http.DefaultTransport.(*http.Transport); ok {
				tr.CloseIdleConnections()
			}
			if runtime.NumGoroutine() <= baseGoroutines {
				break
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("seed %d: goroutine leak after multi-driver teardown: %d running, baseline %d\n%s",
					seed, runtime.NumGoroutine(), baseGoroutines, buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// ---------------------------------------------------------------------------
// Memory-pressure chaos (§XII.C): the degradation ladder under concurrency.
// The invariant mirrors the reliability contract above — under a pool far too
// small for the working set, every query either returns row-exact results
// (admitted, possibly queued, possibly spilled) or fails with a typed
// resource error. Never a hang, never a wrong row, never a leaked spill file.

// chaosMemQueries are deliberately memory-hungry: a wide total-order sort, a
// near-distinct grouped aggregation, and a self-join. Each one's working set
// dwarfs the per-query caps the pressure tests configure. The sort projects
// exactly its sort keys, so tied rows are identical and row-exact comparison
// is order-safe even across external-merge tie-breaks.
var chaosMemQueries = []string{
	`SELECT l_orderkey, l_partkey, l_suppkey, l_quantity FROM lineitem
		ORDER BY l_orderkey, l_partkey, l_suppkey, l_quantity`,
	`SELECT l_orderkey, l_partkey, count(*) AS n, sum(l_quantity) AS q FROM lineitem
		GROUP BY l_orderkey, l_partkey ORDER BY l_orderkey, l_partkey`,
	`SELECT count(*) AS n FROM lineitem a JOIN lineitem b ON a.l_orderkey = b.l_orderkey`,
}

// chaosMemBaseline runs the memory-hungry queries on a clean cluster with no
// resource limits at all.
func chaosMemBaseline(t *testing.T) []string {
	t.Helper()
	coord, _ := chaosCluster(t, chaosCatalogs(t, nil), 3, ClientConfig{})
	out := make([]string, len(chaosMemQueries))
	for i, q := range chaosMemQueries {
		out[i] = mustRows(t, coord, q)
	}
	return out
}

// TestChaosMemoryPressure is the headline §XII.C scenario: 8 concurrent
// memory-hungry TPC-H queries against a coordinator whose pool is a fraction
// of their combined working set, with admission capping concurrency at 2 and
// 5% RPC drops layered on top. Every query must complete row-exact (spilling
// under its per-query cap, queueing behind the group) or fail typed; spill
// must actually fire; and afterwards no reservation, queue entry, or spill
// file may survive.
func TestChaosMemoryPressure(t *testing.T) {
	want := chaosMemBaseline(t)
	for _, seed := range ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
		inj := fault.NewInjector(seed)
		// The group's per-query cap reaches the worker tasks too, so the
		// workers need somewhere to spill their partial aggregations.
		coord, workers := chaosCluster(t, chaosCatalogs(t, inj), 3, ChaosConfig(inj),
			func(w *Worker) { w.SpillDir = t.TempDir() })
		spillDir := t.TempDir()
		if err := coord.ConfigureResources(ResourceConfig{
			MemoryLimit: 256 << 10,
			SpillDir:    spillDir,
			OOMKill:     true,
			Groups: []resource.GroupConfig{{
				Name: "chaos", MaxConcurrency: 2, MaxQueued: 16, PerQueryMemory: 48 << 10,
			}},
		}); err != nil {
			t.Fatal(err)
		}
		inj.FaultHTTP(fault.HTTPRule{DropProb: 0.05})

		const concurrent = 8
		errs := make(chan error, concurrent)
		var successes atomic.Int64
		Watchdog(t, 120*time.Second, func() {
			var wg sync.WaitGroup
			for i := 0; i < concurrent; i++ {
				qi := i % len(chaosMemQueries)
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := coord.Query(chaosSession(), chaosMemQueries[qi])
					if err != nil {
						// Typed degradation is an allowed outcome; anything
						// else is a broken ladder.
						if errors.Is(err, resource.ErrQueryKilledOOM) || errors.Is(err, resource.ErrQueueFull) {
							return
						}
						errs <- fmt.Errorf("query %d failed untyped: %w", qi, err)
						return
					}
					rows, err := res.Rows()
					if err != nil {
						errs <- err
						return
					}
					if got := fmt.Sprint(rows); got != want[qi] {
						errs <- fmt.Errorf("query %d rows diverged under memory pressure\ngot  %s\nwant %s", qi, got, want[qi])
						return
					}
					successes.Add(1)
				}()
			}
			wg.Wait()
		})
		close(errs)
		for err := range errs {
			t.Errorf("seed %d: %v", seed, err)
		}
		if successes.Load() == 0 {
			t.Errorf("seed %d: no query succeeded — the ladder degraded straight to the bottom", seed)
		}
		if n := counter(coord, "spills"); n < 1 {
			t.Errorf("seed %d: spills = %d, want >= 1 (the pressure never reached the spill rung)", seed, n)
		}
		// Satellite (b): no spill file outlives its query.
		if runs := coord.res.spill.LiveRuns(); len(runs) != 0 {
			t.Errorf("seed %d: leaked coordinator spill runs: %v", seed, runs)
		}
		for _, w := range workers {
			if runs := w.spill.LiveRuns(); len(runs) != 0 {
				t.Errorf("seed %d: worker %s leaked spill runs: %v", seed, w.Addr(), runs)
			}
		}
		entries, err := os.ReadDir(spillDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("seed %d: spill dir holds %d files after all queries finished", seed, len(entries))
		}
		snap := coord.Obs().Snapshot()
		if g := snap.Gauges["pool_reserved_bytes"]; g != 0 {
			t.Errorf("seed %d: pool_reserved_bytes = %v after all queries finished", seed, g)
		}
		if g := snap.Gauges["queue_depth"]; g != 0 {
			t.Errorf("seed %d: queue_depth = %v after all queries finished", seed, g)
		}
	}
}

// TestChaosOOMKillerUnderOverload: spill disabled, OOM killer on, and a pool
// one sort fits but two concurrent sorts cannot share. Queries must drain —
// each either exact or typed (killed by the OOM killer, or cleanly refused
// with Insufficient Resources) — the killer must actually fire, at least one
// query per burst must complete (the rung's purpose: kill one so the rest
// finish), and the pool must return to zero so the next workload starts
// clean.
func TestChaosOOMKillerUnderOverload(t *testing.T) {
	want := chaosMemBaseline(t)
	// The pool is sized from one sort's peak, measured uncapped.
	clean, _ := chaosCluster(t, chaosCatalogs(t, nil), 3, ClientConfig{})
	mustRows(t, clean, chaosMemQueries[0])
	peak := clean.QueryInfos()[0].PeakMemoryBytes
	for _, seed := range ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
		inj := fault.NewInjector(seed)
		coord, workers := chaosCluster(t, chaosCatalogs(t, inj), 3, ChaosConfig(inj))
		if err := coord.ConfigureResources(ResourceConfig{
			MemoryLimit: peak + peak/4, // one sort fits, two do not
			OOMKill:     true,
			Groups: []resource.GroupConfig{{
				Name: "chaos", MaxConcurrency: 2, MaxQueued: 16,
			}},
		}); err != nil {
			t.Fatal(err)
		}

		// Same contract as ever — one round of four sorts, the killer must
		// fire — but every request for task output (the task POSTs, which
		// carry it) takes 5 ms, and the one to the worker whose task the root
		// reads last 20 ms more, so the two admitted sorts are both holding
		// pages while they wait. Without it a 7 ms sort can finish before the
		// other gets a core (one run in four beside a CPU burner on the
		// 2-core host, 0 of 150 with it).
		last := workers[0].Addr()
		for _, w := range workers {
			last = max(last, w.Addr()) // tasks are placed, and read, in address order
		}
		inj.FaultHTTP(fault.HTTPRule{Path: "/v1/task", DelayProb: 1, Delay: 5 * time.Millisecond})
		inj.FaultHTTP(fault.HTTPRule{Target: last, Path: "/v1/task", DelayProb: 1, Delay: 20 * time.Millisecond})
		const concurrent = 4
		errs := make(chan error, concurrent)
		var completed atomic.Int64
		Watchdog(t, 120*time.Second, func() {
			var wg sync.WaitGroup
			for i := 0; i < concurrent; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := coord.Query(chaosSession(), chaosMemQueries[0])
					if err != nil {
						var insufficient execution.ErrInsufficientResources
						if errors.Is(err, resource.ErrQueryKilledOOM) || errors.As(err, &insufficient) {
							return
						}
						errs <- fmt.Errorf("untyped failure: %w", err)
						return
					}
					rows, err := res.Rows()
					if err != nil {
						errs <- err
						return
					}
					if got := fmt.Sprint(rows); got != want[0] {
						errs <- fmt.Errorf("rows diverged under OOM pressure\ngot  %s\nwant %s", got, want[0])
						return
					}
					completed.Add(1)
				}()
			}
			wg.Wait()
		})
		close(errs)
		for err := range errs {
			t.Errorf("seed %d: %v", seed, err)
		}
		if n := counter(coord, "oom_kills"); n < 1 {
			t.Errorf("seed %d: oom_kills = %d, want >= 1 (overload never reached the killer)", seed, n)
		}
		t.Logf("seed %d: pool %d B, %d of %d completed, oom_kills %d", seed, peak+peak/4, completed.Load(), concurrent, counter(coord, "oom_kills"))
		if completed.Load() == 0 {
			t.Errorf("seed %d: no query completed — the killer left no room for the rest", seed)
		}
		if g := coord.Obs().Snapshot().Gauges["pool_reserved_bytes"]; g != 0 {
			t.Errorf("seed %d: pool_reserved_bytes = %v after the overload drained", seed, g)
		}
	}
}

// TestChaosAdmissionRejects: a one-slot, one-queue-entry group hit by 6
// simultaneous queries. Some run (exact rows), some queue, the rest get the
// typed queue-full rejection; afterwards the queue is empty and the group
// usable.
func TestChaosAdmissionRejects(t *testing.T) {
	want := chaosMemBaseline(t)
	for _, seed := range ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
		inj := fault.NewInjector(seed)
		coord, _ := chaosCluster(t, chaosCatalogs(t, inj), 3, ChaosConfig(inj))
		if err := coord.ConfigureResources(ResourceConfig{
			Groups: []resource.GroupConfig{{Name: "adhoc", MaxConcurrency: 1, MaxQueued: 1}},
		}); err != nil {
			t.Fatal(err)
		}

		const concurrent = 6
		errs := make(chan error, concurrent)
		var successes, rejects atomic.Int64
		Watchdog(t, 120*time.Second, func() {
			var wg sync.WaitGroup
			for i := 0; i < concurrent; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := coord.Query(chaosSession(), chaosMemQueries[0])
					if err != nil {
						if errors.Is(err, resource.ErrQueueFull) {
							rejects.Add(1)
							return
						}
						errs <- fmt.Errorf("untyped failure: %w", err)
						return
					}
					rows, err := res.Rows()
					if err != nil {
						errs <- err
						return
					}
					if got := fmt.Sprint(rows); got != want[0] {
						errs <- fmt.Errorf("admitted query diverged\ngot  %s\nwant %s", got, want[0])
						return
					}
					successes.Add(1)
				}()
			}
			wg.Wait()
		})
		close(errs)
		for err := range errs {
			t.Errorf("seed %d: %v", seed, err)
		}
		if successes.Load() < 1 {
			t.Errorf("seed %d: no query was admitted", seed)
		}
		if rejects.Load() < 1 {
			t.Errorf("seed %d: no query was rejected — 6 submissions fit a 1+1 group?", seed)
		}
		if n := counter(coord, "admission_rejects"); n != rejects.Load() {
			t.Errorf("seed %d: admission_rejects = %d, want %d", seed, n, rejects.Load())
		}
		if g := coord.Obs().Snapshot().Gauges["queue_depth"]; g != 0 {
			t.Errorf("seed %d: queue_depth = %v after the burst drained", seed, g)
		}
	}
}

// TestChaosWorkerSpillCleanup: workers run with their own tiny pools and
// spill dirs, so the partial aggregation spills on the workers themselves.
// Rows stay exact, worker-side spill fires, and worker shutdown removes every
// scratch file (satellite b at the worker layer).
func TestChaosWorkerSpillCleanup(t *testing.T) {
	want := chaosMemBaseline(t)
	for _, seed := range ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
		inj := fault.NewInjector(seed)
		var dirs []string
		coord, workers := chaosCluster(t, chaosCatalogs(t, inj), 3, ChaosConfig(inj), func(w *Worker) {
			w.MemoryLimit = 32 << 10
			w.SpillDir = t.TempDir()
			dirs = append(dirs, w.SpillDir)
		})

		Watchdog(t, 60*time.Second, func() {
			if got := mustRows(t, coord, chaosMemQueries[1]); got != want[1] {
				t.Errorf("seed %d: rows diverged with worker-side spill\ngot  %s\nwant %s", seed, got, want[1])
			}
		})
		spilled := false
		for _, w := range workers {
			if w.Obs.Snapshot().Counters["spills"] > 0 {
				spilled = true
			}
			if runs := w.spill.LiveRuns(); len(runs) != 0 {
				t.Errorf("seed %d: worker %s leaked spill runs: %v", seed, w.Addr(), runs)
			}
			w.Close()
		}
		if !spilled {
			t.Errorf("seed %d: no worker ever spilled — the worker pools never saw pressure", seed)
		}
		for _, dir := range dirs {
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				t.Errorf("seed %d: worker spill dir %s holds %d files after shutdown", seed, dir, len(entries))
			}
		}
	}
}
