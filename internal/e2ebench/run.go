package e2ebench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prestolite/internal/cluster"
	"prestolite/internal/planner"
)

// Config selects one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	// Window is the measured window. The same traffic runs for Warmup(Window)
	// before it and is discarded.
	Window time.Duration
	// EndToEnd and Layers choose the metric sets to produce. Layers adds the
	// counter snapshots around the window and, after it, the workload's
	// side phases and the traced pass.
	EndToEnd bool
	Layers   bool
	// Tiny shrinks every dataset, and builds the stack once instead of three
	// times, for tests.
	Tiny bool
	// TmpDir holds the realtime workload's write-ahead log.
	TmpDir string
	// Spans, when set, receives the traced pass's spans.
	Spans *SpanRecorder
}

// Report is the outcome of one run.
type Report struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	// Errors are the first few failures, and Notes what a reader must know
	// before trusting the numbers, for the human-readable output.
	Errors   []string
	Notes    []string
	EndToEnd map[string]Metric
	PerLayer map[string]Metric
}

// Workloads lists the workload names in their reporting order.
var Workloads = []string{"adhoc_scan_agg", "adhoc_join", "dashboard_repeat", "realtime_hybrid"}

// scenario is a built workload: a live stack, the statement stream and the
// oracle, plus optional hooks for workloads that do more than query.
type scenario struct {
	stack   *stack
	stream  Stream
	catalog string
	schema  string
	// prepare does untimed work after set-up (oracle precomputation).
	prepare func() error
	// begin is called once, when traffic starts, with the measured window's
	// bounds; realtime_hybrid starts its paced producer here.
	begin func(from, to time.Time) error
	// before runs ahead of request i, outside its timed section.
	before func(i int64) error
	// verify checks one response. client identifies the issuing goroutine.
	verify func(client int, st Statement, res *cluster.QueryResult, issued, done time.Time) error
	// settle runs after the window in every run: a last correctness check
	// that needs the traffic to have stopped. Its failure is a failed request.
	settle func(r *runner) error
	// finish runs last in a Layers run, after the traced pass: side phases
	// and the workload's own per-layer metrics.
	finish func(r *runner, ms *metricSet) error
	// traced lists the statements of one traced pass.
	traced func(pass int) []Statement
}

func (sc *scenario) session() *planner.Session {
	return &planner.Session{Catalog: sc.catalog, Schema: sc.schema, User: benchUser, Properties: map[string]string{}}
}

func (sc *scenario) request(st Statement) cluster.StatementRequest {
	return cluster.StatementRequest{Query: st.SQL, Catalog: sc.catalog, Schema: sc.schema, User: benchUser}
}

const benchUser = "e2ebench"

var builders = map[string]func(cfg Config) (*scenario, error){
	"adhoc_scan_agg":   buildScanAgg,
	"adhoc_join":       buildJoin,
	"dashboard_repeat": buildDashboard,
	"realtime_hybrid":  buildRealtime,
}

// sample is one completed request of the measured window.
type sample struct {
	latency time.Duration
	bytes   int
	err     error
}

// Warmup is how long traffic runs before a measured window of the given
// length: 3 s before the benchmark's 20 s. It is short on purpose — the
// driver's time cap pays for it on every run — and caches and lazy set-up
// settle well inside it (every template runs at least a few times).
func Warmup(window time.Duration) time.Duration { return window * 3 / 20 }

// Clients is the number of closed-loop clients, one goroutine and one HTTP
// connection each: dashboards, BI tools and services each wait for their
// reply, and one process must not offer more load than the host has cores.
func Clients() int { return min(runtime.NumCPU(), 4) }

// setupRepeats is how many times data and stack are built; setup_s is the
// median and the last build is the one measured. A build takes 0.04-0.4 s
// and the first one in a process runs on a cold heap, so five cost little
// and steady the median.
const setupRepeats = 5

// runner drives one scenario's closed loop.
type runner struct {
	cfg   Config
	sc    *scenario
	next  atomic.Int64
	notes []string
}

// Run builds the workload, warms it up, measures it for cfg.Window and
// returns every requested metric. A wrong answer is a failed request, not an
// error; an error means the benchmark itself could not run.
func Run(cfg Config) (*Report, error) {
	build, ok := builders[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("e2ebench: unknown workload %q (have %v)", cfg.Workload, Workloads)
	}
	repeats := setupRepeats
	if cfg.Tiny {
		repeats = 1
	}
	var setups []float64
	var sc *scenario
	for i := 0; i < repeats; i++ {
		if sc != nil {
			sc.stack.close()
		}
		start := time.Now()
		var err error
		if sc, err = build(cfg); err != nil {
			return nil, fmt.Errorf("e2ebench: building %s: %w", cfg.Workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sc.stack.close()
	if sc.prepare != nil {
		if err := sc.prepare(); err != nil {
			return nil, fmt.Errorf("e2ebench: preparing %s: %w", cfg.Workload, err)
		}
	}

	r := &runner{cfg: cfg, sc: sc}
	from := time.Now().Add(Warmup(cfg.Window))
	to := from.Add(cfg.Window)
	if sc.begin != nil {
		if err := sc.begin(from, to); err != nil {
			return nil, err
		}
	}
	var before, after map[string]float64
	var procBefore, procAfter processStats
	var heap *heapSampler
	var snaps sync.WaitGroup
	if cfg.Layers {
		// The two snapshots bracket the window from a goroutine of their own;
		// they read atomics and copy registries, nothing the clients wait on.
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			time.Sleep(time.Until(from))
			before, procBefore = sc.stack.snapshot(), readProcess()
			heap = startHeapSampler()
			time.Sleep(time.Until(to))
			after, procAfter = sc.stack.snapshot(), readProcess()
			heap.stop()
		}()
	}
	samples, err := r.load(from, func() bool { return !time.Now().Before(to) })
	snaps.Wait()
	if err != nil {
		return nil, err
	}

	rep := &Report{Workload: cfg.Workload, Attempted: len(samples)}
	var latencies []float64
	var resultBytes float64
	for _, s := range samples {
		if s.err != nil {
			rep.Failed++
			if len(rep.Errors) < 5 {
				rep.Errors = append(rep.Errors, s.err.Error())
			}
			continue
		}
		latencies = append(latencies, float64(s.latency)/1e6)
		resultBytes += float64(s.bytes)
	}
	if sc.settle != nil {
		rep.Attempted++
		if err := sc.settle(r); err != nil {
			rep.Failed++
			rep.Errors = append(rep.Errors, err.Error())
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	sort.Float64s(latencies)
	ok64 := float64(len(latencies))

	if cfg.EndToEnd {
		ms := newMetricSet(EndToEnd)
		ms.setN("setup_s", median(setups), len(setups))
		ms.setN("qps", ok64/cfg.Window.Seconds(), len(latencies))
		ms.setN("query_p50_ms", percentile(latencies, 0.50), len(latencies))
		ms.setN("query_p95_ms", percentile(latencies, 0.95), len(latencies))
		rep.EndToEnd = ms.values
	}
	if cfg.Layers {
		ms := newMetricSet(PerLayer)
		if len(latencies) >= 1000 {
			ms.setN("query_p99_ms", percentile(latencies, 0.99), len(latencies))
		}
		ms.set("failed_share", ratio(float64(rep.Failed), float64(rep.Attempted)))
		ms.set("cluster.result_bytes_per_query", ratio(resultBytes, ok64))
		windowMetrics(ms, sc.stack, before, after, procBefore, procAfter, heap.peak())
		if err := tracedPass(r, ms); err != nil {
			return nil, err
		}
		if sc.finish != nil {
			if err := sc.finish(r, ms); err != nil {
				return nil, err
			}
		}
		rep.PerLayer = ms.values
	}
	rep.Notes = r.notes
	return rep, nil
}

// load runs the closed loop from now until done reports true (the realtime
// burst phase ends on a drained log, not on a clock) and returns the samples
// of requests issued at or after from and completed before done. Requests
// before from are warm-up: verified, but a failure there aborts the run
// instead of being counted, so a measured window never starts on a broken
// stack.
func (r *runner) load(from time.Time, done func() bool) ([]sample, error) {
	perClient := make([][]sample, Clients())
	errs := make([]error, len(perClient))
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			perClient[c], errs[c] = r.client(c, from, done)
		}(c)
	}
	wg.Wait()
	var all []sample
	for c := range perClient {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all = append(all, perClient[c]...)
	}
	return all, nil
}

func (r *runner) client(c int, from time.Time, done func() bool) ([]sample, error) {
	sc := r.sc
	cl := sc.stack.newClient()
	defer cl.HTTP.CloseIdleConnections()
	var out []sample
	for !done() {
		i := r.next.Add(1) - 1
		st := sc.stream(i)
		if sc.before != nil {
			if err := sc.before(i); err != nil {
				return nil, err
			}
		}
		issued := time.Now()
		res, err := cl.ExecuteSession(sc.request(st), benchUser, "", st.Session)
		finished := time.Now()
		s := sample{latency: finished.Sub(issued)}
		if err == nil {
			for _, p := range res.Pages {
				s.bytes += len(p)
			}
			err = sc.verify(c, st, res, issued, finished)
		}
		if err != nil {
			s.err = fmt.Errorf("%s: %w", shortSQL(st.SQL), err)
		}
		switch {
		case finished.Before(from):
			if s.err != nil {
				return nil, fmt.Errorf("e2ebench: warm-up request failed: %w", s.err)
			}
		case issued.Before(from) || done():
			// Straddles a window edge: belongs to neither side.
		default:
			out = append(out, s)
		}
	}
	return out, nil
}
