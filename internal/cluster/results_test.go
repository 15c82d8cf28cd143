package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/core"
	"prestolite/internal/druid"
	"prestolite/internal/fault"
	"prestolite/internal/obs"
	"prestolite/internal/types"
)

// roundTripperFunc adapts a function to http.RoundTripper.
type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// decodeFrames decodes fetched or drained page frames.
func decodeFrames(t *testing.T, frames [][]byte) []*block.Page {
	t.Helper()
	pages, err := block.DecodePages(frames)
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

// envOnly is the envelope of a resultsEnvelope answer.
func envOnly(env block.Envelope, _ bool) block.Envelope { return env }

// envelopeBytes is what env writes.
func envelopeBytes(t *testing.T, env block.Envelope) []byte {
	t.Helper()
	var body bytes.Buffer
	if _, err := env.WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// TestResultsServeManyPagesUpToTheByteCap: one GET answers with every
// published frame from the requested index on, up to resultsByteCap — and with
// one frame when that one alone is larger — so a task's output costs a round
// trip per MiB, not per page; the pages arrive in order and unchanged, and
// the operator stats ride on the last response only.
func TestResultsServeManyPagesUpToTheByteCap(t *testing.T) {
	const rows = 50_000 // one bigint column: ~400 KB a frame
	w := NewWorker(newCatalogs(t))
	if err := w.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	task := newWorkerTask()
	task.stats.Register(0, nil)
	var frames [][]byte
	for p, n := range []int{rows, rows, rows, rows, rows, 4 * rows, 1} { // the sixth is over the cap by itself
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(p*rows + i)
		}
		data, err := block.EncodePage(block.NewPage(&block.Int64Block{Values: vals}))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, data)
	}
	task.finish(frames, nil)
	w.mu.Lock()
	w.tasks["t0"] = task
	w.mu.Unlock()

	var gets atomic.Int64
	coord := NewCoordinatorWithConfig(newCatalogs(t), ClientConfig{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		gets.Add(1)
		return http.DefaultTransport.RoundTrip(r)
	})})
	th := &taskHandle{worker: &workerClient{addr: w.Addr(), http: coord.cfg.workerHTTPClient()}, taskID: "t0"}

	first, err := th.fetchResults(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.frames) != 2 || first.Done || first.Stats != nil {
		t.Errorf("GET page=0: %d pages, done=%v, stats=%v; want the 2 frames that fit %d bytes, not done, no stats", len(first.frames), first.Done, first.Stats, resultsByteCap)
	}
	if big, err := th.fetchResults(5); err != nil || len(big.frames) != 1 || decodeFrames(t, big.frames)[0].Count() != 4*rows {
		t.Errorf("GET page=5 (one frame over the cap): %d pages, err %v; want that frame alone", len(big.frames), err)
	}
	if end, err := th.fetchResults(7); err != nil || len(end.frames) != 0 || !end.Done {
		t.Errorf("GET page=7 (past the end of a finished task): %+v, err %v; want done and empty", end.resultsHeader, err)
	}

	gets.Store(0)
	drained, err := coord.drainOnce(nil, th)
	if err != nil {
		t.Fatal(err)
	}
	pages := decodeFrames(t, drained)
	if len(pages) != len(frames) {
		t.Fatalf("drained %d pages, want %d", len(pages), len(frames))
	}
	for p, page := range pages {
		if got := page.Blocks[0].Value(page.Count() - 1); got != int64(p*rows+page.Count()-1) {
			t.Errorf("page %d ends in %v: out of order or damaged", p, got)
		}
	}
	if got := gets.Load(); got != 5 { // {0,1} {2,3} {4} {5} {6, done}
		t.Errorf("draining %d frames took %d GETs, want 5", len(frames), got)
	}
	if !th.answered() || th.stats == nil {
		t.Error("the operator stats did not arrive with the last pages")
	}
}

// TestChaosCorruptedResultsAreRejected: one byte of one worker's first K
// responses carrying task output (the task POST's answer, then the GETs that
// read it again) is flipped in flight. Every one of them must be refused — a
// checksum covers each byte of the response — and take the ordinary
// retry → reschedule path, so the query is row-exact against the embedded
// engine (or fails typed): a damaged POST answer is read again with GET
// ?page=0. Before pages were framed a flip inside an int64 or float64 buffer
// decoded into a different number and was served.
func TestChaosCorruptedResultsAreRejected(t *testing.T) {
	embedded := core.New()
	reg := chaosCatalogs(t, nil)
	conn, err := reg.Get("hive")
	if err != nil {
		t.Fatal(err)
	}
	embedded.Register("hive", conn)
	want := make([]string, len(chaosQueries))
	for i, q := range chaosQueries {
		res, err := embedded.Query(chaosSession(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(res.Rows())
	}
	for _, seed := range ChaosSeeds(t) {
		for _, k := range []int64{1, 3, 9} { // a retry suffices; the last attempt succeeds; tasks are rescheduled
			t.Logf("chaos seed %d, first %d responses corrupted (re-run with CHAOS_SEED=%d)", seed, k, seed)
			inj := fault.NewInjector(seed)
			cfg := ChaosConfig(inj)
			var victim atomic.Value // the faulted worker's address, once chosen
			var left atomic.Int64
			faulty := cfg.Transport
			cfg.Transport = roundTripperFunc(func(r *http.Request) (*http.Response, error) {
				output := r.URL.Path == "/v1/task" || strings.HasSuffix(r.URL.Path, "/results")
				if r.URL.Host == victim.Load() && output && left.Add(-1) >= 0 {
					return faulty.RoundTrip(r)
				}
				return http.DefaultTransport.RoundTrip(r)
			})
			coord, workers := chaosCluster(t, chaosCatalogs(t, inj), 3, cfg)
			mustRows(t, coord, chaosQueries[0]) // a clean pass, so busiestWorker has something to read
			addr := busiestWorker(workers).Addr()
			inj.FaultHTTP(fault.HTTPRule{Target: addr, Path: "/v1/task", CorruptProb: 1})
			left.Store(k)
			victim.Store(addr)

			Watchdog(t, 60*time.Second, func() {
				for i, q := range chaosQueries {
					res, err := coord.Query(chaosSession(), q)
					if err != nil {
						if !isUnavailable(err) {
							t.Errorf("seed %d k %d query %d: untyped failure: %v", seed, k, i, err)
						}
						continue
					}
					rows, err := res.Rows()
					if err != nil {
						t.Fatal(err)
					}
					if got := fmt.Sprint(rows); got != want[i] {
						t.Errorf("seed %d k %d query %d: rows diverged from the embedded engine\ngot  %s\nwant %s", seed, k, i, got, want[i])
					}
				}
			})
			corrupted := inj.Counters.Corrupted.Load()
			if corrupted != k {
				t.Errorf("seed %d: %d responses corrupted, want %d: the fault did not fire as set up", seed, corrupted, k)
			}
			// Each refused response is one failed fetch attempt, and a failed
			// attempt is followed by an RPC retry or, after the last, by a
			// reschedule of the task.
			if refused := counter(coord, "rpc_retries") + counter(coord, "task_retries"); refused != corrupted {
				t.Errorf("seed %d k %d: %d corrupted responses but %d refused (rpc_retries %d + task_retries %d)",
					seed, k, corrupted, refused, counter(coord, "rpc_retries"), counter(coord, "task_retries"))
			}
			// One damaged answer is read again from the same worker.
			if n := counter(coord, "task_retries"); k == 1 && n != 0 {
				t.Errorf("seed %d: one damaged answer cost %d reschedules, want a re-read and none", seed, n)
			}
		}
	}
}

// TestConcurrentIdenticalTasksShareFrames: with the fragment result cache on,
// two tasks over the same fragment and splits are served the same cached
// output at the same time. What they share is immutable encoded frames whose
// lazy columns were loaded when the first task published them; it used to be
// unloaded pages, loaded by whichever results handler came first under two
// different task locks. Meant for -race.
func TestConcurrentIdenticalTasksShareFrames(t *testing.T) {
	reg, _, _ := lazyColumnCatalogs(t, nil)
	frag, splits := sourceFragment(t, reg, "SELECT v FROM t WHERE k >= 0")
	w := NewWorker(reg)
	w.EnableFragmentResultCache = true
	if err := w.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	req := TaskRequest{TaskID: "warm", Fragment: frag.Root, TableKey: frag.TableKey, Splits: splits, Drivers: 2}
	warm := newWorkerTask()
	w.runTask(&req, nil, warm) // fills the cache; nobody fetches it
	if warm.err != nil {
		t.Fatal(warm.err)
	}
	var size int64
	for _, f := range warm.frames {
		size += int64(len(f))
	}
	if got := w.fragCache.Metrics.Bytes.Load(); got != size || size == 0 {
		t.Errorf("the cache charges %d bytes for an entry of %d frame bytes", got, size)
	}

	coord := NewCoordinator(reg)
	wc := &workerClient{addr: w.Addr(), http: coord.cfg.workerHTTPClient()}
	rows := make([]int, 4)
	var wg sync.WaitGroup
	for i := range rows {
		req.TaskID = fmt.Sprintf("t%d", i)
		th, err := wc.startTask(req)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frames, err := coord.drainOnce(nil, th)
			if err != nil {
				t.Error(err)
			}
			pages, err := block.DecodePages(frames)
			if err != nil {
				t.Error(err)
			}
			for _, p := range pages {
				rows[i] += p.Count()
				_ = p.Row(p.Count() - 1)
			}
		}(i)
	}
	wg.Wait()
	for i, n := range rows {
		if n != 256 {
			t.Errorf("task t%d returned %d rows, want 256", i, n)
		}
	}
	if hits := w.FragmentCacheHits.Load(); hits != int64(len(rows)) {
		t.Errorf("fragment cache hits = %d, want %d", hits, len(rows))
	}
}

// StartGateway starts a gateway that routes every statement to the
// coordinator at addr and returns the gateway's address. The gateway package
// imports this one, so the external test package, which may import both,
// sets it.
var StartGateway func(t *testing.T, coordinator string) (addr string)

// TestDamagedResponsesAreErrorsAtEveryHop: the three responses that carry
// pages — a task's results to the coordinator, a broker's answer to the druid
// connector, a statement's answer to the client, directly or relayed by a
// gateway — are one envelope, and at each hop every truncation and every
// flipped byte of it is an error: never a shorter result, never other values.
func TestDamagedResponsesAreErrorsAtEveryHop(t *testing.T) {
	// serving returns a check that serves the body it is given to every
	// request (and, as an idle coordinator does, an empty stats document)
	// and reads it back through the hop's own client.
	serving := func(read func(addr string) (rows int, err error)) func([]byte) (int, error) {
		var body atomic.Pointer[[]byte]
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/stats" {
				_, _ = io.WriteString(w, `{"Gauges":{}}`)
				return
			}
			_, _ = w.Write(*body.Load())
		}))
		t.Cleanup(srv.Close)
		return func(b []byte) (int, error) {
			body.Store(&b)
			return read(strings.TrimPrefix(srv.URL, "http://"))
		}
	}
	post := func(url string, doc []byte) []byte {
		t.Helper()
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %s, %v", url, resp.Status, err)
		}
		return body
	}

	coord, _ := newCluster(t, newCatalogs(t), 2)
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	statement := StatementRequest{Query: "SELECT city_id, fare FROM trips", Catalog: "hive", Schema: "rawdata", User: "test"}

	store := druid.NewStore()
	events, err := store.CreateTable("events", []druid.Column{{Name: "country", Type: types.Varchar}, {Name: "clicks", Type: types.Bigint}})
	if err != nil {
		t.Fatal(err)
	}
	if err := events.Ingest([][]any{{"us", int64(10)}, {"de", int64(5)}, {nil, int64(1)}}); err != nil {
		t.Fatal(err)
	}
	broker := druid.NewServer(store)
	if err := broker.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { broker.Close() })
	query := druid.Query{Table: "events", Columns: []string{"country", "clicks"}}

	frame, err := block.EncodePage(block.NewPage(&block.Int64Block{Values: []int64{1, 2, 3}}))
	if err != nil {
		t.Fatal(err)
	}

	// A statement's answer, read at the URL url gives for the address of the
	// server that serves it: that server itself, or a gateway in front of it.
	answer := post("http://"+coord.Addr()+"/v1/statement", statement.encode())
	readAnswer := func(url func(addr string) string) func(addr string) (int, error) {
		return func(addr string) (int, error) {
			res, err := PostStatement(nil, url(addr), statement, "test", "", "")
			if err != nil {
				return 0, err
			}
			rows, err := res.Rows()
			return len(rows), err
		}
	}
	if StartGateway == nil {
		t.Fatal("StartGateway is not set")
	}
	var gateway string // in front of the one server the gateway hop serves from
	gateways := func(addr string) string {
		if gateway == "" {
			gateway = StartGateway(t, addr)
		}
		return gateway
	}

	for _, hop := range []struct {
		name string
		body []byte
		rows int
		read func([]byte) (int, error)
	}{
		{"worker to coordinator", envelopeBytes(t, envOnly(resultsEnvelope([][]byte{frame, frame}, 0, true, nil, obs.NewTaskStats()))), 6,
			func(b []byte) (int, error) {
				res, err := readResults(b, 0)
				if err != nil {
					return 0, err
				}
				pages, err := block.DecodePages(res.frames)
				n := 0
				for _, p := range pages {
					n += p.Count()
				}
				return n, err
			}},
		{"broker to connector", post("http://"+broker.Addr()+"/druid/v2/query", druid.AppendQuery(nil, query)), 3,
			serving(func(addr string) (int, error) {
				res, err := druid.NewHTTPClient(addr).Execute(query)
				if err != nil {
					return 0, err
				}
				n := 0
				for _, p := range res.Pages {
					n += p.Count()
				}
				return n, nil
			})},
		{"coordinator to client", answer, 80, serving(readAnswer(func(addr string) string { return "http://" + addr + "/v1/statement" }))},
		{"gateway to client", answer, 80, serving(readAnswer(func(addr string) string { return "http://" + gateways(addr) + "/v1/execute" }))},
	} {
		t.Run(hop.name, func(t *testing.T) {
			if n, err := hop.read(hop.body); err != nil || n != hop.rows {
				t.Fatalf("the undamaged response: %d rows, %v; want %d", n, err, hop.rows)
			}
			for cut := 0; cut < len(hop.body); cut++ {
				if n, err := hop.read(hop.body[:cut]); err == nil {
					t.Fatalf("cut to %d of %d bytes: accepted as %d rows", cut, len(hop.body), n)
				}
			}
			for i := range hop.body {
				damaged := bytes.Clone(hop.body)
				damaged[i] ^= 0x10
				if n, err := hop.read(damaged); err == nil {
					t.Fatalf("byte %d of %d flipped: accepted as %d rows", i, len(hop.body), n)
				}
			}
			if n, err := hop.read(append(bytes.Clone(hop.body), 0)); err == nil {
				t.Fatalf("a trailing byte: accepted as %d rows", n)
			}
		})
	}
}

// heldClock is real time, except that After never fires: a results request
// on a worker running on it waits for its task and for nothing else.
type heldClock struct{ fault.RealClock }

func (heldClock) After(time.Duration) <-chan time.Time { return nil }

// TestResultsFetchWaitsForTheTask: a results request for an unfinished task
// is held on the worker until the task is done, so draining a task costs one
// GET however long it runs; at resultsWait the worker answers "nothing yet";
// and a DELETE of the task, or the worker's Close, ends the wait at once.
func TestResultsFetchWaitsForTheTask(t *testing.T) {
	held := NewWorker(newCatalogs(t))
	held.Clock = heldClock{}
	if err := held.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { held.Close() })
	timed := NewWorker(newCatalogs(t))
	if err := timed.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { timed.Close() })
	add := func(w *Worker, id string) *workerTask {
		task := newWorkerTask()
		w.mu.Lock()
		w.tasks[id] = task
		w.mu.Unlock()
		return task
	}

	var gets atomic.Int64
	sent := make(chan struct{}, 16)
	coord := NewCoordinatorWithConfig(newCatalogs(t), ClientConfig{HedgeDelay: -1, Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		if r.Method == http.MethodGet {
			gets.Add(1)
			select {
			case sent <- struct{}{}:
			default:
			}
		}
		return http.DefaultTransport.RoundTrip(r)
	})})
	handle := func(w *Worker, id string) *taskHandle {
		return &taskHandle{worker: &workerClient{addr: w.Addr(), http: coord.cfg.workerHTTPClient()}, taskID: id}
	}

	// A task that finishes ~50 ms after its first fetch arrives.
	task := add(held, "slow")
	frame, err := block.EncodePage(block.NewPage(&block.Int64Block{Values: []int64{1, 2, 3}}))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-sent
		time.Sleep(50 * time.Millisecond)
		task.finish([][]byte{frame}, nil)
	}()
	drained, err := coord.drainOnce(nil, handle(held, "slow"))
	if err != nil {
		t.Fatal(err)
	}
	if pages := decodeFrames(t, drained); len(pages) != 1 || pages[0].Count() != 3 {
		t.Errorf("drained %d pages, want the task's one page of 3 rows", len(pages))
	}
	if n := gets.Load(); n != 1 {
		t.Errorf("draining a task that finished while its fetch waited took %d results GETs, want 1", n)
	}

	// A task that never finishes is answered at the bound, with nothing.
	add(timed, "stuck")
	start := time.Now()
	res, err := handle(timed, "stuck").fetchResults(0)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < resultsWait {
		t.Errorf("the fetch of an unfinished task returned after %v, before the %v bound", waited, resultsWait)
	}
	if res.Done || len(res.frames) != 0 {
		t.Errorf("answer at the bound: done=%v with %d pages, want not done and no pages", res.Done, len(res.frames))
	}

	// A DELETE, then the worker's Close, during the wait. On the held clock
	// nothing else would end it before the client's timeout.
	for _, end := range []struct {
		name string
		fn   func()
	}{
		{"DELETE", func() { handle(held, "DELETE").delete() }},
		{"Close", func() { held.Close() }},
	} {
		add(held, end.name)
		for len(sent) > 0 {
			<-sent
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = handle(held, end.name).fetchResults(0) // the answer, or the error of a closed worker
		}()
		<-sent
		time.Sleep(20 * time.Millisecond) // let the request reach its wait
		end.fn()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("a %s during the wait did not end it", end.name)
		}
	}
}
