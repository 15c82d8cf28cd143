// Package cluster_test holds the rolling-restart lifecycle chaos suite (run
// via `make chaos-lifecycle`). It lives in an external test package because
// the scenario spans the whole stack — durable ingest, two clusters, and the
// gateway's resubmission path — and the gateway package imports cluster.
package cluster_test

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	"prestolite/internal/druid"
	"prestolite/internal/fault"
	"prestolite/internal/fsys"
	"prestolite/internal/gateway"
	"prestolite/internal/ingest"
)

// The scenario: a continuous per-record-acked producer streams events into a
// WAL-backed durable log feeding druid, while hybrid count/sum queries run
// through the gateway's proxying /v1/execute endpoint — and meanwhile the
// ingest process is SIGKILL-restarted (writer killed, log abandoned without
// Close, recovered from the WAL) and each coordinator in turn is gracefully
// drained and replaced. The contract:
//
//   - zero acked-event loss: every Send that returned nil is in the final
//     table exactly once, across every restart;
//   - queries never see a count decrease or a duplicate-inflated count, and
//     either succeed or fail with a clean error — never a hang;
//   - freshness recovers after each restart: a marker event becomes
//     queryable through the gateway within the 5s SLA.
const (
	lcHistRows = 300
	lcBatch    = 250 // events streamed between lifecycle events
	lcSLA      = 5 * time.Second
)

// startLifecycleCoordinator starts a coordinator serving HTTP over the given
// (already running) workers.
func startLifecycleCoordinator(t *testing.T, catalogs *connector.Registry, workers []*cluster.Worker) *cluster.Coordinator {
	t.Helper()
	coord := cluster.NewCoordinatorWithConfig(catalogs, cluster.ChaosConfig(nil))
	coord.DrainGrace = 3 * time.Second
	for _, w := range workers {
		coord.AddWorker(w.Addr())
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

func startLifecycleWorkers(t *testing.T, catalogs *connector.Registry, n int) []*cluster.Worker {
	t.Helper()
	var workers []*cluster.Worker
	for i := 0; i < n; i++ {
		w := cluster.NewWorker(catalogs)
		w.GracePeriod = 20 * time.Millisecond
		if err := w.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers = append(workers, w)
	}
	return workers
}

// lcBroker owns the durable ingest side and can be crash-restarted: the
// writer is killed, the old Log (and its open WAL handles) abandoned without
// Close — the simulated SIGKILL — and a fresh Log recovered from the same
// directory.
type lcBroker struct {
	t     *testing.T
	fs    fsys.FileSystem
	table *druid.Table

	mu       sync.Mutex
	log      *ingest.Log
	topic    *ingest.Topic
	writer   *ingest.SegmentWriter
	producer *ingest.Producer
}

func newLCBroker(t *testing.T, fs fsys.FileSystem, table *druid.Table) *lcBroker {
	b := &lcBroker{t: t, fs: fs, table: table}
	b.boot(2)
	return b
}

func (b *lcBroker) boot(partitions int) {
	log, err := ingest.NewDurableLog(b.fs, ingest.WALConfig{})
	if err != nil {
		b.t.Fatalf("durable log: %v", err)
	}
	// The first boot creates the topic; recovery rebuilt it for every later one.
	topic, err := log.Topic(cluster.ChaosEventsTable)
	if err != nil {
		topic, err = log.CreateTopic(cluster.ChaosEventsTable, partitions)
	}
	if err != nil {
		b.t.Fatal(err)
	}
	writer := ingest.NewSegmentWriter(log, topic, b.table, ingest.WriterConfig{
		MaintainEvery: 50 * time.Millisecond,
	})
	writer.Start()
	// BatchRecords 1 + disabled linger: Send appends (and WAL-fsyncs) inline,
	// so a nil return IS the durability ack the zero-loss contract counts.
	producer := ingest.NewProducer(topic, ingest.ProducerConfig{BatchRecords: 1, Linger: -1})
	b.log, b.topic, b.writer, b.producer = log, topic, writer, producer
}

// send acks one event (nil return = durable). Concurrent-safe against
// crashRestart.
func (b *lcBroker) send(key string, eventTime time.Time, row []any) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.producer.Send(key, eventTime, row)
}

func (b *lcBroker) lag() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.Lag(ingest.DefaultWriterGroup, cluster.ChaosEventsTable)
}

func (b *lcBroker) walStats() ingest.WALStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.WAL().Stats()
}

func (b *lcBroker) stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.writer.Stop()
}

// crashRestart is the ingest half of the rolling restart: SIGKILL (no drain,
// no Close — whatever was fetched-but-uncommitted stays uncommitted, open
// WAL files keep their torn state) followed by recovery from the WAL into
// the same druid table, where the source watermark dedups redelivery.
func (b *lcBroker) crashRestart() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.writer.Kill()
	partitions := b.topic.Partitions()
	// The old log and producer are deliberately abandoned un-Closed.
	b.boot(partitions)
}

// lcExecute runs one statement through the gateway's resubmitting endpoint
// and returns the single aggregate value.
func lcExecute(cl *gateway.Client, query string) (int64, error) {
	res, err := cl.Execute(cluster.StatementRequest{
		Query:   query,
		Catalog: "hybrid",
		Schema:  "default",
		User:    "chaos",
	}, "chaos", "")
	if err != nil {
		return 0, err
	}
	rows, err := res.Rows()
	if err != nil {
		return 0, err
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		return 0, fmt.Errorf("want single aggregate value, got %v", rows)
	}
	v, ok := rows[0][0].(int64)
	if !ok {
		return 0, fmt.Errorf("aggregate value %v (%T) is not int64", rows[0][0], rows[0][0])
	}
	return v, nil
}

// TestChaosLifecycleRollingRestart is the PR's headline suite. Per seed it
// streams acked events while (1) crash-restarting the ingest process and
// (2) rolling both coordinators through drain-and-replace, with hybrid
// queries running concurrently through the gateway the whole time. Post
// quiesce the table must be row-exact against the acked set.
func TestChaosLifecycleRollingRestart(t *testing.T) {
	for _, seed := range cluster.ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)

		// One hybrid stack shared by both clusters.
		catalogs, rt := cluster.ChaosEventsCatalogs(t, nil, lcHistRows, druid.SegmentConfig{
			SealRows:         400,
			SealAge:          200 * time.Millisecond,
			CompactBelowRows: 300,
			CompactBatch:     8,
		})
		inj := fault.NewInjector(seed)
		walFS := &fault.FS{Injector: inj, Base: fsys.NewLocal(t.TempDir())}
		broker := newLCBroker(t, walFS, rt)

		workersA := startLifecycleWorkers(t, catalogs, 2)
		workersB := startLifecycleWorkers(t, catalogs, 2)
		coordA := startLifecycleCoordinator(t, catalogs, workersA)
		coordB := startLifecycleCoordinator(t, catalogs, workersB)

		gw, err := gateway.New()
		if err != nil {
			t.Fatal(err)
		}
		gw.LoadTTL = 50 * time.Millisecond
		gw.BreakerCooldown = 100 * time.Millisecond
		if err := gw.AddCluster("a", coordA.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := gw.AddCluster("b", coordB.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := gw.SetRoute("default", "a"); err != nil {
			t.Fatal(err)
		}
		if err := gw.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { gw.Close() })
		cl := gateway.NewClient(gw.Addr())

		var acked atomic.Int64   // events durably acked (Send returned nil)
		var ackedClicks int64    // written by the stream loop only
		var markers atomic.Int64 // freshness probes, ts >= cluster.ChaosEventsBoundary too
		// sending counts the sends under way. An event may be visible before
		// its send returns, so it counts toward the ceiling from the moment
		// its send starts; it leaves sending only after it is counted as
		// acked (or not, if the send failed).
		var sending atomic.Int64
		send := func(key string, eventTime time.Time, row []any, ok *atomic.Int64) error {
			sending.Add(1)
			defer sending.Add(-1)
			err := broker.send(key, eventTime, row)
			if err == nil {
				ok.Add(1)
			}
			return err
		}
		seq := int64(0)

		// streamBatch sends n events, counting only acked ones. A Send may
		// legitimately fail in the crash window (producer replaced mid-call);
		// failed sends are not acked and not owed to the table.
		streamBatch := func(n int) {
			for i := 0; i < n; i++ {
				s := seq
				seq++
				clicks := (s*7 + seed) % 11
				err := send(fmt.Sprintf("k%d", s%17), time.Now(),
					[]any{cluster.ChaosEventsBoundary + s, []string{"us", "de", "jp"}[s%3], clicks}, &acked)
				if err == nil {
					ackedClicks += clicks
				}
			}
		}

		// probeFreshness asserts an acked marker becomes queryable through
		// the gateway within the SLA — the freshness-recovery contract after
		// each lifecycle event.
		probe := int64(0)
		probeFreshness := func(stage string) {
			markerTs := int64(10_000_000) + probe
			probe++
			sent := time.Now()
			for send("marker", sent, []any{markerTs, "marker", int64(1)}, &markers) != nil {
				if time.Since(sent) > lcSLA {
					t.Fatalf("seed %d: %s: marker send not acked within %v", seed, stage, lcSLA)
				}
				time.Sleep(5 * time.Millisecond)
			}
			q := fmt.Sprintf("SELECT count(*) AS n FROM events WHERE ts = %d", markerTs)
			for {
				n, err := lcExecute(cl, q)
				if err == nil && n == 1 {
					break
				}
				if time.Since(sent) > lcSLA {
					t.Fatalf("seed %d: %s: marker %d not queryable after %v (SLA %v, last: n=%d err=%v)",
						seed, stage, markerTs, time.Since(sent), lcSLA, n, err)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}

		// Concurrent query load for the whole scenario: counts must never
		// decrease (monotonic ingest) and never exceed rows acked (no
		// duplicates from WAL redelivery or restarts). Errors must be clean
		// failures; with two clusters and resubmission they should be rare,
		// and are tolerated but tallied.
		stopQueries := make(chan struct{})
		var queryWG sync.WaitGroup
		var queryErrs atomic.Int64
		var querySuccesses atomic.Int64
		for g := 0; g < 2; g++ {
			queryWG.Add(1)
			go func() {
				defer queryWG.Done()
				prev := int64(0)
				for {
					select {
					case <-stopQueries:
						return
					default:
					}
					n, err := lcExecute(cl, "SELECT count(*) AS n FROM events")
					if err != nil {
						queryErrs.Add(1)
						continue
					}
					querySuccesses.Add(1)
					if n < prev {
						t.Errorf("seed %d: count went backwards: %d -> %d", seed, prev, n)
					}
					// Read the ceiling after the query so it can only be
					// an overestimate of what the query could have seen:
					// sending first, so a send that ends between the two
					// reads is counted twice, never missed.
					inFlight := sending.Load()
					ceiling := int64(lcHistRows) + inFlight + acked.Load() + markers.Load()
					if n > ceiling {
						t.Errorf("seed %d: count %d exceeds acked and in-flight rows %d — duplicates", seed, n, ceiling)
					}
					prev = n
					time.Sleep(time.Millisecond)
				}
			}()
		}

		cluster.Watchdog(t, 120*time.Second, func() {
			streamBatch(lcBatch)
			probeFreshness("warmup")

			// Lifecycle event 1: SIGKILL + recover the ingest process.
			broker.crashRestart()
			if rec := broker.walStats().RecoveredRecords; rec <= 0 {
				t.Errorf("seed %d: ingest restart recovered %d records, want > 0", seed, rec)
			}
			streamBatch(lcBatch)
			probeFreshness("after ingest restart")

			// Lifecycle event 2: roll coordinator A — graceful drain via the
			// HTTP endpoint while queries keep flowing, then a replacement
			// registers under the same cluster name.
			resp, err := http.Post("http://"+coordA.Addr()+"/v1/shutdown", "", nil)
			if err != nil {
				t.Fatalf("seed %d: shutdown A: %v", seed, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("seed %d: shutdown A: status %d", seed, resp.StatusCode)
			}
			streamBatch(lcBatch)
			coordA2 := startLifecycleCoordinator(t, catalogs, workersA)
			if err := gw.AddCluster("a", coordA2.Addr()); err != nil {
				t.Fatal(err)
			}
			probeFreshness("after coordinator A roll")

			// Lifecycle event 3: roll coordinator B the same way — the
			// rolling restart covers every coordinator.
			if err := coordB.GracefulDrain(); err != nil {
				t.Fatalf("seed %d: drain B: %v", seed, err)
			}
			streamBatch(lcBatch)
			coordB2 := startLifecycleCoordinator(t, catalogs, workersB)
			if err := gw.AddCluster("b", coordB2.Addr()); err != nil {
				t.Fatal(err)
			}
			probeFreshness("after coordinator B roll")

			// Quiesce: stop the stream, drain the log, final maintenance.
			deadline := time.Now().Add(lcSLA)
			for broker.lag() > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("seed %d: lag %d not drained within %v", seed, broker.lag(), lcSLA)
				}
				time.Sleep(10 * time.Millisecond)
			}
			broker.stop()
			close(stopQueries)
			queryWG.Wait()
		})

		// Row-exact post-quiesce: every acked event exactly once, across the
		// ingest crash and both coordinator rolls.
		wantRT := acked.Load() + markers.Load()
		wantTotal := int64(lcHistRows) + wantRT
		if got, err := lcExecute(cl, "SELECT count(*) AS n FROM events"); err != nil || got != wantTotal {
			t.Errorf("seed %d: final count(*) = %d (err %v), want %d", seed, got, err, wantTotal)
		}
		if got, err := lcExecute(cl, fmt.Sprintf("SELECT count(*) AS n FROM events WHERE ts < %d", cluster.ChaosEventsBoundary)); err != nil || got != int64(lcHistRows) {
			t.Errorf("seed %d: historical count = %d (err %v), want %d", seed, got, err, lcHistRows)
		}
		if got, err := lcExecute(cl, fmt.Sprintf("SELECT count(*) AS n FROM events WHERE ts >= %d", cluster.ChaosEventsBoundary)); err != nil || got != wantRT {
			t.Errorf("seed %d: real-time count = %d (err %v), want %d", seed, got, err, wantRT)
		}
		var wantClicks int64
		for i := 0; i < lcHistRows; i++ {
			wantClicks += cluster.ChaosHistClicks(i)
		}
		wantClicks += ackedClicks + markers.Load()
		if got, err := lcExecute(cl, "SELECT sum(clicks) AS s FROM events"); err != nil || got != wantClicks {
			t.Errorf("seed %d: final sum(clicks) = %d (err %v), want %d", seed, got, err, wantClicks)
		}

		// The durability plumbing actually ran: fsyncs on the ack path, and
		// the post-restart WAL saw a real recovery.
		ws := broker.walStats()
		if ws.Fsyncs <= 0 {
			t.Errorf("seed %d: wal fsyncs = %d, want > 0", seed, ws.Fsyncs)
		}
		if ws.RecoveredRecords <= 0 {
			t.Errorf("seed %d: recovered records = %d, want > 0", seed, ws.RecoveredRecords)
		}
		if s := querySuccesses.Load(); s == 0 {
			t.Errorf("seed %d: no query ever succeeded during the scenario", seed)
		}
		t.Logf("seed %d: acked=%d markers=%d query_ok=%d query_err=%d wal_fsyncs=%d recovered=%d",
			seed, acked.Load(), markers.Load(), querySuccesses.Load(), queryErrs.Load(),
			ws.Fsyncs, ws.RecoveredRecords)
	}
}
