package e2ebench

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	druidconn "prestolite/internal/connectors/druid"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/connectors/hybrid"
	"prestolite/internal/druid"
	"prestolite/internal/fsys"
	"prestolite/internal/hdfs"
	"prestolite/internal/ingest"
	"prestolite/internal/metastore"
	"prestolite/internal/obs"
	"prestolite/internal/types"
	"prestolite/internal/workload"
)

// rtShape sizes realtime_hybrid.
type rtShape struct {
	histRows int
	// rate is phase A's open-loop event rate: event i is due at t0 + i/rate
	// whatever the system does.
	rate int
	// burst is phase B's event count, sent unpaced. It is fixed, so every host
	// does the same work, and was sized on the 2-core reference host, where
	// the log, the segment writer and druid take 410-530k events/s beside the
	// query clients in most runs and 220-320k in the rest (14 runs): the burst
	// lasts 7-16 s there, 9 s typically, over some 200 fsync ticks and ten
	// seal intervals. The table grows to 3.8M rows under it (queries slow from
	// 0.1 s to seconds, so about fifteen complete) and the process to about
	// 3.2 GB.
	burst int
}

func realtimeShape(tiny bool) rtShape {
	if tiny {
		return rtShape{histRows: 2000, rate: 500, burst: 1000}
	}
	return rtShape{histRows: 100_000, rate: 4000, burst: 3_600_000}
}

// burstPool is how many distinct workload.MakeStreamEvent payloads the burst
// cycles through. MakeStreamEvent seeds a math/rand source per event (~10 µs),
// so generating millions would take longer than sending them; the sequence
// numbers, and with them ts, stay distinct.
const burstPool = 1 << 16

// walFsyncEvery is the write-ahead log's group-commit interval
// (ingest.FsyncInterval): an acked event may wait this long for its fsync.
const walFsyncEvery = 50 * time.Millisecond

const rtTopic = "events"

var histCountries = []string{"us", "de", "jp"}

// tally is the reference aggregate of one country's rows.
type tally struct {
	n, clicks, maxTS int64
}

// realtime is the live state of one realtime_hybrid run.
type realtime struct {
	shape    rtShape
	seed     int64
	log      *ingest.Log
	producer *ingest.Producer
	writer   *ingest.SegmentWriter

	// Producer side, written by whichever goroutine is sending (the paced
	// producer, then the burst) and read by verifiers.
	sent atomic.Int64
	mu   sync.Mutex
	// byCountry folds every sent event; history is folded in at set-up.
	byCountry map[string]*tally

	t0       time.Time // event i is due at t0 + i/rate
	from, to time.Time
	pacer    sync.WaitGroup
	pacerErr error
	late     []float64 // ms each in-window event was sent after its due time
	sendUS   []float64 // sampled Producer.Send durations
	lagMax   int64

	// Verifier side. last is per (client, template): counts never go back.
	vmu       sync.Mutex
	last      map[[2]int]int64
	freshness []float64
}

func (rt *realtime) due(seq int64) time.Time {
	return rt.t0.Add(time.Duration(seq) * time.Second / time.Duration(rt.shape.rate))
}

// send folds one generated event into the reference tallies and hands it to
// the producer; ev.Time is the event's creation stamp.
func (rt *realtime) send(ev workload.StreamEvent) error {
	seq := ev.Seq
	rt.mu.Lock()
	t := rt.byCountry[ev.Country]
	if t == nil {
		t = &tally{}
		rt.byCountry[ev.Country] = t
	}
	t.n++
	t.clicks += ev.Clicks
	t.maxTS = hybridBoundary + seq
	rt.mu.Unlock()
	// sent moves before Send: a query may only ever see events counted here.
	rt.sent.Add(1)
	return rt.producer.Send(ev.Key, ev.Time, []any{hybridBoundary + seq, ev.Country, ev.Clicks})
}

// pace is the open-loop producer: it sends every event that is due, then
// sleeps a millisecond, until the window ends. It never waits for the system.
// It shares the process with the system under test, whose goroutines keep
// every P busy, so it runs as late as the Go scheduler makes a timer (running
// one query client fewer was tried and changes nothing). How late is
// reported, and settle flags a run whose lateness rivals the freshness it
// measures.
func (rt *realtime) pace() {
	defer rt.pacer.Done()
	for seq := int64(0); ; {
		now := time.Now()
		if !now.Before(rt.to) {
			return
		}
		for ; !rt.due(seq).After(now); seq++ {
			due := rt.due(seq)
			start := time.Now()
			if err := rt.send(workload.MakeStreamEvent(rt.seed, seq, due)); err != nil {
				rt.pacerErr = err
				return
			}
			if seq%16 == 0 {
				rt.sendUS = append(rt.sendUS, float64(time.Since(start))/1e3)
			}
			if !due.Before(rt.from) {
				rt.late = append(rt.late, float64(start.Sub(due))/1e6)
			}
		}
		if lag := rt.log.Lag(ingest.DefaultWriterGroup, rtTopic); lag > rt.lagMax && !now.Before(rt.from) {
			rt.lagMax = lag
		}
		time.Sleep(time.Millisecond)
	}
}

// quiesce flushes the producer and waits for the segment writer to drain.
func (rt *realtime) quiesce() error {
	if err := rt.producer.Flush(); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for rt.log.Lag(ingest.DefaultWriterGroup, rtTopic) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("segment writer still %d events behind 30s after the producer stopped", rt.log.Lag(ingest.DefaultWriterGroup, rtTopic))
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// exact is the row-exact answer of H2 for everything sent so far.
func (rt *realtime) exact() expectation {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	e := expectation{Rows: len(rt.byCountry)}
	for country, t := range rt.byCountry {
		e.Values = append(e.Values, []string{cell(country), cell(t.clicks), cell(t.n), cell(t.maxTS)})
	}
	sort.Slice(e.Values, func(i, j int) bool { return sortKey(e.Values[i]) < sortKey(e.Values[j]) })
	return e
}

func buildRealtime(cfg Config) (*scenario, error) {
	shape := realtimeShape(cfg.Tiny)
	rt := &realtime{shape: shape, seed: cfg.Seed, byCountry: map[string]*tally{}, last: map[[2]int]int64{}}

	// Historical side: hive over zero-RTT storage, four files.
	nn := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: nn}
	colTypes := []*types.Type{types.Bigint, types.Varchar, types.Bigint}
	cols := []metastore.Column{{Name: "ts", Type: types.Bigint}, {Name: "country", Type: types.Varchar}, {Name: "clicks", Type: types.Bigint}}
	var pages []*block.Page
	for f := 0; f < 4; f++ {
		pb := block.NewPageBuilder(colTypes)
		for i := f * shape.histRows / 4; i < (f+1)*shape.histRows/4; i++ {
			country, clicks := histCountries[i%3], int64(i%10)
			pb.AppendRow([]any{int64(i), country, clicks})
			t := rt.byCountry[country]
			if t == nil {
				t = &tally{}
				rt.byCountry[country] = t
			}
			t.n, t.clicks, t.maxTS = t.n+1, t.clicks+clicks, int64(i)
		}
		pages = append(pages, pb.Build())
	}
	if err := loader.CreateTable("web", "events_hist", cols, pages); err != nil {
		return nil, err
	}

	// Real-time side: durable log -> segment writer -> druid segments.
	store := druid.NewStore()
	storeObs := obs.NewRegistry()
	store.RegisterObsMetrics(storeObs)
	table, err := store.CreateTable("events_rt", []druid.Column{
		{Name: "ts", Type: types.Bigint}, {Name: "country", Type: types.Varchar}, {Name: "clicks", Type: types.Bigint}})
	if err != nil {
		return nil, err
	}
	table.SetSegmentConfig(druid.SegmentConfig{SealRows: 5000, SealAge: time.Second, CompactBelowRows: 2500, CompactBatch: 8})
	walDir, err := os.MkdirTemp(cfg.TmpDir, "wal-")
	if err != nil {
		return nil, err
	}
	st := &stack{fs: nn, druid: store}
	st.closers = append(st.closers, func() { _ = os.RemoveAll(walDir) }) // scratch data: nothing to do about a failed delete
	rt.log, err = ingest.NewDurableLog(fsys.NewLocal(walDir), ingest.WALConfig{Fsync: ingest.FsyncInterval, FsyncEvery: walFsyncEvery})
	if err != nil {
		st.close()
		return nil, err
	}
	topic, err := rt.log.CreateTopic(rtTopic, 4)
	if err != nil {
		st.close()
		return nil, err
	}
	rt.producer = ingest.NewProducer(topic, ingest.ProducerConfig{BatchRecords: 256, Linger: 5 * time.Millisecond})
	rt.writer = ingest.NewSegmentWriter(rt.log, topic, table, ingest.WriterConfig{MaintainEvery: 100 * time.Millisecond})
	rt.writer.Start()
	st.closers = append([]func(){func() {
		rt.pacer.Wait()
		_ = rt.producer.Close() // teardown: the run's verdict is already in
		rt.writer.Stop()
		_ = rt.log.Close() // teardown
	}}, st.closers...)

	// One registry for every process: the druid store is embedded, so
	// coordinator and workers must share it to see the same segments.
	reg := connector.NewRegistry()
	h := hive.New("hive", ms, nn, hive.Options{})
	st.hives = append(st.hives, h)
	reg.Register("hive", h)
	reg.Register("druid", druidconn.New("druid", &druid.EmbeddedClient{Store: store}))
	hc := hybrid.New("hybrid", reg)
	if err := hc.AddTable("events", hybrid.TableConfig{
		Historical: connector.HybridPart{Catalog: "hive", Schema: "web", Table: "events_hist"},
		Realtime:   connector.HybridPart{Catalog: "druid", Schema: "default", Table: "events_rt"},
		TimeColumn: "ts",
		Boundary:   hybridBoundary,
	}); err != nil {
		st.close()
		return nil, err
	}
	reg.Register("hybrid", hc)
	st.counters = func(c map[string]float64) {
		hdfsCounters(c, nn)
		snap := storeObs.Snapshot()
		c["druid.seals"] = float64(snap.Counters["druid_segments_sealed"])
		c["druid.compactions"] = float64(snap.Counters["druid_compactions"])
		stats := table.Stats()
		c["druid.open"] = float64(stats.Open)
		c["druid.sealed"] = float64(stats.Sealed + stats.Compacted)
		c["wal.fsyncs"] = float64(rt.log.WAL().Stats().Fsyncs)
		c["wal.bytes"] = float64(dirBytes(walDir))
		c["ingest.sent"] = float64(rt.sent.Load())
	}
	if _, err := st.startNode(func() *connector.Registry { return reg }, clusterOptions{workerPort: pinnedPort(cfg, 27400), workers: 2}); err != nil {
		st.close()
		return nil, err
	}
	if err := st.startGateway(clusterName(0)); err != nil {
		st.close()
		return nil, err
	}

	templates := hybridTemplates()
	sc := &scenario{stack: st, stream: templateStream(templates, cfg.Seed), catalog: "hybrid", schema: "default"}
	sc.prepare = func() error {
		if cfg.Tiny {
			return nil
		}
		g, err := loadGolden()
		if err != nil {
			return err
		}
		if diff := g.Events.matches(eventsPin()); diff != "" {
			return fmt.Errorf("generated events differ from golden.json (%s): the event generator changed", diff)
		}
		return nil
	}
	sc.begin = func(from, to time.Time) error {
		rt.t0, rt.from, rt.to = time.Now(), from, to
		rt.pacer.Add(1)
		go rt.pace()
		return nil
	}
	sc.verify = rt.verify
	sc.settle = func(r *runner) error {
		rt.pacer.Wait()
		if rt.pacerErr != nil {
			return rt.pacerErr
		}
		sort.Float64s(rt.freshness)
		sort.Float64s(rt.late)
		if late, fresh := percentile(rt.late, 0.95), percentile(rt.freshness, 0.50); late > fresh/2 {
			r.notes = append(r.notes, fmt.Sprintf("the event pacer ran late (p95 %.1f ms) by more than half of freshness p50 (%.1f ms): freshness on this run measures the load generator as much as the system", late, fresh))
		}
		return rt.checkExact(r)
	}
	sc.finish = rt.finish
	sc.traced = func(int) []Statement {
		out := make([]Statement, len(templates))
		for t := range templates {
			out[t] = Statement{SQL: templates[t].variants[0], Template: t}
		}
		return out
	}
	return sc, nil
}

func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { // a file rotated away mid-walk just goes uncounted
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// verify checks a response against what can be known while events are in
// flight — counts never exceed what was sent, never go back for one client,
// the newest timestamp names an event that was sent — and takes a freshness
// sample from it.
func (rt *realtime) verify(client int, st Statement, res *cluster.QueryResult, issued, done time.Time) error {
	sentByDone := rt.sent.Load()
	rows, err := res.Rows()
	if err != nil {
		return err
	}
	var n, maxTS int64
	nCol, mCol := 0, 1
	if st.Template == 1 {
		nCol, mCol = 2, 3
	} else if len(rows) != 1 {
		return fmt.Errorf("wrong answer: %d rows, want 1", len(rows))
	}
	for _, row := range rows {
		c, ok := row[nCol].(int64)
		if !ok {
			return fmt.Errorf("wrong answer: count column holds %T", row[nCol])
		}
		n += c
		if m, ok := row[mCol].(int64); ok && m > maxTS {
			maxTS = m
		}
	}
	hist := int64(rt.shape.histRows)
	if st.Template == 2 {
		hist = 0
	}
	if n < hist || n > hist+sentByDone {
		return fmt.Errorf("wrong answer: count %d outside [%d, %d] (history .. history + sent)", n, hist, hist+sentByDone)
	}
	if maxTS >= hybridBoundary+sentByDone {
		return fmt.Errorf("wrong answer: max(ts) %d names an event that was never sent (%d sent)", maxTS, sentByDone)
	}
	rt.vmu.Lock()
	defer rt.vmu.Unlock()
	key := [2]int{client, st.Template}
	if n < rt.last[key] {
		return fmt.Errorf("wrong answer: count went back from %d to %d", rt.last[key], n)
	}
	rt.last[key] = n
	if maxTS >= hybridBoundary && !issued.Before(rt.from) && !done.After(rt.to) {
		rt.freshness = append(rt.freshness, float64(done.Sub(rt.due(maxTS-hybridBoundary)))/1e6)
	}
	return nil
}

// checkExact quiesces the stream and requires H2 — through the gateway, like
// every other request — to equal the reference fold of history plus every
// event sent, row for row.
func (rt *realtime) checkExact(r *runner) error {
	if err := rt.quiesce(); err != nil {
		return err
	}
	st := Statement{SQL: hybridTemplates()[1].variants[0], Template: 1}
	res, err := r.sc.stack.newClient().Execute(r.sc.request(st), benchUser, "")
	if err != nil {
		return err
	}
	got, err := expectResult(res)
	if err != nil {
		return err
	}
	if diff := rt.exact().matches(got); diff != "" {
		return fmt.Errorf("after quiesce (%d events sent): wrong answer: %s", rt.sent.Load(), diff)
	}
	return nil
}

// finish reports phase A's side metrics, then runs phase B: a fixed burst
// sent as fast as the log accepts it while the query clients keep running.
func (rt *realtime) finish(r *runner, ms *metricSet) error {
	ms.setN("freshness_p50_ms", percentile(rt.freshness, 0.50), len(rt.freshness))
	ms.setN("freshness_p95_ms", percentile(rt.freshness, 0.95), len(rt.freshness))
	ms.setN("loadgen.late_p95_ms", percentile(rt.late, 0.95), len(rt.late))
	ms.set("ingest.send_us", median(rt.sendUS))
	ms.set("ingest.lag_max_rows", float64(rt.lagMax))
	ms.set("ingest.writer_freshness_p50_ms", float64(rt.writer.Freshness().Snapshot().P50)/1e6)

	// The payloads are generated up front: ingest_rows_per_s times the
	// system, not workload.MakeStreamEvent.
	first := rt.sent.Load()
	pool := make([]workload.StreamEvent, min(burstPool, rt.shape.burst))
	for i := range pool {
		pool[i] = workload.MakeStreamEvent(rt.seed, first+int64(i), time.Time{})
	}
	var drained atomic.Bool
	var elapsed time.Duration
	var burstErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer drained.Store(true)
		start := time.Now()
		for i := 0; i < rt.shape.burst; i++ {
			ev := pool[i%len(pool)]
			ev.Seq, ev.Time = first+int64(i), time.Now()
			if burstErr = rt.send(ev); burstErr != nil {
				return
			}
		}
		if burstErr = rt.quiesce(); burstErr == nil {
			elapsed = time.Since(start)
		}
	}()
	samples, err := r.load(time.Now(), drained.Load)
	wg.Wait()
	if err != nil {
		return err
	}
	if burstErr != nil {
		return burstErr
	}
	var lat []float64
	for _, s := range samples {
		if s.err != nil {
			return fmt.Errorf("e2ebench: query failed during the ingest burst: %w", s.err)
		}
		lat = append(lat, float64(s.latency)/1e6)
	}
	ms.setN("ingest_rows_per_s", float64(rt.shape.burst)/elapsed.Seconds(), rt.shape.burst)
	ms.setN("ingest.burst_query_p50_ms", median(lat), len(lat))
	return rt.checkExact(r)
}

// eventsPin is the golden file's checksum of the event generator: the first
// 1000 events of seed 1.
func eventsPin() expectation {
	rows := make([][]any, 1000)
	for i := range rows {
		ev := workload.MakeStreamEvent(1, int64(i), time.Time{})
		rows[i] = []any{ev.Seq, ev.Key, ev.Country, ev.Clicks}
	}
	return rowsExpectation(rows)
}
