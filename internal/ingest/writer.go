package ingest

import (
	"strconv"
	"sync"
	"time"

	"prestolite/internal/druid"
	"prestolite/internal/fault"
	"prestolite/internal/obs"
)

// DefaultWriterGroup is the consumer group segment writers use unless
// WriterConfig.Group overrides it.
const DefaultWriterGroup = "segment-writer"

// WriterConfig tunes the log→druid streaming consumer.
type WriterConfig struct {
	// Group is the consumer-group name owning the committed offsets
	// (default DefaultWriterGroup).
	Group string
	// MaxPoll bounds the records taken from one partition per poll
	// (default 1024).
	MaxPoll int
	// PollInterval is the sleep between empty polls (default 5ms).
	PollInterval time.Duration
	// MaintainEvery is the cadence of the table lifecycle maintenance tick
	// — age-based sealing and compaction (default 250ms).
	MaintainEvery time.Duration
	// Clock times polls, maintenance ticks and freshness observations
	// (default real time); chaos replay injects a fault.ManualClock.
	Clock fault.Clock
}

func (c WriterConfig) withDefaults() WriterConfig {
	if c.Group == "" {
		c.Group = DefaultWriterGroup
	}
	if c.MaxPoll <= 0 {
		c.MaxPoll = 1024
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 5 * time.Millisecond
	}
	if c.MaintainEvery <= 0 {
		c.MaintainEvery = 250 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = fault.RealClock{}
	}
	return c
}

// SegmentWriter is the streaming consumer closing the log→store loop: one
// goroutine per partition fetches batches from its committed offset,
// appends the rows into the druid table's open mutable segment and commits,
// while a maintenance ticker drives sealing and compaction. Freshness —
// event time to queryable — is observed per record at append time.
type SegmentWriter struct {
	log   *Log
	topic *Topic
	table *druid.Table
	cfg   WriterConfig

	rowsWritten  *obs.Counter
	writeErrors  *obs.Counter
	commitErrors *obs.Counter
	freshness    *obs.Histogram

	mu     sync.Mutex
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewSegmentWriter wires a topic to a druid table. Call Start for
// background streaming or RunOnce for deterministic pull-based tests.
// Metrics always exist: they live in a private registry until
// RegisterObsMetrics re-homes them into an exported one.
func NewSegmentWriter(log *Log, topic *Topic, table *druid.Table, cfg WriterConfig) *SegmentWriter {
	w := &SegmentWriter{log: log, topic: topic, table: table, cfg: cfg.withDefaults()}
	w.RegisterObsMetrics(obs.NewRegistry())
	return w
}

// RegisterObsMetrics publishes the write path's metrics: rows written,
// write errors, a committed-offset lag gauge and the event-to-queryable
// freshness histogram. Implements obs.MetricsSource. Call it before Start;
// counts observed under the previous registry are not carried over.
func (w *SegmentWriter) RegisterObsMetrics(reg *obs.Registry) {
	w.rowsWritten = reg.Counter("ingest_rows_written")
	w.writeErrors = reg.Counter("ingest_write_errors")
	w.commitErrors = reg.Counter("ingest_commit_errors")
	w.freshness = reg.Histogram("ingest_freshness")
	reg.GaugeFunc("ingest_lag", func() float64 {
		return float64(w.log.Lag(w.cfg.Group, w.topic.Name()))
	})
	reg.GaugeFunc("ingest_open_segment_rows", func() float64 {
		return float64(w.table.Stats().OpenRows)
	})
}

// Freshness returns the event-to-queryable histogram.
func (w *SegmentWriter) Freshness() *obs.Histogram { return w.freshness }

// Start launches one consumer goroutine per partition plus the maintenance
// ticker. Stop waits for them.
func (w *SegmentWriter) Start() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopCh != nil {
		return
	}
	w.stopCh = make(chan struct{})
	stop := w.stopCh
	for p := 0; p < w.topic.Partitions(); p++ {
		w.wg.Add(1)
		go w.consumePartition(p, stop)
	}
	w.wg.Add(1)
	go w.maintainLoop(stop)
}

// Stop halts the consumers, drains whatever the log already holds (so a
// quiesced producer's records are fully written), and runs one final
// maintenance pass.
func (w *SegmentWriter) Stop() {
	w.mu.Lock()
	stop := w.stopCh
	w.stopCh = nil
	w.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	w.wg.Wait()
	for w.RunOnce() > 0 {
	}
	w.table.Maintain(w.cfg.Clock.Now())
}

// Kill halts the consumer goroutines abruptly — no drain, no final
// maintenance pass. This is the simulated SIGKILL the rolling-restart chaos
// suite uses; whatever was fetched-but-uncommitted is redelivered (and
// deduplicated) after recovery.
//
//lint:ignore reachability the SIGKILL the lifecycle chaos suite injects; a binary is killed by its operating system
func (w *SegmentWriter) Kill() {
	w.mu.Lock()
	stop := w.stopCh
	w.stopCh = nil
	w.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	w.wg.Wait()
}

func (w *SegmentWriter) consumePartition(p int, stop chan struct{}) {
	defer w.wg.Done()
	for {
		n := w.pollPartition(p)
		if n == 0 {
			select {
			case <-stop:
				return
			case <-w.cfg.Clock.After(w.cfg.PollInterval):
			}
			continue
		}
		select {
		case <-stop:
			return
		default:
		}
	}
}

func (w *SegmentWriter) maintainLoop(stop chan struct{}) {
	defer w.wg.Done()
	for {
		select {
		case <-stop:
			return
		case <-w.cfg.Clock.After(w.cfg.MaintainEvery):
			w.table.Maintain(w.cfg.Clock.Now())
		}
	}
}

// source names this writer's delivery stream for one partition — the key of
// the druid-side exactly-once watermark.
func (w *SegmentWriter) source(p int) string {
	return w.cfg.Group + "/" + w.topic.Name() + "/" + strconv.Itoa(p)
}

// pollPartition fetches one batch from partition p, appends it to the table
// and commits. Returns the number of records consumed. Delivery is
// exactly-once across crashes: the append goes through AppendFrom keyed on
// the committed offset, so a batch redelivered after a crash between append
// and commit is deduplicated by the table's source watermark.
func (w *SegmentWriter) pollPartition(p int) int {
	group := w.cfg.Group
	offset := w.log.Committed(group, w.topic.Name(), p)
	recs, err := w.topic.Fetch(p, offset, w.cfg.MaxPoll)
	if err != nil || len(recs) == 0 {
		return 0
	}
	rows := make([][]any, len(recs))
	for i, r := range recs {
		rows[i] = r.Row
	}
	now := w.cfg.Clock.Now()
	appended, err := w.table.AppendFrom(w.source(p), offset, rows, now)
	if err != nil {
		// A malformed batch cannot become well-formed on retry: count it,
		// commit past it and keep consuming instead of hot-looping.
		if w.writeErrors != nil {
			w.writeErrors.Add(int64(len(recs)))
		}
		return w.commit(p, offset+int64(len(recs)), len(recs))
	}
	// Rows the watermark skipped were appended (and observed) by an earlier
	// delivery; only the fresh suffix counts.
	if w.rowsWritten != nil {
		w.rowsWritten.Add(int64(appended))
	}
	if w.freshness != nil {
		for _, r := range recs[len(recs)-appended:] {
			w.freshness.Observe(now.Sub(r.Time))
		}
	}
	return w.commit(p, offset+int64(len(recs)), len(recs))
}

// commit advances the group's offset. A failed (durable) commit backs the
// poll loop off: the batch is refetched and the druid watermark swallows the
// redelivery, so progress resumes once the offsets WAL accepts writes again.
func (w *SegmentWriter) commit(p int, offset int64, consumed int) int {
	if err := w.log.Commit(w.cfg.Group, w.topic.Name(), p, offset); err != nil {
		if w.commitErrors != nil {
			w.commitErrors.Inc()
		}
		return 0
	}
	return consumed
}

// RunOnce polls every partition once synchronously and returns the total
// records consumed — the deterministic alternative to Start for tests.
func (w *SegmentWriter) RunOnce() int {
	total := 0
	for p := 0; p < w.topic.Partitions(); p++ {
		total += w.pollPartition(p)
	}
	return total
}
