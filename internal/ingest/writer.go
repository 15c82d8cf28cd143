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
	// MaintainEvery is the cadence of the table lifecycle maintenance tick
	// — age-based sealing and compaction (default 250ms).
	MaintainEvery time.Duration
	// Clock times maintenance ticks and freshness observations (default
	// real time); chaos replay injects a fault.ManualClock.
	Clock fault.Clock
}

func (c WriterConfig) withDefaults() WriterConfig {
	if c.Group == "" {
		c.Group = DefaultWriterGroup
	}
	if c.MaxPoll <= 0 {
		c.MaxPoll = 1024
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
// goroutine fetches every partition's batches from its committed offset,
// appends the rows into the druid table's open mutable segment, commits, and
// drives sealing and compaction on the maintenance tick. Freshness — event
// time to queryable — is observed per record at append time.
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

// Start launches the writer's goroutine. Stop waits for it.
func (w *SegmentWriter) Start() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopCh != nil {
		return
	}
	w.stopCh = make(chan struct{})
	w.wg.Add(1)
	go w.run(w.stopCh)
}

// Stop halts the writer, drains whatever the log already holds (so a
// quiesced producer's records are fully written), and runs one final
// maintenance pass.
func (w *SegmentWriter) Stop() {
	if w.halt() {
		for w.RunOnce() > 0 {
		}
		w.table.Maintain(w.cfg.Clock.Now())
	}
}

// Kill halts the writer's goroutine abruptly — no drain, no final
// maintenance pass: the rolling-restart chaos suite's simulated SIGKILL.
// Whatever was fetched-but-uncommitted is redelivered (and deduplicated).
//
//lint:ignore reachability the SIGKILL the lifecycle chaos suite injects; a binary is killed by its operating system
func (w *SegmentWriter) Kill() { w.halt() }

// halt stops the writer's goroutine and waits for it; false if none ran.
func (w *SegmentWriter) halt() bool {
	w.mu.Lock()
	stop := w.stopCh
	w.stopCh = nil
	w.mu.Unlock()
	if stop == nil {
		return false
	}
	close(stop)
	w.wg.Wait()
	return true
}

// run is the writer's one loop, asleep until the log grows or maintenance is
// due. One goroutine suffices: every append takes the table's write lock and
// every commit the log's. A full MaxPoll batch goes round again at once; a
// failed commit waits for the next append or tick, never hot-looping.
func (w *SegmentWriter) run(stop chan struct{}) {
	defer w.wg.Done()
	nextMaintain := w.cfg.Clock.Now().Add(w.cfg.MaintainEvery)
	for {
		appended := w.topic.appended() // before fetching: an append from here on wakes the wait
		full := false
		for p := 0; p < w.topic.Partitions(); p++ {
			full = w.pollPartition(p) == w.cfg.MaxPoll || full
		}
		now := w.cfg.Clock.Now()
		if !now.Before(nextMaintain) {
			w.table.Maintain(now)
			nextMaintain = now.Add(w.cfg.MaintainEvery)
		}
		if full {
			select {
			case <-stop:
				return
			default:
				continue
			}
		}
		select {
		case <-stop:
			return
		case <-appended:
		case <-w.cfg.Clock.After(nextMaintain.Sub(now)):
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
	offset := w.log.Committed(w.cfg.Group, w.topic.Name(), p)
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
		w.writeErrors.Add(int64(len(recs)))
		return w.commit(p, offset+int64(len(recs)), len(recs))
	}
	// Rows the watermark skipped were appended (and observed) by an earlier
	// delivery; only the fresh suffix counts.
	w.rowsWritten.Add(int64(appended))
	for _, r := range recs[len(recs)-appended:] {
		w.freshness.Observe(now.Sub(r.Time))
	}
	return w.commit(p, offset+int64(len(recs)), len(recs))
}

// commit advances the group's offset. A failed (durable) commit reports
// nothing consumed, so the loop waits: the batch is refetched on the next
// wake and the druid watermark swallows the redelivery, so progress resumes
// once the offsets WAL accepts writes again.
func (w *SegmentWriter) commit(p int, offset int64, consumed int) int {
	if err := w.log.Commit(w.cfg.Group, w.topic.Name(), p, offset); err != nil {
		w.commitErrors.Inc()
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
