package ingest

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"prestolite/internal/fault"
)

// ProducerConfig tunes producer batching.
type ProducerConfig struct {
	// BatchRecords flushes a partition's buffer once it holds this many
	// records (default 256).
	BatchRecords int
	// Linger bounds how long a non-empty buffer may wait for more records
	// before a background flush (default 50ms). Zero keeps the default; a
	// negative value disables the background flusher (tests flush manually).
	Linger time.Duration
	// Clock schedules the linger flusher (default real time). Chaos replay
	// injects a fault.ManualClock here so batching cadence is deterministic.
	Clock fault.Clock
}

func (c ProducerConfig) withDefaults() ProducerConfig {
	if c.BatchRecords <= 0 {
		c.BatchRecords = 256
	}
	if c.Linger == 0 {
		c.Linger = 50 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = fault.RealClock{}
	}
	return c
}

// Producer batches rows into a topic. Keyed rows hash to a stable
// partition (ordering per key); unkeyed rows round-robin. Safe for
// concurrent use.
type Producer struct {
	topic *Topic
	cfg   ProducerConfig

	mu     sync.Mutex
	buf    [][]Record // per-partition pending batch
	rr     int        // round-robin cursor for unkeyed sends
	closed bool
	stopCh chan struct{}
	doneCh chan struct{}
}

// NewProducer creates a producer for a topic and starts its linger flusher
// (unless cfg.Linger < 0).
func NewProducer(topic *Topic, cfg ProducerConfig) *Producer {
	p := &Producer{
		topic:  topic,
		cfg:    cfg.withDefaults(),
		buf:    make([][]Record, topic.Partitions()),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	if p.cfg.Linger > 0 {
		go p.lingerLoop()
	} else {
		close(p.doneCh)
	}
	return p
}

func (p *Producer) lingerLoop() {
	defer close(p.doneCh)
	for {
		select {
		case <-p.stopCh:
			return
		case <-p.cfg.Clock.After(p.cfg.Linger):
			_ = p.Flush() // background tick: Close's final Flush surfaces errors
		}
	}
}

// Send buffers one row; the partition is fnv32a(key) mod partitions for
// keyed rows, round-robin otherwise. Full partition buffers flush inline.
func (p *Producer) Send(key string, eventTime time.Time, row []any) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("ingest: producer for topic %q is closed", p.topic.Name())
	}
	var part int
	if key != "" {
		h := fnv.New32a()
		h.Write([]byte(key))
		part = int(h.Sum32() % uint32(p.topic.Partitions()))
	} else {
		part = p.rr
		p.rr = (p.rr + 1) % p.topic.Partitions()
	}
	p.buf[part] = append(p.buf[part], Record{Time: eventTime, Key: key, Row: row})
	var flush []Record
	if len(p.buf[part]) >= p.cfg.BatchRecords {
		flush = p.buf[part]
		p.buf[part] = nil
	}
	p.mu.Unlock()
	if flush != nil {
		if _, err := p.topic.Append(part, flush...); err != nil {
			return err
		}
	}
	return nil
}

// Flush appends every pending batch to the log.
func (p *Producer) Flush() error {
	p.mu.Lock()
	pending := p.buf
	p.buf = make([][]Record, p.topic.Partitions())
	p.mu.Unlock()
	for part, batch := range pending {
		if len(batch) == 0 {
			continue
		}
		if _, err := p.topic.Append(part, batch...); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes pending batches and stops the linger flusher. The producer
// rejects sends afterwards.
func (p *Producer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.stopCh)
	<-p.doneCh
	return p.Flush()
}
