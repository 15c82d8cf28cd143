// Package ingest is the real-time write path of the paper's title promise
// ("from batch processing to real-time analytics"): a partitioned,
// in-process append log shaped like Kafka — topics split into partitions of
// offset-addressed records, producers batching writes, consumer groups
// tracking committed offsets — feeding the druid store's mutable-segment
// lifecycle so events become queryable seconds after they are produced.
package ingest

import (
	"fmt"
	"sync"
	"time"

	"prestolite/internal/fsys"
	"prestolite/internal/obs"
)

// Record is one offset-addressed log entry: an event timestamp, an optional
// partitioning key and the row payload.
type Record struct {
	Offset int64
	Time   time.Time
	Key    string
	Row    []any
}

// Log is the in-process broker: a set of named topics plus per-group
// committed offsets. A durable log (NewDurableLog) additionally writes every
// append, topic creation and commit through a WAL before the in-memory state
// changes, and rebuilds all three from the WAL on restart.
type Log struct {
	wal       *WAL // nil for a memory-only log
	mu        sync.RWMutex
	topics    map[string]*Topic
	committed map[groupKey]int64 // next offset to consume
}

type groupKey struct {
	group     string
	topic     string
	partition int
}

// NewLog creates an empty memory-only broker: process death loses
// everything. Use NewDurableLog for the crash-safe variant.
func NewLog() *Log {
	return &Log{topics: map[string]*Topic{}, committed: map[groupKey]int64{}}
}

// NewDurableLog opens (or creates) a write-ahead-logged broker rooted at
// cfg.Dir within fs. Existing WAL files are replayed first: topics,
// partition contents and consumer-group committed offsets all survive
// process death, with torn tails left by a crash mid-write truncated to the
// longest valid frame prefix. The recovered state is immediately writable —
// new appends go to fresh segment files, never past a possibly-torn tail.
func NewDurableLog(fs fsys.FileSystem, cfg WALConfig) (*Log, error) {
	l := NewLog()
	l.wal = newWAL(fs, cfg)
	if err := l.wal.recover(l); err != nil {
		return nil, err
	}
	return l, nil
}

// WAL exposes the durability layer (nil for a memory-only log) for stats and
// metric registration.
func (l *Log) WAL() *WAL { return l.wal }

// RegisterObsMetrics publishes the WAL durability metrics; a no-op for a
// memory-only log. Implements obs.MetricsSource.
func (l *Log) RegisterObsMetrics(reg *obs.Registry) {
	if l.wal != nil {
		l.wal.RegisterObsMetrics(reg)
	}
}

// Close ends pending interval syncs, then syncs and closes every WAL file.
// The log remains readable but further durable appends reopen fresh files;
// callers treat Close as end-of-life.
func (l *Log) Close() error {
	if l.wal == nil {
		return nil
	}
	l.wal.stopTimers()
	first := l.wal.closeStreams()
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, t := range l.topics {
		for p := range t.parts {
			part := &t.parts[p]
			part.mu.Lock()
			if part.seg != nil {
				if err := part.seg.close(); err != nil && first == nil {
					first = err
				}
			}
			part.mu.Unlock()
		}
	}
	return first
}

// CreateTopic registers a topic with the given partition count. On a durable
// log the creation is WAL-logged (and fsynced) before it takes effect.
func (l *Log) CreateTopic(name string, partitions int) (*Topic, error) {
	if partitions <= 0 || partitions > MaxPartitions {
		return nil, fmt.Errorf("ingest: topic %q needs 1 to %d partitions, not %d", name, MaxPartitions, partitions)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, exists := l.topics[name]; exists {
		return nil, fmt.Errorf("ingest: topic %q already exists", name)
	}
	if l.wal != nil {
		if err := l.wal.appendTopic(name, partitions); err != nil {
			return nil, err
		}
	}
	t := &Topic{name: name, parts: make([]partition, partitions), wal: l.wal}
	l.topics[name] = t
	return t, nil
}

// Topic resolves a topic by name.
func (l *Log) Topic(name string) (*Topic, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	t, ok := l.topics[name]
	if !ok {
		return nil, fmt.Errorf("ingest: topic %q does not exist", name)
	}
	return t, nil
}

// Commit records that group has consumed topic/partition up to (but not
// including) offset — Kafka semantics: the committed offset is the next
// record to read. On a durable log the commit is WAL-logged first; on
// failure the in-memory offset does not advance, so the consumer refetches
// and retries (downstream delivery must dedup, which the segment writer does
// via the druid source watermark).
func (l *Log) Commit(group, topic string, partition int, offset int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := groupKey{group, topic, partition}
	if offset <= l.committed[k] {
		return nil // stale or duplicate commit: monotonic max wins
	}
	if l.wal != nil {
		if err := l.wal.appendCommit(group, topic, partition, offset); err != nil {
			return err
		}
	}
	l.committed[k] = offset
	return nil
}

// Committed returns the group's committed offset for a partition (0 when
// the group has never committed).
func (l *Log) Committed(group, topic string, partition int) int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.committed[groupKey{group, topic, partition}]
}

// Lag sums end-offset minus committed-offset across a topic's partitions:
// the number of records the group has not yet consumed.
func (l *Log) Lag(group, topic string) int64 {
	t, err := l.Topic(topic)
	if err != nil {
		return 0
	}
	var lag int64
	for p := 0; p < t.Partitions(); p++ {
		if d := t.EndOffset(p) - l.Committed(group, topic, p); d > 0 {
			lag += d
		}
	}
	return lag
}

// Topic is an ordered, partitioned record log.
type Topic struct {
	name   string
	parts  []partition
	wal    *WAL // nil for a memory-only log
	grewMu sync.Mutex
	grew   chan struct{} // closed by the next successful Append; nil until asked for
}

// partition is one append-only record sequence with its own offset space.
type partition struct {
	mu   sync.RWMutex
	recs []Record
	seg  *walStream // durable segment stream; nil for a memory-only log
}

// Partitions returns the partition count.
func (t *Topic) Partitions() int { return len(t.parts) }

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// Append adds records to partition p, assigning consecutive offsets, and
// returns the offset of the first appended record. On a durable log the
// batch is WAL-framed (and fsynced per policy) before it becomes readable;
// a WAL failure rejects the whole batch, the in-memory partition is
// untouched, and the producer may retry — recovery keeps the first copy of
// any offset, so a retried batch never duplicates.
func (t *Topic) Append(p int, recs ...Record) (int64, error) {
	if p < 0 || p >= len(t.parts) {
		return 0, fmt.Errorf("ingest: topic %q has no partition %d", t.name, p)
	}
	part := &t.parts[p]
	part.mu.Lock()
	defer part.mu.Unlock()
	base := int64(len(part.recs))
	for i := range recs {
		recs[i].Offset = base + int64(i)
	}
	if t.wal != nil && len(recs) > 0 {
		if part.seg == nil {
			part.seg = t.wal.segmentStream(t.name, p, 0, &part.mu)
		}
		payload, err := encodeBatch(recs)
		if err != nil {
			return 0, err
		}
		if err := part.seg.append(payload, false); err != nil {
			return 0, err
		}
	}
	part.recs = append(part.recs, recs...)
	t.grewMu.Lock()
	defer t.grewMu.Unlock()
	if t.grew != nil {
		close(t.grew)
		t.grew = nil
	}
	return base, nil
}

// appended returns a channel closed by the next successful Append to any
// partition: the segment writer's wake signal, taken before it fetches.
func (t *Topic) appended() <-chan struct{} {
	t.grewMu.Lock()
	defer t.grewMu.Unlock()
	if t.grew == nil {
		t.grew = make(chan struct{})
	}
	return t.grew
}

// Fetch reads up to max records of partition p starting at offset. An
// offset at or past the end returns an empty batch at once.
func (t *Topic) Fetch(p int, offset int64, max int) ([]Record, error) {
	if p < 0 || p >= len(t.parts) {
		return nil, fmt.Errorf("ingest: topic %q has no partition %d", t.name, p)
	}
	if offset < 0 {
		return nil, fmt.Errorf("ingest: negative offset %d", offset)
	}
	part := &t.parts[p]
	part.mu.RLock()
	defer part.mu.RUnlock()
	if offset >= int64(len(part.recs)) {
		return nil, nil
	}
	end := offset + int64(max)
	if max <= 0 || end > int64(len(part.recs)) {
		end = int64(len(part.recs))
	}
	// Records are immutable once appended; returning a subslice is safe.
	return part.recs[offset:end], nil
}

// EndOffset returns the offset one past the last record of partition p
// (0 for an empty or unknown partition).
func (t *Topic) EndOffset(p int) int64 {
	if p < 0 || p >= len(t.parts) {
		return 0
	}
	part := &t.parts[p]
	part.mu.RLock()
	defer part.mu.RUnlock()
	return int64(len(part.recs))
}
