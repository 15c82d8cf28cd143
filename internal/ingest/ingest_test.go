package ingest

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"prestolite/internal/druid"
	"prestolite/internal/fault"
	"prestolite/internal/obs"
	"prestolite/internal/types"
)

func TestLogOffsetsAndFetch(t *testing.T) {
	l := NewLog()
	topic, err := l.CreateTopic("events", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.CreateTopic("events", 1); err == nil {
		t.Error("duplicate topic accepted")
	}
	base := time.Unix(1700000000, 0)
	first, err := topic.Append(0, Record{Time: base, Row: []any{int64(1)}}, Record{Time: base, Row: []any{int64(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Errorf("first offset = %d, want 0", first)
	}
	second, _ := topic.Append(0, Record{Time: base, Row: []any{int64(3)}})
	if second != 2 {
		t.Errorf("second batch offset = %d, want 2", second)
	}
	// Partitions have independent offset spaces.
	p1, _ := topic.Append(1, Record{Time: base, Row: []any{int64(9)}})
	if p1 != 0 {
		t.Errorf("partition 1 first offset = %d, want 0", p1)
	}

	recs, err := topic.Fetch(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Offset != 1 || recs[1].Offset != 2 {
		t.Errorf("fetch from 1: %+v", recs)
	}
	if recs, _ := topic.Fetch(0, 3, 10); len(recs) != 0 {
		t.Errorf("fetch past end returned %d records", len(recs))
	}
	if _, err := topic.Fetch(5, 0, 1); err == nil {
		t.Error("fetch from unknown partition accepted")
	}
	if topic.EndOffset(0) != 3 || topic.EndOffset(1) != 1 {
		t.Errorf("end offsets: %d, %d", topic.EndOffset(0), topic.EndOffset(1))
	}
}

func TestConsumerGroupCommitAndLag(t *testing.T) {
	l := NewLog()
	topic, _ := l.CreateTopic("events", 2)
	base := time.Unix(1700000000, 0)
	for i := 0; i < 5; i++ {
		topic.Append(0, Record{Time: base, Row: []any{int64(i)}})
	}
	for i := 0; i < 3; i++ {
		topic.Append(1, Record{Time: base, Row: []any{int64(i)}})
	}
	if lag := l.Lag("g1", "events"); lag != 8 {
		t.Errorf("initial lag = %d, want 8", lag)
	}
	l.Commit("g1", "events", 0, 5)
	l.Commit("g1", "events", 1, 1)
	if lag := l.Lag("g1", "events"); lag != 2 {
		t.Errorf("lag after commits = %d, want 2", lag)
	}
	// Commits are monotonic; a stale commit never rewinds.
	l.Commit("g1", "events", 0, 2)
	if got := l.Committed("g1", "events", 0); got != 5 {
		t.Errorf("stale commit rewound offset to %d", got)
	}
	// Groups are independent.
	if lag := l.Lag("g2", "events"); lag != 8 {
		t.Errorf("second group lag = %d, want 8", lag)
	}
}

func TestProducerKeyedPartitioningAndBatching(t *testing.T) {
	l := NewLog()
	topic, _ := l.CreateTopic("events", 4)
	p := NewProducer(topic, ProducerConfig{BatchRecords: 8, Linger: -1})
	base := time.Unix(1700000000, 0)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("user-%d", i%10)
		if err := p.Send(key, base, []any{int64(i), key}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for part := 0; part < topic.Partitions(); part++ {
		total += topic.EndOffset(part)
	}
	if total != 100 {
		t.Errorf("log holds %d records, want 100", total)
	}
	// Same key always lands in the same partition, in send order.
	for part := 0; part < topic.Partitions(); part++ {
		recs, _ := topic.Fetch(part, 0, 1000)
		lastPerKey := map[string]int64{}
		for _, r := range recs {
			seq := r.Row[0].(int64)
			if last, seen := lastPerKey[r.Key]; seen && seq <= last {
				t.Fatalf("key %s out of order in partition %d: %d after %d", r.Key, part, seq, last)
			}
			lastPerKey[r.Key] = seq
		}
	}
	keyPart := map[string][]int{}
	for part := 0; part < topic.Partitions(); part++ {
		recs, _ := topic.Fetch(part, 0, 1000)
		for _, r := range recs {
			if parts := keyPart[r.Key]; len(parts) == 0 || parts[len(parts)-1] != part {
				keyPart[r.Key] = append(keyPart[r.Key], part)
			}
		}
	}
	for key, parts := range keyPart {
		if len(parts) != 1 {
			t.Errorf("key %s spread over partitions %v", key, parts)
		}
	}
	if err := p.Send("x", base, []any{int64(0), "x"}); err == nil {
		t.Error("send after close accepted")
	}
}

func TestProducerLingerFlush(t *testing.T) {
	l := NewLog()
	topic, _ := l.CreateTopic("events", 1)
	p := NewProducer(topic, ProducerConfig{BatchRecords: 1000, Linger: 5 * time.Millisecond})
	defer p.Close()
	if err := p.Send("", time.Now(), []any{int64(1)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for topic.EndOffset(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("linger flusher never appended the buffered record")
		}
		time.Sleep(time.Millisecond)
	}
}

func newEventsTable(t *testing.T) *druid.Table {
	t.Helper()
	s := druid.NewStore()
	tab, err := s.CreateTable("events", []druid.Column{
		{Name: "ts", Type: types.Bigint},
		{Name: "country", Type: types.Varchar},
		{Name: "clicks", Type: types.Bigint},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestSegmentWriterRunOnce(t *testing.T) {
	l := NewLog()
	topic, _ := l.CreateTopic("events", 2)
	tab := newEventsTable(t)
	tab.SetSegmentConfig(druid.SegmentConfig{SealRows: 100})
	w := NewSegmentWriter(l, topic, tab, WriterConfig{})
	reg := obs.NewRegistry()
	w.RegisterObsMetrics(reg)

	base := time.Now().Add(-time.Second)
	for i := 0; i < 250; i++ {
		topic.Append(i%2, Record{Time: base, Row: []any{int64(i), "us", int64(1)}})
	}
	if n := w.RunOnce(); n != 250 {
		t.Fatalf("RunOnce consumed %d, want 250", n)
	}
	if st := tab.Stats(); st.Rows != 250 {
		t.Fatalf("table rows = %d, want 250", st.Rows)
	}
	if lag := l.Lag("segment-writer", "events"); lag != 0 {
		t.Fatalf("lag after drain = %d", lag)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["ingest_rows_written"]; got != 250 {
		t.Errorf("ingest_rows_written = %d, want 250", got)
	}
	if got := snap.Gauges["ingest_lag"]; got != 0 {
		t.Errorf("ingest_lag gauge = %v, want 0", got)
	}
	fr := snap.Histograms["ingest_freshness"]
	if fr.Count != 250 {
		t.Errorf("freshness observations = %d, want 250", fr.Count)
	}
	if fr.P99 < int64(time.Second) {
		t.Errorf("freshness p99 = %v, want >= 1s (events were produced 1s ago)", time.Duration(fr.P99))
	}
	if n := w.RunOnce(); n != 0 {
		t.Errorf("second RunOnce consumed %d", n)
	}
}

func TestSegmentWriterSkipsPoisonBatch(t *testing.T) {
	l := NewLog()
	topic, _ := l.CreateTopic("events", 1)
	tab := newEventsTable(t)
	w := NewSegmentWriter(l, topic, tab, WriterConfig{})
	reg := obs.NewRegistry()
	w.RegisterObsMetrics(reg)

	now := time.Now()
	topic.Append(0, Record{Time: now, Row: []any{int64(1), "us", int64(1)}})
	topic.Append(0, Record{Time: now, Row: []any{"not-a-ts", "us", int64(1)}}) // poison
	w.RunOnce()
	w.RunOnce()
	if lag := l.Lag("segment-writer", "events"); lag != 0 {
		t.Fatalf("poison batch stalled the consumer: lag %d", lag)
	}
	snap := reg.Snapshot()
	if snap.Counters["ingest_write_errors"] == 0 {
		t.Error("ingest_write_errors not counted")
	}
}

// End-to-end: producer → log → writer → druid, with the writer streaming in
// the background while the producer sends. Run under -race in make
// test-race.
func TestStreamingEndToEnd(t *testing.T) {
	l := NewLog()
	topic, _ := l.CreateTopic("events", 4)
	tab := newEventsTable(t)
	tab.SetSegmentConfig(druid.SegmentConfig{SealRows: 500, CompactBelowRows: 200, CompactBatch: 4})
	w := NewSegmentWriter(l, topic, tab, WriterConfig{MaintainEvery: 10 * time.Millisecond})
	reg := obs.NewRegistry()
	w.RegisterObsMetrics(reg)
	w.Start()

	const total = 5000
	p := NewProducer(topic, ProducerConfig{BatchRecords: 64, Linger: 5 * time.Millisecond})
	var wg sync.WaitGroup
	wg.Add(2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < total/2; i++ {
				key := fmt.Sprintf("k-%d", i%17)
				if err := p.Send(key, time.Now(), []any{int64(g*total/2 + i), "de", int64(1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Lag("segment-writer", "events") > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("writer never drained: lag %d", l.Lag("segment-writer", "events"))
		}
		time.Sleep(time.Millisecond)
	}
	w.Stop()
	if st := tab.Stats(); st.Rows != total {
		t.Fatalf("table rows = %d, want %d (stats %+v)", st.Rows, total, st)
	}
	if got := reg.Snapshot().Counters["ingest_rows_written"]; got != total {
		t.Errorf("ingest_rows_written = %d, want %d", got, total)
	}
	// The lifecycle kept segment count far below the 5000 rows appended.
	if st := tab.Stats(); st.Open+st.Sealed+st.Compacted > 30 {
		t.Errorf("segments after streaming = %+v, want bounded", st)
	}
}

// stillClock is real time whose timers never fire: a writer built on it can
// only be woken by the log.
type stillClock struct{ fault.RealClock }

func (stillClock) After(time.Duration) <-chan time.Time { return nil }

// writerGoroutines counts the goroutines running inside a SegmentWriter.
func writerGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "ingest.(*SegmentWriter).") {
			n++
		}
	}
	return n
}

// TestWriterWakesOnAppend: the writer is one goroutine that sleeps until the
// log grows — no poll interval, no timer needed — and drains a backlog
// larger than one poll without waiting for another append.
func TestWriterWakesOnAppend(t *testing.T) {
	l := NewLog()
	topic, _ := l.CreateTopic("events", 4)
	tab := newEventsTable(t)
	const maxPoll = 8
	w := NewSegmentWriter(l, topic, tab, WriterConfig{MaxPoll: maxPoll, Clock: stillClock{}})
	before := writerGoroutines()
	w.Start()
	if got := writerGoroutines() - before; got != 1 {
		t.Fatalf("Start added %d goroutines, want 1", got)
	}
	waitRows := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(time.Second); tab.Stats().Rows != want; {
			if time.Now().After(deadline) {
				t.Fatalf("table rows = %d, want %d within 1s", tab.Stats().Rows, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	rows := 0
	for i := 0; i < 10; i++ {
		if _, err := topic.Append(i%4, Record{Time: time.Now(), Row: []any{int64(i), "us", int64(1)}}); err != nil {
			t.Fatal(err)
		}
		rows++
		waitRows(rows)
	}
	backlog := make([]Record, 3*maxPoll+1)
	for i := range backlog {
		backlog[i] = Record{Time: time.Now(), Row: []any{int64(100 + i), "de", int64(1)}}
	}
	if _, err := topic.Append(0, backlog...); err != nil {
		t.Fatal(err)
	}
	rows += len(backlog)
	waitRows(rows)
	w.Stop()
	if got := settledWriterGoroutines(before); got != before {
		t.Errorf("after Stop %d writer goroutines, want %d", got, before)
	}

	killed := NewSegmentWriter(l, topic, newEventsTable(t), WriterConfig{Group: "other", Clock: stillClock{}})
	killed.Start()
	killed.Kill()
	if got := settledWriterGoroutines(before); got != before {
		t.Errorf("after Kill %d writer goroutines, want %d", got, before)
	}
}

// settledWriterGoroutines polls writerGoroutines for up to a second until it
// reads want. Stop and Kill return once run's deferred wg.Done has run, which
// is before the goroutine has left run's frame: a stack dump taken right
// after may still show it.
func settledWriterGoroutines(want int) int {
	got := writerGoroutines()
	for deadline := time.Now().Add(time.Second); got != want && time.Now().Before(deadline); got = writerGoroutines() {
		time.Sleep(time.Millisecond)
	}
	return got
}
