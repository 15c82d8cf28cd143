package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries_submitted")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d", c.Load())
	}
	if r.Counter("queries_submitted") != c {
		t.Fatal("Counter should return the same handle")
	}

	g := r.Gauge("queries_outstanding")
	g.Add(3)
	g.Add(-1)
	if g.Load() != 2 {
		t.Fatalf("gauge = %d", g.Load())
	}

	h := r.Histogram("query_wall")
	h.Observe(500 * time.Nanosecond) // bucket 0
	h.Observe(3 * time.Microsecond)
	h.Observe(40 * time.Millisecond)
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("hist count = %d", snap.Count)
	}
	if snap.SumNanos != int64(500+3000+40_000_000) {
		t.Fatalf("hist sum = %d", snap.SumNanos)
	}
	if snap.P99 < int64(40*time.Millisecond) {
		t.Fatalf("p99 = %d, want >= 40ms bucket bound", snap.P99)
	}
}

func TestGaugeFuncAndJSON(t *testing.T) {
	r := NewRegistry()
	hits, misses := int64(9), int64(1)
	r.GaugeFunc("cache.hit_rate", func() float64 { return float64(hits) / float64(hits+misses) })
	r.Counter("tasks").Add(7)
	r.Histogram("lat").Observe(2 * time.Microsecond)

	var decoded Snapshot
	if err := json.Unmarshal(r.Snapshot().JSON(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Gauges["cache.hit_rate"] != 0.9 {
		t.Errorf("hit_rate = %v", decoded.Gauges["cache.hit_rate"])
	}
	if decoded.Counters["tasks"] != 7 {
		t.Errorf("tasks = %v", decoded.Counters["tasks"])
	}
	if decoded.Histograms["lat"].Count != 1 {
		t.Errorf("lat count = %v", decoded.Histograms["lat"].Count)
	}
}

// TestSnapshotUnderConcurrentWriters hammers a registry and a TaskStats from
// many goroutines while snapshotting: run with -race (make test-race); the
// invariant checked is that observed values never exceed what was written
// and final totals are exact.
func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	ts := NewTaskStats()
	const writers = 8
	const perWriter = 5000

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshot readers.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				if v := snap.Counters["pages"]; v > writers*perWriter {
					t.Errorf("counter overshot: %d", v)
					return
				}
				for _, op := range ts.Snapshot() {
					if op.RowsOut > writers*perWriter*10 {
						t.Errorf("rows overshot: %d", op.RowsOut)
						return
					}
				}
			}
		}()
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			c := r.Counter("pages")
			h := r.Histogram("lat")
			rec := NewRecorder(ts.Register(w, nil))
			defer rec.Flush()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(time.Duration(i) * time.Nanosecond)
				rec.RecordPage(10, 80)
				rec.RecordWall(time.Microsecond)
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	snap := r.Snapshot()
	if snap.Counters["pages"] != writers*perWriter {
		t.Errorf("pages = %d", snap.Counters["pages"])
	}
	if snap.Histograms["lat"].Count != writers*perWriter {
		t.Errorf("hist count = %d", snap.Histograms["lat"].Count)
	}
	ops := ts.Snapshot()
	if len(ops) != writers {
		t.Fatalf("ops = %d", len(ops))
	}
	for _, op := range ops {
		if op.RowsOut != perWriter*10 || op.Pages != perWriter {
			t.Errorf("op %d: rows=%d pages=%d", op.ID, op.RowsOut, op.Pages)
		}
		if op.PeakBatchRows != 10 {
			t.Errorf("op %d: peak=%d", op.ID, op.PeakBatchRows)
		}
	}
}

func TestTaskStatsDerivedInputs(t *testing.T) {
	ts := NewTaskStats()
	scan := ts.Register(2, nil)
	filter := ts.Register(1, []int{2})
	out := ts.Register(0, []int{1})

	record := func(op *OperatorStats, rows int, bytes int64) {
		rec := NewRecorder(op)
		rec.RecordPage(rows, bytes)
		rec.Flush()
	}
	record(scan, 100, 800)
	record(filter, 40, 320)
	record(out, 40, 320)

	snap := ts.Snapshot()
	if snap[0].ID != 0 || snap[1].ID != 1 || snap[2].ID != 2 {
		t.Fatalf("snapshot not sorted by id: %+v", snap)
	}
	if snap[2].RowsIn != 100 { // leaf: input == output
		t.Errorf("scan rows in = %d", snap[2].RowsIn)
	}
	if snap[1].RowsIn != 100 || snap[1].RowsOut != 40 {
		t.Errorf("filter in/out = %d/%d", snap[1].RowsIn, snap[1].RowsOut)
	}
	if snap[0].RowsIn != 40 {
		t.Errorf("output rows in = %d", snap[0].RowsIn)
	}
}

func TestRecorderFlushExactness(t *testing.T) {
	ts := NewTaskStats()
	op := ts.Register(0, nil)
	rec := NewRecorder(op)
	const pages = flushEvery*3 + 17 // force partial tail
	for i := 0; i < pages; i++ {
		rec.RecordPage(10, 100)
		rec.RecordWall(time.Microsecond)
	}
	rec.Flush()
	snap := ts.Snapshot()[0]
	if snap.Pages != pages || snap.RowsOut != pages*10 || snap.BytesOut != pages*100 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.WallNanos != int64(pages)*int64(time.Microsecond) {
		t.Errorf("wall = %d", snap.WallNanos)
	}
	if snap.PeakBatchRows != 10 {
		t.Errorf("peak = %d", snap.PeakBatchRows)
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := []OperatorStatsSnapshot{
		{ID: 0, Name: "Scan", RowsOut: 10, BytesOut: 80, WallNanos: 100, Pages: 1, PeakBatchRows: 10, Tasks: 1},
	}
	b := []OperatorStatsSnapshot{
		{ID: 0, Name: "Scan", RowsOut: 30, BytesOut: 240, WallNanos: 50, Pages: 2, PeakBatchRows: 20, Tasks: 1},
	}
	m := MergeSnapshots(a, b)
	if len(m) != 1 {
		t.Fatalf("merged = %+v", m)
	}
	op := m[0]
	if op.RowsOut != 40 || op.BytesOut != 320 || op.WallNanos != 150 || op.Pages != 3 {
		t.Errorf("sum wrong: %+v", op)
	}
	if op.PeakBatchRows != 20 {
		t.Errorf("peak = %d", op.PeakBatchRows)
	}
	if op.Tasks != 2 {
		t.Errorf("tasks = %d", op.Tasks)
	}
}
