package druid

import (
	"sync"
	"testing"
	"time"

	"prestolite/internal/expr"
	"prestolite/internal/fault"
	"prestolite/internal/obs"
	"prestolite/internal/types"
)

func lifecycleTable(t *testing.T, cfg SegmentConfig) *Table {
	t.Helper()
	s := NewStore()
	tab, err := s.CreateTable("events", []Column{
		{Name: "ts", Type: types.Bigint},
		{Name: "country", Type: types.Varchar},
		{Name: "clicks", Type: types.Bigint},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetSegmentConfig(cfg)
	return tab
}

func eventRow(i int) []any {
	return []any{int64(i), []string{"us", "de", "jp"}[i%3], int64(i % 7)}
}

// Regression: many small Ingest calls must not create one segment per call.
func TestIngestSmallBatchesSegmentCount(t *testing.T) {
	tab := lifecycleTable(t, SegmentConfig{SealRows: 1000})
	for i := 0; i < 500; i++ {
		if err := tab.Ingest([][]any{eventRow(i), eventRow(i + 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	// 1000 rows in 500 calls: exactly one seal, nothing open.
	st := tab.Stats()
	if got := st.Open + st.Sealed + st.Compacted; got != 1 {
		t.Fatalf("500 small ingest calls produced %d segments (%+v), want 1", got, st)
	}
	if st.Rows != 1000 {
		t.Fatalf("rows = %d, want 1000", st.Rows)
	}
}

func TestSealOnRowThresholdMidBatch(t *testing.T) {
	tab := lifecycleTable(t, SegmentConfig{SealRows: 100})
	rows := make([][]any, 250)
	for i := range rows {
		rows[i] = eventRow(i)
	}
	if err := tab.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	st := tab.Stats()
	if st.Sealed != 2 || st.Open != 1 || st.OpenRows != 50 {
		t.Fatalf("250 rows at SealRows=100: %+v, want 2 sealed + 50 open", st)
	}
}

func TestSealOnAge(t *testing.T) {
	tab := lifecycleTable(t, SegmentConfig{SealRows: 1000, SealAge: time.Second})
	base := time.Unix(1700000000, 0)
	if err := tab.Append([][]any{eventRow(0)}, base); err != nil {
		t.Fatal(err)
	}
	tab.Maintain(base.Add(500 * time.Millisecond))
	if st := tab.Stats(); st.Open != 1 || st.Sealed != 0 {
		t.Fatalf("maintain before SealAge sealed early: %+v", st)
	}
	tab.Maintain(base.Add(2 * time.Second))
	if st := tab.Stats(); st.Open != 0 || st.Sealed != 1 {
		t.Fatalf("maintain after SealAge did not seal: %+v", st)
	}
}

// TestSealOnAgeInjectedClock proves Ingest stamps the open segment from the
// store's injected clock, not the wall clock: the manual clock starts in
// 1970, so if Ingest read real time the segment would be "born in the
// future" and the age-based Maintain below could never seal it.
func TestSealOnAgeInjectedClock(t *testing.T) {
	s := NewStore()
	clk := fault.NewManualClock(time.Unix(0, 0))
	s.clock = clk
	tab, err := s.CreateTable("events", []Column{
		{Name: "ts", Type: types.Bigint},
		{Name: "country", Type: types.Varchar},
		{Name: "clicks", Type: types.Bigint},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetSegmentConfig(SegmentConfig{SealRows: 1000, SealAge: time.Second})
	if err := tab.Ingest([][]any{eventRow(0)}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(500 * time.Millisecond)
	tab.Maintain(clk.Now())
	if st := tab.Stats(); st.Open != 1 || st.Sealed != 0 {
		t.Fatalf("maintain before SealAge sealed early: %+v", st)
	}
	clk.Advance(2 * time.Second)
	tab.Maintain(clk.Now())
	if st := tab.Stats(); st.Open != 0 || st.Sealed != 1 {
		t.Fatalf("maintain after SealAge did not seal on the injected clock: %+v", st)
	}
}

func TestCompaction(t *testing.T) {
	tab := lifecycleTable(t, SegmentConfig{SealRows: 10, CompactBelowRows: 100, CompactBatch: 4})
	// Six sealed segments of 10 rows each.
	for s := 0; s < 6; s++ {
		rows := make([][]any, 10)
		for i := range rows {
			rows[i] = eventRow(s*10 + i)
		}
		if err := tab.Ingest(rows); err != nil {
			t.Fatal(err)
		}
	}
	if st := tab.Stats(); st.Sealed != 6 {
		t.Fatalf("setup: %+v", st)
	}
	now := time.Unix(1700000000, 0)
	tab.Maintain(now) // merges 4 → one compacted + 2 sealed
	st := tab.Stats()
	if st.Sealed != 2 || st.Compacted != 1 || st.Rows != 60 {
		t.Fatalf("first compaction: %+v, want 2 sealed + 1 compacted, 60 rows", st)
	}
	tab.Maintain(now) // remaining 2 sealed + the 40-row compacted all below 100 → one segment
	st = tab.Stats()
	if st.Compacted != 1 || st.Sealed != 0 || st.Rows != 60 {
		t.Fatalf("second compaction: %+v, want 1 compacted, 60 rows", st)
	}
	// A single small segment is never "compacted" alone.
	tab.Maintain(now)
	if st := tab.Stats(); st.Open+st.Sealed+st.Compacted != 1 {
		t.Fatalf("compaction of a lone segment changed the segments to %+v", st)
	}

	// Queries over the compacted segment still use the rebuilt inverted index
	// and return every row.
	res, err := tab.store.Execute(Query{
		Table:        "events",
		Filters:      []expr.Comparison{{Column: "country", Op: expr.OpEq, Values: []any{"us"}}},
		Aggregations: []Aggregation{{Func: "count", Name: "n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows()[0][0]; got != int64(20) {
		t.Fatalf("count(country='us') over compacted = %v, want 20", got)
	}
}

// Rows in the open mutable segment are visible to queries immediately,
// including string filters (scan path: the frozen view has no indexes).
func TestOpenSegmentVisibleToQueries(t *testing.T) {
	tab := lifecycleTable(t, SegmentConfig{SealRows: 1000000})
	for i := 0; i < 30; i++ {
		if err := tab.Ingest([][]any{eventRow(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := tab.Stats(); st.Open != 1 || st.Sealed != 0 {
		t.Fatalf("expected all rows open: %+v", st)
	}
	res, err := tab.store.Execute(Query{
		Table:        "events",
		Filters:      []expr.Comparison{{Column: "country", Op: expr.OpEq, Values: []any{"de"}}},
		Aggregations: []Aggregation{{Func: "sum", Column: "clicks", Name: "s"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := 0; i < 30; i++ {
		if i%3 == 1 {
			want += int64(i % 7)
		}
	}
	if got := res.Rows()[0][0]; got != want {
		t.Fatalf("sum over open segment = %v, want %d", got, want)
	}
}

func TestAppendValidation(t *testing.T) {
	tab := lifecycleTable(t, SegmentConfig{})
	if err := tab.Ingest([][]any{{int64(1), "us"}}); err == nil {
		t.Error("short row accepted")
	}
	if err := tab.Ingest([][]any{{int64(1), "us", "oops"}}); err == nil {
		t.Error("wrong cell type accepted")
	}
	// A rejected batch must not leave partial rows behind.
	if st := tab.Stats(); st.Rows != 0 {
		t.Errorf("rejected batches left %d rows", st.Rows)
	}
	// Nulls are fine.
	if err := tab.Ingest([][]any{{int64(1), nil, nil}}); err != nil {
		t.Errorf("null row rejected: %v", err)
	}
}

// Concurrent appends and queries: every query sees a consistent prefix and
// never errors. Run with -race (make test-race) to prove the frozen-view
// sharing is sound.
func TestConcurrentAppendAndQuery(t *testing.T) {
	tab := lifecycleTable(t, SegmentConfig{SealRows: 64, CompactBelowRows: 200, CompactBatch: 4})
	const total = 3000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		now := time.Unix(1700000000, 0)
		for i := 0; i < total; i++ {
			if err := tab.Append([][]any{eventRow(i)}, now); err != nil {
				t.Error(err)
				return
			}
			if i%500 == 0 {
				tab.Maintain(now)
			}
		}
	}()
	prev := int64(0)
	go func() {
		defer wg.Done()
		for q := 0; q < 200; q++ {
			res, err := tab.store.Execute(Query{
				Table:        "events",
				Aggregations: []Aggregation{{Func: "count", Name: "n"}},
			})
			if err != nil {
				t.Error(err)
				return
			}
			n := res.Rows()[0][0].(int64)
			if n < prev || n > total {
				t.Errorf("query %d: count %d (prev %d)", q, n, prev)
				return
			}
			prev = n
		}
	}()
	wg.Wait()
	tab.Maintain(time.Unix(1700001000, 0))
	res, err := tab.store.Execute(Query{Table: "events", Aggregations: []Aggregation{{Func: "count", Name: "n"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows()[0][0]; got != int64(total) {
		t.Fatalf("final count = %v, want %d", got, total)
	}
}

func TestStoreObsMetrics(t *testing.T) {
	s := NewStore()
	tab, err := s.CreateTable("m", []Column{{Name: "v", Type: types.Bigint}})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetSegmentConfig(SegmentConfig{SealRows: 10, CompactBelowRows: 100, CompactBatch: 8})
	reg := obs.NewRegistry()
	s.RegisterObsMetrics(reg)
	base := time.Unix(1700000000, 0)
	rows := make([][]any, 25)
	for i := range rows {
		rows[i] = []any{int64(i)}
	}
	if err := tab.Append(rows, base); err != nil {
		t.Fatal(err)
	}
	// 25 rows at SealRows=10: two row-count seals plus 5 open rows.
	snap := reg.Snapshot()
	if got := snap.Counters["druid_segments_sealed"]; got != 2 {
		t.Errorf("druid_segments_sealed = %d, want 2", got)
	}
	if got := snap.Gauges["druid_open_segments"]; got != 1 {
		t.Errorf("druid_open_segments = %v, want 1", got)
	}
	if got := snap.Gauges["druid_sealed_segments"]; got != 2 {
		t.Errorf("druid_sealed_segments = %v, want 2", got)
	}
	// Maintenance an hour later: age-seals the tail, then merges all three
	// small segments into one compacted segment.
	tab.Maintain(base.Add(time.Hour))
	snap = reg.Snapshot()
	if got := snap.Counters["druid_segments_sealed"]; got != 3 {
		t.Errorf("after maintain: druid_segments_sealed = %d, want 3", got)
	}
	if got := snap.Counters["druid_compactions"]; got != 1 {
		t.Errorf("druid_compactions = %d, want 1", got)
	}
	if got := snap.Counters["druid_segments_compacted"]; got != 3 {
		t.Errorf("druid_segments_compacted = %d, want 3", got)
	}
	if got := snap.Gauges["druid_compacted_segments"]; got != 1 {
		t.Errorf("druid_compacted_segments gauge = %v, want 1", got)
	}
	if got := snap.Gauges["druid_open_segments"]; got != 0 {
		t.Errorf("druid_open_segments after maintain = %v, want 0", got)
	}
}
