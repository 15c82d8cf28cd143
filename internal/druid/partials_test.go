package druid

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"prestolite/internal/cache"
	"prestolite/internal/expr"
)

// Each sealed segment's partial aggregate is memoised per query shape, and a
// query merges the memoised partials with a fresh aggregation of the open
// segment. Every answer must match the boxed reference: the first run of a
// shape (cold), the second (every sealed segment from the memo), and after
// appends, seals and compactions have replaced segments in between.

// h2 is the benchmark's grouped statement as a native query: the realtime
// side's boundary filter, clicks and rows by country, the newest ts.
func h2() Query {
	return Query{Table: "t",
		Filters:      []expr.Comparison{{Column: "ts", Op: expr.OpGte, Values: []any{int64(0)}}},
		GroupBy:      []string{"u"},
		Aggregations: []Aggregation{{Func: "sum", Column: "n"}, {Func: "count"}, {Func: "max", Column: "ts"}}}
}

// checkQuery runs q and compares it with the reference over rows.
func checkQuery(t *testing.T, s *Store, rows [][]any, q Query, what string) {
	t.Helper()
	res, err := s.Execute(q)
	if err != nil {
		t.Fatalf("%s: %+v: %v", what, q, err)
	}
	if g, w := multiset(res.Rows()), multiset(reference(rows, q)); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: %+v:\nonly the store:     %v\nonly the reference: %v", what, q, minus(g, w), minus(w, g))
	}
}

// Replay a failure with
// EQUIV_SEED=<seed> go test -run TestSegmentPartialsEquivalence ./internal/druid/.
func TestSegmentPartialsEquivalence(t *testing.T) {
	seeds := []int64{1, 7, 42}
	if env := os.Getenv("EQUIV_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad EQUIV_SEED %q: %v", env, err)
		}
		seeds = []int64{seed}
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		s, rows := propTable(t, rng)
		queries := []Query{h2()}
		for len(queries) < 120 {
			if q := randomQuery(rng, len(rows)); len(q.Aggregations) > 0 && q.Limit == 0 {
				queries = append(queries, q)
			}
		}
		for _, q := range queries {
			checkQuery(t, s, rows, q, "cold")
		}
		hits := s.partials.Metrics.Hits.Load()
		for _, q := range queries {
			checkQuery(t, s, rows, q, "from the memo")
		}
		// Three sealed segments (one compacted) answer every query again.
		if got := s.partials.Metrics.Hits.Load() - hits; got < 3*int64(len(queries))/2 {
			t.Errorf("seed %d: %d memo hits over %d repeated queries", seed, got, len(queries))
		}
	}
}

// Appends, seals and a compaction between two runs of H2: segments that
// compaction merged take their partials with them, the merged segment is
// one the memo has never seen, and the answer is the rows'.
func TestSegmentPartialsAcrossSealsAndCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, rows := propTable(t, rng)
	tab, err := s.GetTable("t")
	if err != nil {
		t.Fatal(err)
	}
	checkQuery(t, s, rows, h2(), "first")
	segments := func() map[uint64]*segment {
		out := map[uint64]*segment{}
		for _, seg := range tab.snapshotSegments() {
			if seg.id != 0 {
				out[seg.id] = seg
			}
		}
		return out
	}
	before := segments()
	grow := func(n int) {
		batch := make([][]any, n)
		for i := range batch {
			batch[i] = propRow(rng, len(rows)+i)
		}
		rows = append(rows, batch...)
		if err := tab.Append(batch, time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	grow(45) // seals the open segment at 50 rows, 25 left open
	checkQuery(t, s, rows, h2(), "after a seal")
	for i := 0; i < 3; i++ { // three short segments sealed by age, then compacted
		grow(20)
		tab.Maintain(time.Unix(0, 0).Add(time.Hour))
	}
	if st := tab.Stats(); st.Compacted < 2 {
		t.Fatalf("fixture: no second compaction: %+v", st)
	}
	checkQuery(t, s, rows, h2(), "after a compaction")
	checkQuery(t, s, rows, h2(), "again, from the memo")
	for id, seg := range segments() {
		if was, ok := before[id]; ok && was != seg {
			t.Errorf("segment id %d names two segments", id)
		}
	}
}

// GROUP BY ts — one group per row — over many sealed segments under a small
// memo: its resident bytes stay within the budget, it evicts, and the
// answers stay exact.
func TestSegmentPartialsStayWithinTheBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewStore()
	tab, err := s.CreateTable("t", propCols)
	if err != nil {
		t.Fatal(err)
	}
	tab.SetSegmentConfig(SegmentConfig{SealRows: 100, CompactBelowRows: 1})
	const budget = 48 << 10 // a segment's partial is some 4 KiB
	s.partials = cache.NewPageMemo[partialKey](budget)
	var rows [][]any
	for i := 0; i < 3000; i++ {
		rows = append(rows, propRow(rng, i))
	}
	if err := tab.Append(rows, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	q := Query{Table: "t", GroupBy: []string{"ts"}, Aggregations: []Aggregation{{Func: "count"}, {Func: "sum", Column: "n"}, {Func: "max", Column: "s"}}}
	for run := 0; run < 3; run++ {
		checkQuery(t, s, rows, q, "GROUP BY ts")
		if b := s.partials.Metrics.Bytes.Load(); b == 0 || b > budget {
			t.Errorf("run %d: %d resident bytes, budget %d", run, b, budget)
		}
	}
	if m := s.partials.Metrics; m.Evictions.Load() == 0 || m.Bypasses.Load() != 0 {
		t.Errorf("evictions %d, bypasses %d: want evictions and every partial admitted", m.Evictions.Load(), m.Bypasses.Load())
	}
}

// Concurrent H2s on one cold memo (run under -race): every answer is the
// rows' answer.
func TestSegmentPartialsUnderConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, rows := propTable(t, rng)
	want := multiset(reference(rows, h2()))
	var wg sync.WaitGroup
	fail := make(chan string, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := s.Execute(h2())
				if err != nil {
					fail <- err.Error()
					return
				}
				if got := multiset(res.Rows()); !reflect.DeepEqual(got, want) {
					fail <- "a concurrent H2 read another answer"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}
