package core

import (
	"regexp"
	"strings"
	"testing"

	"prestolite/internal/obs"
)

// TestExplainAnalyzeEmbedded: EXPLAIN ANALYZE executes the statement and
// annotates every operator with nonzero actual row counts and timings.
func TestExplainAnalyzeEmbedded(t *testing.T) {
	e := testEngine(t)
	s := DefaultSession("memory", "rawdata")
	res, err := e.Query(s, "EXPLAIN ANALYZE SELECT city_id, count(*) FROM trips WHERE fare > 3.0 GROUP BY city_id")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	text := rows[0][0].(string)

	// Every plan line must be followed by a stats annotation.
	planLines := 0
	statLines := 0
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "- ") {
			planLines++
		}
		if strings.HasPrefix(trimmed, "rows: ") {
			statLines++
		}
	}
	if planLines == 0 || planLines != statLines {
		t.Fatalf("plan lines = %d, stat lines = %d:\n%s", planLines, statLines, text)
	}
	// The fare predicate is pushed into the scan: 5 of 6 trips survive.
	if !regexp.MustCompile(`rows: 5 in, 5 out`).MatchString(text) {
		t.Errorf("scan row count missing:\n%s", text)
	}
	if strings.Contains(text, "rows: 0 in, 0 out") {
		t.Errorf("operator with no recorded rows:\n%s", text)
	}
	// Wall times are recorded (at least one non-zero duration).
	if !regexp.MustCompile(`wall: [1-9][0-9.]*(ns|µs|ms|s)`).MatchString(text) {
		t.Errorf("no nonzero wall times:\n%s", text)
	}
	if strings.Contains(text, "batches: 0") {
		t.Errorf("operator with zero batches:\n%s", text)
	}
	// No pool was configured on this engine; the query ran in one anyway.
	if !regexp.MustCompile(`\nMemory: peak [1-9]\d* B, spilled 0 B\n$`).MatchString(text) {
		t.Errorf("plan does not end in a memory footer with a nonzero peak:\n%s", text)
	}
}

func TestExplainAnalyzeStillReturnsPlainExplainShape(t *testing.T) {
	e := testEngine(t)
	s := DefaultSession("memory", "rawdata")
	res, err := e.Query(s, "EXPLAIN ANALYZE SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0].Name != "Query Plan" {
		t.Errorf("column = %q", res.Columns[0].Name)
	}
}

func TestCacheStatsFooter(t *testing.T) {
	reg := obs.NewRegistry()
	if got := CacheStatsFooter(reg.Snapshot()); got != "" {
		t.Errorf("empty registry footer = %q", got)
	}
	reg.GaugeFunc("hive.cache.footer.hit_rate", func() float64 { return 0.9375 })
	reg.GaugeFunc("hive.cache.footer.hits", func() float64 { return 15 })
	reg.GaugeFunc("unrelated.metric", func() float64 { return 1 })
	got := CacheStatsFooter(reg.Snapshot())
	want := "Cache:\n    hive.cache.footer.hit_rate: 0.94\n    hive.cache.footer.hits: 15\n"
	if got != want {
		t.Errorf("footer = %q, want %q", got, want)
	}
}
