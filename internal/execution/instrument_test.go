package execution

import (
	"strings"
	"testing"

	"prestolite/internal/expr"
	"prestolite/internal/obs"
	"prestolite/internal/planner"
	"prestolite/internal/types"
)

// valuesPlan builds Output(Filter(Values)) with 3 rows, of which 2 pass.
func valuesPlan() planner.Node {
	vals := &planner.Values{
		Cols: []planner.Column{{Name: "x", Type: types.Bigint}},
		Rows: [][]any{{int64(1)}, {int64(2)}, {int64(3)}},
	}
	pred := expr.MustCall("gt",
		expr.NewVariable("x", 0, types.Bigint), expr.NewConstant(int64(1), types.Bigint))
	filter := &planner.Filter{Child: vals, Predicate: pred}
	return &planner.Output{Child: filter, Names: []string{"x"}}
}

func TestBuildRecordsOperatorStats(t *testing.T) {
	stats := obs.NewTaskStats()
	ctx := &Context{Stats: stats}
	plan := valuesPlan()
	op, err := Build(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1 || pages[0].Count() != 2 {
		t.Fatalf("pages = %v", pages)
	}

	snap := NameOperators(plan, stats.Snapshot())
	if len(snap) != 3 {
		t.Fatalf("want 3 operators, got %d: %+v", len(snap), snap)
	}
	// Pre-order: 0=Output, 1=Filter, 2=Values.
	if !strings.HasPrefix(snap[0].Name, "Output") || !strings.HasPrefix(snap[1].Name, "Filter") || !strings.HasPrefix(snap[2].Name, "Values") {
		t.Fatalf("names = %q %q %q", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	if snap[2].RowsOut != 3 {
		t.Errorf("values rows out = %d", snap[2].RowsOut)
	}
	if snap[1].RowsIn != 3 || snap[1].RowsOut != 2 {
		t.Errorf("filter in/out = %d/%d", snap[1].RowsIn, snap[1].RowsOut)
	}
	if snap[0].RowsOut != 2 {
		t.Errorf("output rows out = %d", snap[0].RowsOut)
	}
	for _, s := range snap {
		if s.Pages == 0 || s.PeakBatchRows == 0 {
			t.Errorf("operator %q missing batch stats: %+v", s.Name, s)
		}
	}
}

func TestBuildWithoutStatsIsUnwrapped(t *testing.T) {
	op, err := Build(valuesPlan(), &Context{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*statsOperator); ok {
		t.Fatal("stats disabled but operator is wrapped")
	}
}

// TestFormatAnnotatedGolden pins the EXPLAIN ANALYZE rendering with
// synthetic (deterministic) statistics.
func TestFormatAnnotatedGolden(t *testing.T) {
	plan := valuesPlan()
	snaps := []obs.OperatorStatsSnapshot{
		{ID: 0, Name: "Output[x]", RowsIn: 2, RowsOut: 2, BytesOut: 16, WallNanos: 2_500_000, Pages: 1, PeakBatchRows: 2, Tasks: 1},
		{ID: 1, Name: "Filter", RowsIn: 3, RowsOut: 2, BytesOut: 16, WallNanos: 2_000_000, Pages: 1, PeakBatchRows: 2, Tasks: 1},
		{ID: 2, Name: "Values", RowsIn: 3, RowsOut: 3, BytesOut: 24, WallNanos: 1_000_000, Pages: 1, PeakBatchRows: 3, Tasks: 2},
	}
	got := FormatAnnotated(plan, snaps)
	want := strings.Join([]string{
		"- Output[x]",
		"  rows: 2 in, 2 out (16B), wall: 2.5ms, batches: 1 (peak 2 rows)",
		"    - Filter[(x > 1)]",
		"      rows: 3 in, 2 out (16B), wall: 2ms, batches: 1 (peak 2 rows)",
		"        - Values[3 rows]",
		"          rows: 3 in, 3 out (24B), wall: 1ms, batches: 1 (peak 3 rows), tasks: 2",
		"",
	}, "\n")
	if got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		0:           "0B",
		512:         "512B",
		2048:        "2.0KB",
		3 << 20:     "3.0MB",
		5 << 30:     "5.0GB",
		1536 * 1024: "1.5MB",
	}
	for n, want := range cases {
		if got := formatBytes(n); got != want {
			t.Errorf("formatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
