package druid

import (
	"testing"
	"time"

	"prestolite/internal/expr"
	"prestolite/internal/types"
)

// eventsTable holds rows of eventRow in a fixed number of sealed segments plus
// an open one, whatever rows is.
func eventsTable(tb testing.TB, rows int) *Store {
	tb.Helper()
	const sealed = 8
	s := NewStore()
	tab, err := s.CreateTable("events", []Column{
		{Name: "ts", Type: types.Bigint},
		{Name: "country", Type: types.Varchar},
		{Name: "clicks", Type: types.Bigint},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tab.SetSegmentConfig(SegmentConfig{SealRows: rows / (sealed + 1), CompactBelowRows: 1})
	batch := make([][]any, rows-1) // one short of the last seal: the tail stays open
	for i := range batch {
		batch[i] = eventRow(i)
	}
	if err := tab.Append(batch, time.Unix(0, 0)); err != nil {
		tb.Fatal(err)
	}
	if st := tab.Stats(); st.Sealed != sealed || st.Open != 1 {
		tb.Fatalf("fixture: %+v, want %d sealed segments and an open one", st, sealed)
	}
	return s
}

// TestExecuteAllocsDoNotScaleWithRows pins the point of the columnar store: an
// aggregate allocates per query and per segment, never per row. The two tables
// have the same nine segments and a hundred times the rows.
func TestExecuteAllocsDoNotScaleWithRows(t *testing.T) {
	small, large := eventsTable(t, 900), eventsTable(t, 90000)
	for name, q := range map[string]Query{
		// sum keeps both off the metadata-only answer: every row is visited.
		"global":  {Table: "events", Aggregations: []Aggregation{{Func: "count"}, {Func: "sum", Column: "clicks"}, {Func: "max", Column: "ts"}}},
		"grouped": {Table: "events", GroupBy: []string{"country"}, Aggregations: []Aggregation{{Func: "count"}, {Func: "sum", Column: "clicks"}, {Func: "max", Column: "ts"}}},
	} {
		allocs := func(s *Store) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := s.Execute(q); err != nil {
					t.Fatal(err)
				}
			})
		}
		// The slack is a constant per segment, for what a larger segment may
		// round differently; the row counts differ by 89,100.
		if a, b := allocs(small), allocs(large); b > a+2*9 {
			t.Errorf("%s: %.0f allocations over 900 rows, %.0f over 90,000", name, a, b)
		}
	}
}

// BenchmarkDruidExecute runs the four query shapes over eight sealed segments
// and an open one, plus a string equality, which a sealed segment's inverted
// index starts and the open one's dictionary answers. ns/row beside allocs/op
// says whether the store works per row or per segment.
func BenchmarkDruidExecute(b *testing.B) {
	const rows = 90000
	s := eventsTable(b, rows)
	clicks := []expr.Comparison{{Column: "clicks", Op: expr.OpGt, Values: []any{int64(3)}}}
	aggs := []Aggregation{{Func: "count"}, {Func: "sum", Column: "clicks"}, {Func: "max", Column: "ts"}}
	for _, bc := range []struct {
		name string
		q    Query
	}{
		{"select", Query{Table: "events", Columns: []string{"ts", "country"}}},
		{"filtered_select", Query{Table: "events", Filters: clicks, Columns: []string{"ts", "country"}}},
		{"grouped", Query{Table: "events", Filters: clicks, GroupBy: []string{"country"}, Aggregations: aggs}},
		{"global", Query{Table: "events", Aggregations: aggs}},
		{"string_filtered", Query{Table: "events", Filters: []expr.Comparison{{Column: "country", Op: expr.OpEq, Values: []any{"us"}}}, Aggregations: aggs}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(bc.q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
