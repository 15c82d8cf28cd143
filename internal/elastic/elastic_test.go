package elastic

import (
	"reflect"
	"strings"
	"testing"

	"prestolite/internal/expr"
	"prestolite/internal/types"
)

// logsStore indexes six documents; ids (insertion order) are the hit order.
func logsStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	idx, err := s.CreateIndex("logs", []Field{
		{Name: "id", Type: types.Bigint},
		{Name: "service", Type: types.Varchar},
		{Name: "level", Type: types.Varchar},
		{Name: "latency", Type: types.Double},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []map[string]any{
		{"id": int64(0), "service": "api", "level": "error", "latency": 120.0},
		{"id": int64(1), "service": "api", "level": "info", "latency": 15.0},
		{"id": int64(2), "service": "db", "level": "error", "latency": 300.0},
		{"id": int64(3), "service": "api", "level": "error", "latency": 45.0},
		{"id": int64(4), "service": "api", "level": "error"}, // latency missing: NULL
		{"id": int64(5), "service": "db", "level": "info", "latency": 5.0},
	} {
		if err := idx.IndexDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// ids runs q projected to the id field and returns the hit ids in order.
func ids(t *testing.T, s *Store, q Query) []int64 {
	t.Helper()
	q.Index, q.Source = "logs", []string{"id"}
	_, hits, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, 0, len(hits))
	for _, h := range hits {
		out = append(out, h[0].(int64))
	}
	return out
}

func TestSearchFilters(t *testing.T) {
	s := logsStore(t)
	gt40 := expr.Comparison{Column: "latency", Op: expr.OpGt, Values: []any{40.0}}
	for _, tc := range []struct {
		name string
		q    Query
		want []int64
	}{
		{"no filter returns every document in insertion order", Query{}, []int64{0, 1, 2, 3, 4, 5}},
		{"term", Query{Terms: map[string]string{"service": "api"}}, []int64{0, 1, 3, 4}},
		{"term with no posting list", Query{Terms: map[string]string{"service": "cache"}}, []int64{}},
		{"two terms intersect", Query{Terms: map[string]string{"service": "api", "level": "error"}}, []int64{0, 3, 4}},
		{"range skips NULL", Query{Ranges: []expr.Comparison{gt40}}, []int64{0, 2, 3}},
		{"two ranges are a conjunction", Query{Ranges: []expr.Comparison{gt40, {Column: "latency", Op: expr.OpLte, Values: []any{120.0}}}}, []int64{0, 3}},
		{"neq on a bigint", Query{Ranges: []expr.Comparison{{Column: "id", Op: expr.OpNeq, Values: []any{int64(2)}}}}, []int64{0, 1, 3, 4, 5}},
		{"term and range intersect", Query{Terms: map[string]string{"level": "error"}, Ranges: []expr.Comparison{gt40}}, []int64{0, 2, 3}},
		{"size cuts after filtering, keeping order", Query{Terms: map[string]string{"level": "error"}, Ranges: []expr.Comparison{gt40}, Size: 2}, []int64{0, 2}},
	} {
		if got := ids(t, s, tc.q); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: hits %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSearchSourceProjection(t *testing.T) {
	s := logsStore(t)
	cols, hits, err := s.Search(Query{Index: "logs", Terms: map[string]string{"service": "db"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"id", "service", "level", "latency"}; !reflect.DeepEqual(cols, want) {
		t.Fatalf("default source = %v, want the mapping order %v", cols, want)
	}
	if want := []Hit{{int64(2), "db", "error", 300.0}, {int64(5), "db", "info", 5.0}}; !reflect.DeepEqual(hits, want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	cols, hits, err = s.Search(Query{Index: "logs", Source: []string{"latency", "id"}, Ranges: []expr.Comparison{{Column: "id", Op: expr.OpEq, Values: []any{int64(4)}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cols, []string{"latency", "id"}) || !reflect.DeepEqual(hits, []Hit{{nil, int64(4)}}) {
		t.Fatalf("projected = %v %v, want [latency id] [[<nil> 4]]", cols, hits)
	}
}

func TestSearchRejectsUnknownNames(t *testing.T) {
	s := logsStore(t)
	for _, tc := range []struct {
		q    Query
		want string
	}{
		{Query{Index: "metrics"}, `index "metrics" does not exist`},
		{Query{Index: "logs", Source: []string{"host"}}, `unknown source field "host"`},
		{Query{Index: "logs", Terms: map[string]string{"host": "a"}}, `term filter needs a varchar field, got "host"`},
		{Query{Index: "logs", Terms: map[string]string{"latency": "5"}}, `term filter needs a varchar field, got "latency"`},
		{Query{Index: "logs", Ranges: []expr.Comparison{{Column: "host", Op: expr.OpEq, Values: []any{"a"}}}}, `unknown range field "host"`},
	} {
		if _, _, err := s.Search(tc.q); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Search(%+v) error = %v, want one containing %q", tc.q, err, tc.want)
		}
	}
	idx, err := s.GetIndex("logs")
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.IndexDocument(map[string]any{"host": "a"}); err == nil {
		t.Error("a document with an unmapped field must be rejected")
	}
	if err := idx.IndexDocument(map[string]any{"id": "seven"}); err == nil {
		t.Error("a document with a mistyped field must be rejected")
	}
	if _, err := s.CreateIndex("logs", nil); err == nil {
		t.Error("creating an index twice must fail")
	}
}
