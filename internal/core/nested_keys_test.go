package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/planner"
	"prestolite/internal/types"
)

// nestedKeysHive writes hive table s.n(a array(varchar), r row(x varchar,
// y varchar), d array(double)), one file per row. The four values of a and
// of r are pairwise different, though fmt's %v prints the first two alike
// (`[a b]`, `[a b c]`) and the last two alike (`[<nil>]`, `[<nil> x]`). Of
// d's four values, [-0.0] and [0.0] are equal, as −0.0 = +0.0 is.
func nestedKeysHive(t *testing.T) connector.Connector {
	t.Helper()
	fs, ms := hdfs.New(hdfs.Config{}), metastore.New()
	cols := []metastore.Column{
		{Name: "a", Type: types.NewArray(types.Varchar)},
		{Name: "r", Type: types.NewRow(types.Field{Name: "x", Type: types.Varchar}, types.Field{Name: "y", Type: types.Varchar})},
		{Name: "d", Type: types.NewArray(types.Double)},
	}
	rows := [][]any{
		{[]any{"a b"}, []any{"a b", "c"}, []any{math.Copysign(0, -1)}},
		{[]any{"a", "b"}, []any{"a", "b c"}, []any{0.0}},
		{[]any{nil}, []any{nil, "x"}, []any{1.5}},
		{[]any{"<nil>"}, []any{"<nil>", "x"}, []any{2.5}},
	}
	var pages []*block.Page
	for _, row := range rows {
		pb := block.NewPageBuilder([]*types.Type{cols[0].Type, cols[1].Type, cols[2].Type})
		pb.AppendRow(row)
		pages = append(pages, pb.Build())
	}
	if err := (&hive.Loader{MS: ms, FS: fs}).CreateTable("s", "n", cols, pages); err != nil {
		t.Fatal(err)
	}
	return hive.New("hive", ms, fs, hive.Options{})
}

// TestNestedKeysStayDistinct: grouping, DISTINCT and approx_distinct over
// an array or row column count four different values as four — embedded at
// 1 and 8 drivers, and through a coordinator with two workers, which
// splits the aggregation into partials on the workers and a final on the
// coordinator. Over d, [-0.0] and [0.0] are one value, as −0.0 and +0.0 are
// one scalar double key.
func TestNestedKeysStayDistinct(t *testing.T) {
	conn := nestedKeysHive(t)
	e := New()
	e.Register("hive", conn)
	reg := connector.NewRegistry()
	reg.Register("hive", conn)
	coord := cluster.NewCoordinator(reg)
	for i := 0; i < 2; i++ {
		w := cluster.NewWorker(reg)
		w.GracePeriod = 20 * time.Millisecond
		if err := w.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		coord.AddWorker(w.Addr())
	}
	for _, col := range []struct {
		name string
		want int64
	}{{"a", 4}, {"r", 4}, {"d", 3}} {
		for _, q := range []string{
			"SELECT count(*) FROM (SELECT %[1]s FROM n GROUP BY %[1]s) g",
			"SELECT count(DISTINCT %[1]s) FROM n",
			"SELECT approx_distinct(%[1]s) FROM n",
		} {
			query := fmt.Sprintf(q, col.name)
			for _, drivers := range []int{1, 8} {
				s := DefaultSession("hive", "s")
				s.Properties["task_concurrency"] = fmt.Sprint(drivers)
				res, err := e.Query(s, query)
				if err != nil {
					t.Fatalf("drivers=%d %s: %v", drivers, query, err)
				}
				if got := res.Rows()[0][0]; got != col.want {
					t.Errorf("drivers=%d %s = %v, want %d", drivers, query, got, col.want)
				}
			}
			res, err := coord.Query(&planner.Session{Catalog: "hive", Schema: "s", User: "test", Properties: map[string]string{}}, query)
			if err != nil {
				t.Fatalf("cluster %s: %v", query, err)
			}
			rows, err := res.Rows()
			if err != nil {
				t.Fatal(err)
			}
			if got := rows[0][0]; got != col.want {
				t.Errorf("cluster %s = %v, want %d", query, got, col.want)
			}
		}
	}
}

// TestOrderingNestedValuesFailsTheQuery: ORDER BY, min and max over an
// array or row column are refused with an error naming the type — the sort
// and min/max compare scalars only, and comparing a nested value used to
// panic a local-exchange goroutine and take the process with it — and the
// engine answers the next query.
func TestOrderingNestedValuesFailsTheQuery(t *testing.T) {
	e := New()
	e.Register("hive", nestedKeysHive(t))
	s := DefaultSession("hive", "s")
	s.Properties["task_concurrency"] = "8"
	for query, typ := range map[string]string{
		"SELECT a FROM n ORDER BY a": "array(varchar)",
		"SELECT max(a) FROM n":       "array(varchar)",
		"SELECT min(r) FROM n":       "row(x varchar, y varchar)",
	} {
		if _, err := e.Query(s, query); err == nil || !strings.Contains(err.Error(), typ) {
			t.Errorf("%s: err = %v, want a refusal naming %s", query, err, typ)
		}
		if res, err := e.Query(s, "SELECT count(*) FROM n"); err != nil || res.Rows()[0][0] != int64(4) {
			t.Fatalf("after %s: %v, %v", query, res, err)
		}
	}
}
