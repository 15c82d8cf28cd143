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
	"prestolite/internal/connectors/memory"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// The one order, end to end: table t(x double, k varchar) holds NaN, −0.0,
// +0.0, ±Inf, NULL and duplicates in three pages — three files of a hive
// table, three pages of a memory table — and ORDER BY must return the order
// DESIGN.md "One order" decides: a NaN below every number, −0.0 tied with
// +0.0, NULL last ascending and first descending. It must do so embedded at
// 1 and 8 drivers, with spill enabled under a query_max_memory that makes the
// sort spill, and through a coordinator with two workers; and ORDER BY x
// LIMIT 1 must answer min(x), the first non-NULL x of ORDER BY x DESC
// max(x).

var orderByPages = [][][]any{
	{{2.0, "b"}, {math.NaN(), "a"}, {1.0, "b"}, {3.0, "a"}, {math.NaN(), "b"}, {0.5, "a"}},
	{{nil, "b"}, {-1.0, "a"}, {math.Inf(1), "b"}, {math.Copysign(0, -1), "a"}, {math.Inf(-1), "b"}},
	{{0.0, "b"}, {1.0, "a"}, {nil, nil}, {math.NaN(), "a"}, {2.0, "b"}},
}

var orderByStatements = []struct{ name, sql, want string }{
	{"ascending", "SELECT x FROM t ORDER BY x",
		"NaN, NaN, NaN, -Inf, -1, 0, 0, 0.5, 1, 1, 2, 2, 3, +Inf, <nil>, <nil>"},
	{"descending", "SELECT x FROM t ORDER BY x DESC",
		"<nil>, <nil>, +Inf, 3, 2, 2, 1, 1, 0.5, 0, 0, -1, -Inf, NaN, NaN, NaN"},
	{"two keys", "SELECT k, x FROM t ORDER BY k DESC, x",
		"<nil> <nil>, b NaN, b -Inf, b 0, b 1, b 2, b 2, b +Inf, b <nil>, " +
			"a NaN, a NaN, a -1, a 0, a 0.5, a 1, a 3"},
	{"limit 1", "SELECT x FROM t ORDER BY x LIMIT 1", "NaN"},
	{"min", "SELECT min(x) FROM t", "NaN"},
	{"limit 3 descending", "SELECT x FROM t ORDER BY x DESC LIMIT 3", "<nil>, <nil>, +Inf"},
	{"max", "SELECT max(x) FROM t", "+Inf"},
}

// orderByRendered renders rows in order, −0.0 as 0, since the two tie.
func orderByRendered(rows [][]any) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			if x, ok := v.(float64); ok && x == 0 {
				v = 0.0
			}
			cells[j] = fmt.Sprint(v)
		}
		out[i] = strings.Join(cells, " ")
	}
	return strings.Join(out, ", ")
}

// orderByTables builds t as a hive table of three files and as a memory
// table of three pages.
func orderByTables(t *testing.T) map[string]connector.Connector {
	t.Helper()
	typs := []*types.Type{types.Double, types.Varchar}
	var pages []*block.Page
	for _, rows := range orderByPages {
		pb := block.NewPageBuilder(typs)
		for _, r := range rows {
			pb.AppendRow(r)
		}
		pages = append(pages, pb.Build())
	}
	fs, ms := hdfs.New(hdfs.Config{}), metastore.New()
	if err := (&hive.Loader{MS: ms, FS: fs}).CreateTable("s", "t",
		[]metastore.Column{{Name: "x", Type: types.Double}, {Name: "k", Type: types.Varchar}}, pages); err != nil {
		t.Fatal(err)
	}
	mem := memory.New("memory")
	if err := mem.CreateTable("s", "t",
		[]connector.Column{{Name: "x", Type: types.Double}, {Name: "k", Type: types.Varchar}}, pages); err != nil {
		t.Fatal(err)
	}
	return map[string]connector.Connector{"hive": hive.New("hive", ms, fs, hive.Options{}), "memory": mem}
}

func TestOrderByEquivalence(t *testing.T) {
	for catalog, conn := range orderByTables(t) {
		t.Run(catalog, func(t *testing.T) {
			e := New()
			e.Register(catalog, conn)
			spilling := New()
			spilling.Register(catalog, conn)
			spill, err := resource.NewSpillManager(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			spilling.Spill = spill

			reg := connector.NewRegistry()
			reg.Register(catalog, conn)
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

			embedded := func(e *Engine, sql string, props map[string]string) string {
				t.Helper()
				s := DefaultSession(catalog, "s")
				for k, v := range props {
					s.Properties[k] = v
				}
				res, err := e.Query(s, sql)
				if err != nil {
					t.Fatalf("%v %s: %v", props, sql, err)
				}
				return orderByRendered(res.Rows())
			}
			for _, st := range orderByStatements {
				got := map[string]string{
					"1 driver":  embedded(e, st.sql, map[string]string{"task_concurrency": "1"}),
					"8 drivers": embedded(e, st.sql, map[string]string{"task_concurrency": "8"}),
					"spilled": embedded(spilling, st.sql, map[string]string{
						"task_concurrency": "8", "spill_enabled": "true", "query_max_memory": "64"}),
				}
				res, err := coord.Query(&planner.Session{Catalog: catalog, Schema: "s", User: "test", Properties: map[string]string{}}, st.sql)
				if err != nil {
					t.Fatalf("cluster %s: %v", st.sql, err)
				}
				rows, err := res.Rows()
				if err != nil {
					t.Fatal(err)
				}
				got["cluster"] = orderByRendered(rows)
				for path, g := range got {
					if g != st.want {
						t.Errorf("%s, %s: %s\n got  %s\n want %s", st.name, path, st.sql, g, st.want)
					}
				}
			}
			if spilling.Mem.Spilled() == 0 {
				t.Error("the capped sort never spilled")
			}
			if runs := spill.LiveRuns(); len(runs) != 0 {
				t.Errorf("spill runs left behind: %v", runs)
			}
		})
	}
}
