package core

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/tpch"
)

// Serial-vs-parallel equivalence suite (driver-based intra-task parallelism):
// every TPC-H-flavored query in the repo's workload runs once with
// task_concurrency=1 and once with task_concurrency=8, and the row sets must
// match exactly after ordering normalization. Aggregates stick to counts,
// min/max, and sums of small integral doubles (l_quantity is 1..50), so
// results are bit-exact no matter which driver merged which partial state —
// the same discipline the chaos suite uses for cross-worker retries.

const (
	equivDataSeed    = 99
	equivFiles       = 8
	equivRowsPerFile = 250
)

// equivQueries covers every parallelized operator shape: parallel scans,
// replicated filters/projections, partitioned grouped aggregation (low and
// high cardinality), global aggregation, distinct aggregation, partitioned
// joins (plain and under a group by), parallel sort with streaming merge,
// and early-stop limits.
var equivQueries = []struct {
	name      string
	sql       string
	countOnly bool // LIMIT picks arbitrary rows; only the count is stable
}{
	{"q1 pricing summary", `SELECT l_returnflag, l_linestatus, count(*) AS n, sum(l_quantity) AS q
		FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, false},
	{"filtered count", `SELECT count(*) AS n FROM lineitem WHERE l_quantity < 25.0`, false},
	{"shipmode counts", `SELECT l_shipmode, count(*) AS n FROM lineitem GROUP BY l_shipmode ORDER BY l_shipmode`, false},
	{"global aggregates", `SELECT count(*) AS n, sum(l_quantity) AS q, min(l_orderkey) AS lo, max(l_orderkey) AS hi FROM lineitem`, false},
	{"high-cardinality groupby", `SELECT l_orderkey, l_partkey, count(*) AS n, sum(l_quantity) AS q FROM lineitem
		GROUP BY l_orderkey, l_partkey ORDER BY l_orderkey, l_partkey`, false},
	{"wide sort", `SELECT l_orderkey, l_partkey, l_suppkey, l_quantity FROM lineitem
		ORDER BY l_orderkey, l_partkey, l_suppkey, l_quantity`, false},
	{"self join count", `SELECT count(*) AS n FROM lineitem a JOIN lineitem b ON a.l_orderkey = b.l_orderkey`, false},
	{"join then groupby", `SELECT a.l_shipmode, count(*) AS n FROM lineitem a JOIN lineitem b ON a.l_orderkey = b.l_orderkey
		GROUP BY a.l_shipmode ORDER BY a.l_shipmode`, false},
	{"distinct count", `SELECT count(DISTINCT l_suppkey) AS n FROM lineitem`, false},
	{"grouped distinct", `SELECT l_linestatus, count(DISTINCT l_shipmode) AS n FROM lineitem
		GROUP BY l_linestatus ORDER BY l_linestatus`, false},
	{"projected filter", `SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_quantity < 5.0
		ORDER BY l_orderkey, l_linenumber`, false},
	{"limit early stop", `SELECT l_orderkey FROM lineitem LIMIT 137`, true},
}

// equivEngine builds an embedded engine over a hive LINEITEM warehouse with
// `files` files, so a scan has real splits for the drivers to share.
func equivEngine(t testing.TB, files int) *Engine {
	t.Helper()
	fs := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	cols := make([]metastore.Column, len(tpch.LineItemColumns))
	for i, c := range tpch.LineItemColumns {
		cols[i] = metastore.Column{Name: c.Name, Type: c.Type}
	}
	var pages []*block.Page
	for f := 0; f < files; f++ {
		pages = append(pages, tpch.GeneratePage(equivDataSeed+int64(f), equivRowsPerFile))
	}
	if err := loader.CreateTable("tpch", "lineitem", cols, pages); err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Register("hive", hive.New("hive", ms, fs, hive.Options{}))
	return e
}

func equivSession(drivers int) *planner.Session {
	return &planner.Session{
		Catalog: "hive", Schema: "tpch", User: "equiv",
		Properties: map[string]string{"task_concurrency": fmt.Sprint(drivers)},
	}
}

// normalizeRows renders rows and sorts them, so serial and parallel runs
// compare equal regardless of page arrival order.
func normalizeRows(res *Result) []string {
	rows := res.Rows()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func runEquiv(t *testing.T, e *Engine, sql string, drivers int) *Result {
	t.Helper()
	res, err := e.Query(equivSession(drivers), sql)
	if err != nil {
		t.Fatalf("drivers=%d query %q: %v", drivers, sql, err)
	}
	return res
}

func TestParallelEquivalence(t *testing.T) {
	e := equivEngine(t, equivFiles)
	for _, q := range equivQueries {
		t.Run(q.name, func(t *testing.T) {
			serial := runEquiv(t, e, q.sql, 1)
			parallel := runEquiv(t, e, q.sql, 8)
			if q.countOnly {
				if s, p := serial.RowCount(), parallel.RowCount(); s != p {
					t.Fatalf("row counts differ: serial %d, parallel %d", s, p)
				}
				return
			}
			s, p := normalizeRows(serial), normalizeRows(parallel)
			if len(s) != len(p) {
				t.Fatalf("row counts differ: serial %d, parallel %d", len(s), len(p))
			}
			for i := range s {
				if s[i] != p[i] {
					t.Fatalf("row %d differs:\nserial   %s\nparallel %s", i, s[i], p[i])
				}
			}
		})
	}
}

// TestParallelEquivalenceOrdered asserts that ORDER BY output arrives in
// sorted order from the parallel plan too (per-driver sorted runs through the
// streaming merge), not merely as the right multiset.
func TestParallelEquivalenceOrdered(t *testing.T) {
	e := equivEngine(t, equivFiles)
	res := runEquiv(t, e, equivQueries[5].sql, 8)
	rows := res.Rows()
	// Columns are (bigint, bigint, bigint, double).
	less := func(a, b []any) bool {
		for c := 0; c < 3; c++ {
			if a[c].(int64) != b[c].(int64) {
				return a[c].(int64) < b[c].(int64)
			}
		}
		return a[3].(float64) < b[3].(float64)
	}
	for i := 1; i < len(rows); i++ {
		if less(rows[i], rows[i-1]) {
			t.Fatalf("ORDER BY output out of order at row %d: %v after %v", i, rows[i], rows[i-1])
		}
	}
}

// TestParallelEquivalenceUnderSpill reruns memory-hungry queries with a pool
// far below the working set and spill enabled, at 1 and 8 drivers: rows stay
// exact, spill actually fires, no spill run or reservation survives. The
// third query stacks 24 concurrent spillable operators (8 aggregation
// partials, 8 finals, 8 sorts) in one pool. The fourth is a LEFT self-join
// with a residual whose build side outgrows the pool at either driver
// count: the multi-pass join, whose passes load build runs with hard
// reservations that the pool's ladder (resource.Pool.Reserve) must serve by
// asking spillable siblings to yield and waiting for loaded siblings to
// finish.
func TestParallelEquivalenceUnderSpill(t *testing.T) {
	// 16x the files of the main suite: the sort's working set (~1 MB) and the
	// aggregation's group table (~2 MB) dwarf the 512 KiB cap at any driver
	// count, so spill fires deterministically.
	const spillFiles = 128
	baseline := equivEngine(t, spillFiles)
	spillDir := t.TempDir()
	constrained := equivEngine(t, spillFiles)
	constrained.Mem = resource.NewPool("engine", 1<<20)
	spill, err := resource.NewSpillManager(spillDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	constrained.Spill = spill

	hungry := []string{
		`SELECT l_orderkey, l_partkey, count(*) AS n, sum(l_quantity) AS q FROM lineitem
			GROUP BY l_orderkey, l_partkey`,
		`SELECT l_orderkey, l_partkey, l_suppkey, l_quantity FROM lineitem
			ORDER BY l_orderkey, l_partkey, l_suppkey, l_quantity`,
		`SELECT l_orderkey, l_partkey, count(*) AS n, sum(l_quantity) AS q FROM lineitem
			GROUP BY l_orderkey, l_partkey ORDER BY l_orderkey, l_partkey`,
		`SELECT a.l_partkey, a.l_orderkey, b.l_orderkey FROM lineitem a
			LEFT JOIN lineitem b ON a.l_partkey = b.l_partkey AND a.l_orderkey < b.l_orderkey`,
	}
	for _, sql := range hungry {
		want := normalizeRows(runEquiv(t, baseline, sql, 1))
		for _, drivers := range []int{1, 8} {
			sess := equivSession(drivers)
			sess.Properties["query_max_memory"] = fmt.Sprint(512 << 10)
			res, err := constrained.Query(sess, sql)
			if err != nil {
				t.Fatalf("drivers=%d under spill: %v\n  query: %s", drivers, err, sql)
			}
			got := normalizeRows(res)
			if len(got) != len(want) {
				t.Fatalf("drivers=%d under spill: %d rows, want %d", drivers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("drivers=%d under spill: row %d differs:\ngot  %s\nwant %s", drivers, i, got[i], want[i])
				}
			}
		}
	}
	if constrained.Mem.Spilled() == 0 {
		t.Fatal("tiny pool never spilled — the pressure path was not exercised")
	}
	if constrained.Mem.Reserved() != 0 {
		t.Fatalf("pool still holds %d reserved bytes after all queries", constrained.Mem.Reserved())
	}
	if runs := spill.LiveRuns(); len(runs) != 0 {
		t.Fatalf("leaked spill runs: %v", runs)
	}
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill dir holds %d files after all queries", len(entries))
	}
}
