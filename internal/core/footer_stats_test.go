package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/parquet"
	"prestolite/internal/planner"
	"prestolite/internal/types"
)

// Footer statistics answer what they prove: a predicate every row of a row
// group passes is not evaluated there, and hive answers a global count, min
// or max from the footers of the row groups whose statistics hold it,
// reading only the rest.

// readerGauges returns the hive.reader.* gauges of e, without the prefix.
func readerGauges(e *Engine) map[string]float64 {
	out := map[string]float64{}
	for k, v := range e.Obs.Snapshot().Gauges {
		if name, ok := strings.CutPrefix(k, "hive.reader."); ok {
			out[name] = v
		}
	}
	return out
}

// H1's shape (`count(*), max(ts)`, beside the hybrid table's boundary
// predicate) on a hive table whose footers are cached: every row group is
// answered from its statistics, no leaf is decoded and no file is opened.
func TestFooterStatisticsAnswerGlobalAggregate(t *testing.T) {
	nn, ms := hdfs.New(hdfs.Config{}), metastore.New()
	loader := &hive.Loader{MS: ms, FS: nn, WriterOptions: parquet.WriterOptions{RowGroupRows: 256}}
	typs := []*types.Type{types.Bigint, types.Varchar, types.Bigint}
	var pages []*block.Page
	for f := 0; f < 4; f++ {
		pb := block.NewPageBuilder(typs)
		for i := f * 1000; i < (f+1)*1000; i++ {
			pb.AppendRow([]any{int64(i), []string{"us", "ca", "mx"}[i%3], int64(i % 10)})
		}
		pages = append(pages, pb.Build())
	}
	cols := []metastore.Column{{Name: "ts", Type: types.Bigint}, {Name: "country", Type: types.Varchar}, {Name: "clicks", Type: types.Bigint}}
	if err := loader.CreateTable("web", "events_hist", cols, pages); err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Register("hive", hive.New("hive", ms, nn, hive.Options{}))
	session := DefaultSession("hive", "web")
	// Every row group is pruned, but its footer is read (and cached).
	if _, err := e.Query(session, "SELECT count(*) FROM events_hist WHERE ts < 0"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT count(*) AS n, max(ts) AS m FROM events_hist",
		"SELECT count(*) AS n, max(ts) AS m FROM events_hist WHERE ts < 1000000",
		"SELECT count(country), min(country), max(country), min(ts) FROM events_hist WHERE ts <> -1 AND country >= 'ca'",
	} {
		plan, err := e.Explain(session, q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "TableScan[hive.web.events_hist") || !strings.Contains(plan, "aggregation=") || !strings.Contains(plan, "Aggregate(FINAL)") {
			t.Errorf("%s: the hive scan absorbs no aggregation under a FINAL:\n%s", q, plan)
		}
		before, opens := readerGauges(e), nn.Counters.OpenCalls.Load()
		res, err := e.Query(session, q)
		if err != nil {
			t.Fatal(err)
		}
		after := readerGauges(e)
		want := [][]any{{int64(4000), int64(3999)}}
		if strings.Contains(q, "country") {
			want = [][]any{{int64(4000), "ca", "us", int64(0)}}
		}
		if got := res.Rows(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", q, got, want)
		}
		if d := after["row_groups_answered_stats"] - before["row_groups_answered_stats"]; d != 16 {
			t.Errorf("%s: %v row groups answered from statistics, want all 16", q, d)
		}
		if d := after["leaves_decoded"] - before["leaves_decoded"]; d != 0 {
			t.Errorf("%s: %v leaves decoded", q, d)
		}
		if o := nn.Counters.OpenCalls.Load() - opens; o != 0 {
			t.Errorf("%s: %d files opened", q, o)
		}
		if strings.Contains(q, "WHERE") && after["predicates_covered"] <= before["predicates_covered"] {
			t.Errorf("%s: no predicate covered", q)
		}
	}
	text, err := e.Query(session, "EXPLAIN ANALYZE SELECT count(*), max(ts) FROM events_hist")
	if err != nil {
		t.Fatal(err)
	}
	footer := text.Rows()[0][0].(string)
	for _, want := range []string{"hive.reader.row_groups_answered_stats: ", "hive.reader.predicates_covered: "} {
		if !strings.Contains(footer, want) {
			t.Errorf("EXPLAIN ANALYZE footer lacks %q:\n%s", want, footer)
		}
	}
	// A row group the statistics cannot answer is read: ts >= 500 prunes
	// file 0's first row group [0, 255], is evaluated in its second
	// [256, 511] and covers the other 14.
	before := readerGauges(e)
	res, err := e.Query(session, "SELECT count(*), min(ts), max(clicks) FROM events_hist WHERE ts >= 500")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows(), [][]any{{int64(3500), int64(500), int64(9)}}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	after := readerGauges(e)
	if read, answered := after["row_groups_read"]-before["row_groups_read"], after["row_groups_answered_stats"]-before["row_groups_answered_stats"]; read != 1 || answered != 14 {
		t.Errorf("ts >= 500: %v row groups read, %v answered; want 1 and 14", read, answered)
	}
}

// Footer statistics equivalence: random hive files — NULLs, NaN, ±0.0,
// row groups whose predicate column is all NULL or holds one value, and
// files written before the table gained a column — queried with predicates
// of every op and global count/min/max, against the same connector behind
// `bare`, where the engine filters and aggregates every raw row itself.
// Replay a failure with
// EQUIV_SEED=<seed> go test -run TestFooterStatisticsEquivalence ./internal/core/.
func TestFooterStatisticsEquivalence(t *testing.T) {
	seeds := []int64{1, 7, 42}
	if env := os.Getenv("EQUIV_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad EQUIV_SEED %q: %v", env, err)
		}
		seeds = []int64{seed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			conn := footerStatsWarehouse(t, r)
			pushed, plain := New(), New()
			pushed.Register("hive", conn)
			plain.Register("hive", bare{conn})
			session := DefaultSession("hive", "s")

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

			const answerable = "count(*), count(k), count(n), count(s), count(e), min(k), max(k), min(n), max(n), min(s), max(s), min(e), max(e), min(flag), max(flag), count(dt), min(dt), max(dt)"
			preds := footerStatsPredicates(r)
			before := readerGauges(pushed)
			for i, where := range preds {
				for _, stmt := range []string{
					"SELECT " + answerable + " FROM t WHERE " + where,
					"SELECT count(*), count(d), min(d), max(d), min(n) FROM t WHERE " + where,
				} {
					want, err := plain.Query(session, stmt)
					if err != nil {
						t.Fatalf("%s (bare): %v", stmt, err)
					}
					w := joinAggRows(want.Rows())
					for _, drivers := range []int{1, 4} {
						s := DefaultSession("hive", "s")
						s.Properties["task_concurrency"] = fmt.Sprint(drivers)
						got, err := pushed.Query(s, stmt)
						if err != nil {
							t.Fatalf("%s: %v", stmt, err)
						}
						if g := joinAggRows(got.Rows()); !reflect.DeepEqual(g, w) {
							t.Errorf("drivers=%d %s\n got  %v\n want %v", drivers, stmt, g, w)
						}
					}
					if i%4 == 0 { // through workers too: the handle crosses the wire
						res, err := coord.Query(&planner.Session{Catalog: "hive", Schema: "s", User: "test", Properties: map[string]string{}}, stmt)
						if err != nil {
							t.Fatalf("cluster %s: %v", stmt, err)
						}
						rows, err := res.Rows()
						if err != nil {
							t.Fatalf("cluster %s: %v", stmt, err)
						}
						if g := joinAggRows(rows); !reflect.DeepEqual(g, w) {
							t.Errorf("cluster %s\n got  %v\n want %v", stmt, g, w)
						}
					}
				}
			}
			after := readerGauges(pushed)
			if after["row_groups_answered_stats"] == before["row_groups_answered_stats"] {
				t.Error("no row group was answered from its statistics: the equivalence compares nothing")
			}
			if after["predicates_covered"] == before["predicates_covered"] {
				t.Error("no predicate was covered by statistics")
			}
			if plan, err := pushed.Explain(session, "SELECT "+answerable+" FROM t"); err != nil || !strings.Contains(plan, "aggregation=") {
				t.Errorf("the hive scan absorbs no aggregation (%v):\n%s", err, plan)
			}
			// Double statistics leave NaN out: no predicate on d is ever
			// covered, whatever its row groups' min and max say.
			for _, where := range []string{"d < 1000", "d > -1000", "d <> 1000", "d >= -0.0", "d IN (0.5)"} {
				before := readerGauges(pushed)
				if _, err := pushed.Query(session, "SELECT k FROM t WHERE "+where); err != nil {
					t.Fatal(err)
				}
				if d := readerGauges(pushed)["predicates_covered"] - before["predicates_covered"]; d != 0 {
					t.Errorf("WHERE %s: %v double predicates covered", where, d)
				}
			}
		})
	}
}

// footerStatsWarehouse writes table t, partitioned by p into four
// partitions of one or two files each, with row groups of 8 to 40 rows. Each
// row group draws a shape for n: random, all NULL, one value, or no NULL;
// and holds NULLs in d or not.
// Columns k bigint (never NULL), n bigint, d double (NaN, ±0.0), s varchar,
// flag boolean and dt date; partitions p=2 and p=3 are written after the table
// gained e bigint, so the files of p=0 and p=1 have no e.
func footerStatsWarehouse(t *testing.T, r *rand.Rand) connector.Connector {
	t.Helper()
	ms, fs := footerStatsFiles(t, r, parquet.WriterOptions{})
	return hive.New("hive", ms, fs, hive.Options{})
}

// footerStatsFiles writes footerStatsWarehouse's table with the writer
// options opts and returns its metastore and filesystem. Each file draws its
// own row group size: 8 to 40 rows, or opts.RowGroupRows to 32 more.
func footerStatsFiles(t *testing.T, r *rand.Rand, opts parquet.WriterOptions) (*metastore.Metastore, *hdfs.NameNode) {
	t.Helper()
	fs, ms := hdfs.New(hdfs.Config{}), metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs, WriterOptions: opts}
	col := func(name string, typ *types.Type) metastore.Column { return metastore.Column{Name: name, Type: typ} }
	cols := []metastore.Column{col("k", types.Bigint), col("n", types.Bigint), col("d", types.Double), col("s", types.Varchar), col("flag", types.Boolean), col("dt", types.Date)}
	pick := func(null int, vals ...any) any { // NULL one time in null
		if null > 0 && r.Intn(null) == 0 {
			return nil
		}
		return vals[r.Intn(len(vals))]
	}
	doubles := []any{math.NaN(), math.Copysign(0, -1), 0.0, 0.5, 1.5, -2.5, 7.0}
	strs := []any{"", "a", "ab", "b", "ba", "c"}
	k := int64(0)
	file := func(withE bool) *block.Page {
		typs := []*types.Type{types.Bigint, types.Bigint, types.Double, types.Varchar, types.Boolean, types.Date}
		if withE {
			typs = append(typs, types.Bigint)
		}
		pb := block.NewPageBuilder(typs)
		rowGroup := loader.WriterOptions.RowGroupRows
		for g := 0; g < 1+r.Intn(4); g++ {
			shape, one := r.Intn(4), int64(r.Intn(10))
			dNulls := []int{0, 5}[r.Intn(2)] // a NULL-free d, NaN included, is what statistics could wrongly cover
			for i := 0; i < rowGroup; i++ {
				var n any
				switch shape {
				case 0:
					n = pick(4, int64(r.Intn(10)))
				case 1: // all NULL
				case 2:
					n = one
				default:
					n = int64(r.Intn(10))
				}
				row := []any{k, n, pick(dNulls, doubles...), pick(5, strs...), pick(5, true, false), pick(5, int64(17000+r.Intn(30)))}
				if withE {
					row = append(row, pick(3, int64(r.Intn(10))))
				}
				pb.AppendRow(row)
				k += int64(1 + r.Intn(3))
			}
		}
		return pb.Build()
	}
	write := func(part int, withE bool) {
		loader.WriterOptions.RowGroupRows = max(opts.RowGroupRows, 8) + r.Intn(33)
		pages := []*block.Page{file(withE)}
		if r.Intn(2) == 0 {
			pages = append(pages, file(withE))
		}
		if err := loader.AddPartition("s", "t", "p", fmt.Sprint(part), pages, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ms.CreateTable("s", "t", "/warehouse/s/t", cols, []string{"p"}); err != nil {
		t.Fatal(err)
	}
	write(0, false)
	write(1, false)
	if err := ms.EvolveTable("s", "t", append(cols, col("e", types.Bigint))); err != nil {
		t.Fatal(err)
	}
	write(2, true)
	write(3, true)
	return ms, fs
}

// footerStatsPredicates draws WHERE clauses: every op on every column, with
// literals inside and beyond the data, some conjoined with a partition or a
// second predicate.
func footerStatsPredicates(r *rand.Rand) []string {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	lit := func(column string) string {
		switch column {
		case "s":
			return fmt.Sprintf("'%s'", []string{"", "a", "ab", "b", "bb", "c", "d"}[r.Intn(7)])
		case "flag":
			return []string{"true", "false"}[r.Intn(2)]
		case "d":
			return []string{"-0.0", "0.0", "0.5", "1.5", "100.0", "-3.0"}[r.Intn(6)]
		case "k":
			return fmt.Sprint(r.Intn(400) - 20)
		default:
			return fmt.Sprint(r.Intn(14) - 2)
		}
	}
	one := func() string {
		c := []string{"k", "n", "s", "e", "d", "flag", "k", "n"}[r.Intn(8)]
		if r.Intn(6) == 0 && c != "flag" {
			return fmt.Sprintf("%s IN (%s, %s)", c, lit(c), lit(c))
		}
		op := ops[r.Intn(len(ops))]
		if c == "flag" {
			op = []string{"=", "<>"}[r.Intn(2)]
		}
		return fmt.Sprintf("%s %s %s", c, op, lit(c))
	}
	out := []string{"k >= 0", "n IS NULL OR n >= 0", "p = '3'", "p = 'none'", "k < -1", "e = 3", "e <> 100"}
	for i := 0; i < 36; i++ {
		w := one()
		switch r.Intn(4) {
		case 0:
			w += " AND " + one()
		case 1:
			w += fmt.Sprintf(" AND p <> '%d'", r.Intn(4))
		}
		out = append(out, w)
	}
	return out
}
