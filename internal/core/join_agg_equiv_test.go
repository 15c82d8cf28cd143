package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
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
	"prestolite/internal/types"
)

// Partial aggregation through a join, checked against itself with the rule
// blocked: each statement runs as written, where the optimizer splits its
// aggregate into a PARTIAL below the join and a FINAL above it, and with its
// join wrapped in (SELECT * … LIMIT 1000000000), which the rule cannot see
// through, so the aggregate stays whole above the join. Data comes from a
// seed; replay a failure with
// EQUIV_SEED=<seed> go test -run TestAggregationThroughJoinEquivalence ./internal/core/.
//
// Doubles are multiples of 0.5 with small magnitudes, NaN, −0.0 and +0.0, so
// sums are exact in any order, and min/max and NaN do not depend on it either.

const joinAggNoRule = "(SELECT * FROM %s LIMIT 1000000000) j"

// joinAggShapes: each statement's %s is its FROM relation.
var joinAggShapes = []struct{ name, sql, from string }{
	{"count star", "SELECT count(*) FROM %s", "f JOIN d ON fk = dk"},
	{"count with NULLs", "SELECT dg, count(fx), count(fare) FROM %s GROUP BY dg", "f JOIN d ON fk = dk"},
	{"doubles with NaN and zeros", "SELECT dg, sum(fx), avg(fx), min(fx), max(fx) FROM %s GROUP BY dg", "f JOIN d ON fk = dk"},
	{"approx_distinct", "SELECT dg, approx_distinct(fg), approx_distinct(fx) FROM %s GROUP BY dg", "f JOIN d ON fk = dk"},
	{"probe-side keys", "SELECT fg, fk2, count(*), sum(fare), max(fx) FROM %s GROUP BY fg, fk2", "f JOIN d ON fk = dk"},
	{"both sides' keys", "SELECT fg, dg, count(*), min(fare) FROM %s GROUP BY fg, dg", "f JOIN d ON fk = dk"},
	{"expression argument", "SELECT dg, sum(fare + tip), avg(fare + tip), max(fare + tip) FROM %s GROUP BY dg", "f JOIN d ON fk = dk"},
	{"build-side argument", "SELECT fg, sum(dpop), count(*) FROM %s GROUP BY fg", "f JOIN d ON fk = dk"},
	{"NULL, NaN and zero join keys", "SELECT dg, count(*), sum(fare) FROM %s GROUP BY dg", "f JOIN d ON fd = dd"},
	{"two-key join", "SELECT dg, count(*), sum(tip) FROM %s GROUP BY dg", "f JOIN d ON fk = dk AND fk2 = dk2"},
	{"empty join", "SELECT count(*), count(fx), sum(fare), avg(fare), min(fx), max(fx) FROM %s WHERE dg = 'none'", "f JOIN d ON fk = dk"},
	{"two joins", "SELECT dg, eg, count(*), sum(fare) FROM %s GROUP BY dg, eg", "f JOIN d ON fk = dk JOIN e ON fk2 = ek"},
	{"dimension first", "SELECT dg, count(*), sum(fare) FROM %s GROUP BY dg", "d JOIN f ON dk = fk"},
}

func joinAggSeeds(t *testing.T) []int64 {
	if env := os.Getenv("EQUIV_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad EQUIV_SEED %q: %v", env, err)
		}
		return []int64{seed}
	}
	return []int64{1, 7, 42}
}

// joinAggWarehouse writes fact f (three files) and dimensions d and e (two
// files each) into a hive catalog. Dimension keys repeat, so one partial row
// joins several build rows; every key column holds NULLs, and the double
// keys NaN, −0.0 and +0.0.
func joinAggWarehouse(t *testing.T, seed int64) connector.Connector {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	pick := func(null int, vals ...any) any { // NULL one time in null
		if null > 0 && r.Intn(null) == 0 {
			return nil
		}
		return vals[r.Intn(len(vals))]
	}
	half := func() any { return float64(r.Intn(41)-20) / 2 }
	dkeys := []any{0.0, negZero, nan, 1.5, 2.5}
	ints := func(n int) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	fs, ms := hdfs.New(hdfs.Config{}), metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	table := func(name string, cols []metastore.Column, files, rows int, row func() []any) {
		typs := make([]*types.Type, len(cols))
		for i, c := range cols {
			typs[i] = c.Type
		}
		var pages []*block.Page
		for f := 0; f < files; f++ {
			pb := block.NewPageBuilder(typs)
			for i := 0; i < rows; i++ {
				pb.AppendRow(row())
			}
			pages = append(pages, pb.Build())
		}
		if err := loader.CreateTable("s", name, cols, pages); err != nil {
			t.Fatal(err)
		}
	}
	col := func(name string, typ *types.Type) metastore.Column { return metastore.Column{Name: name, Type: typ} }
	table("f", []metastore.Column{col("fk", types.Bigint), col("fk2", types.Bigint), col("fd", types.Double),
		col("fg", types.Varchar), col("fare", types.Double), col("tip", types.Double), col("fx", types.Double)}, 3, 60,
		func() []any {
			fx := pick(6, half(), nan, 0.0, negZero)
			if fx != nil && r.Intn(2) == 0 {
				fx = half()
			}
			return []any{pick(10, ints(9)...), pick(10, ints(3)...), pick(8, dkeys...),
				pick(8, "a", "b", "c"), pick(10, half()), half(), fx}
		})
	table("d", []metastore.Column{col("dk", types.Bigint), col("dk2", types.Bigint), col("dd", types.Double),
		col("dg", types.Varchar), col("dpop", types.Bigint)}, 2, 6,
		func() []any {
			return []any{pick(8, ints(7)...), pick(8, ints(3)...), pick(8, dkeys...), pick(8, "x", "y"), pick(6, ints(100)...)}
		})
	table("e", []metastore.Column{col("ek", types.Bigint), col("eg", types.Varchar)}, 2, 3,
		func() []any { return []any{pick(6, ints(3)...), pick(6, "p", "q")} })
	return hive.New("hive", ms, fs, hive.Options{})
}

// joinAggRows renders rows as a sorted multiset; a double prints by value,
// so −0.0 and +0.0 (which min and max may return either of) print alike.
func joinAggRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			if x, ok := v.(float64); ok && x == 0 {
				v = 0.0
			}
			cells[j] = fmt.Sprintf("%#v", v)
		}
		out[i] = strings.Join(cells, ", ")
	}
	sort.Strings(out)
	return out
}

// An argument that can fail stays above the join: the row with x = 0 has no
// match, so 10 / x never runs on it.
func TestAggregationThroughJoinSkipsFailingArguments(t *testing.T) {
	mem := memory.New("memory")
	for name, rows := range map[string][][]any{"f": {{int64(1), int64(2)}, {int64(2), int64(0)}}, "d": {{int64(1), int64(0)}}} {
		cols := []connector.Column{{Name: name + "k", Type: types.Bigint}, {Name: name + "x", Type: types.Bigint}}
		if err := mem.CreateTable("s", name, cols, nil); err != nil {
			t.Fatal(err)
		}
		if err := mem.AppendRows("s", name, rows); err != nil {
			t.Fatal(err)
		}
	}
	e := New()
	e.Register("memory", mem)
	const q = "SELECT sum(10 / fx) FROM f JOIN d ON fk = dk"
	if plan, err := e.Explain(DefaultSession("memory", "s"), q); err != nil {
		t.Fatal(err)
	} else if strings.Contains(plan, "Aggregate(PARTIAL)") {
		t.Errorf("10 / fx moved below the join:\n%s", plan)
	}
	res, err := e.Query(DefaultSession("memory", "s"), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows(); !reflect.DeepEqual(got, [][]any{{int64(5)}}) {
		t.Errorf("got %v, want [[5]]", got)
	}
}

func TestAggregationThroughJoinEquivalence(t *testing.T) {
	for _, seed := range joinAggSeeds(t) {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			conn := joinAggWarehouse(t, seed)
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
			for _, sh := range joinAggShapes {
				stmt := fmt.Sprintf(sh.sql, sh.from)
				reference := fmt.Sprintf(sh.sql, fmt.Sprintf(joinAggNoRule, sh.from))
				session := DefaultSession("hive", "s")
				if plan, err := e.Explain(session, stmt); err != nil {
					t.Fatalf("%s: %v", stmt, err)
				} else if join, partial := strings.Index(plan, "Join["), strings.LastIndex(plan, "Aggregate(PARTIAL)"); join < 0 || partial < join {
					t.Errorf("%s: no partial aggregation under the join:\n%s", sh.name, plan)
				}
				if plan, err := e.Explain(session, reference); err != nil {
					t.Fatalf("%s: %v", reference, err)
				} else if strings.Contains(plan, "Aggregate(PARTIAL)") {
					t.Errorf("%s: the reference plans a partial aggregation:\n%s", sh.name, plan)
				}

				var want []string
				for _, q := range []string{reference, stmt} {
					for _, drivers := range []int{1, 8} {
						s := DefaultSession("hive", "s")
						s.Properties["task_concurrency"] = fmt.Sprint(drivers)
						res, err := e.Query(s, q)
						if err != nil {
							t.Fatalf("drivers=%d %s: %v", drivers, q, err)
						}
						got := joinAggRows(res.Rows())
						if want == nil {
							want = got
						} else if !reflect.DeepEqual(got, want) {
							t.Errorf("%s, drivers=%d\n%s\n got  %v\n want %v", sh.name, drivers, q, got, want)
						}
					}
					res, err := coord.Query(&planner.Session{Catalog: "hive", Schema: "s", User: "test", Properties: map[string]string{}}, q)
					if err != nil {
						t.Fatalf("cluster %s: %v", q, err)
					}
					rows, err := res.Rows()
					if err != nil {
						t.Fatal(err)
					}
					if got := joinAggRows(rows); !reflect.DeepEqual(got, want) {
						t.Errorf("%s, cluster\n%s\n got  %v\n want %v", sh.name, q, got, want)
					}
				}
			}
		})
	}
}
