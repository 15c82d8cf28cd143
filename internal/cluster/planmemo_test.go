package cluster

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/connectors/mysql"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/mysqlite"
	"prestolite/internal/planner"
	"prestolite/internal/sql"
	"prestolite/internal/tpch"
	"prestolite/internal/types"
)

// planMemoGauge reads one coordinator.cache.plan.* gauge.
func planMemoGauge(coord *Coordinator, name string) float64 {
	return coord.Obs().Snapshot().Gauges["coordinator.cache.plan."+name]
}

// freshPlan parses and plans stmt as a coordinator would without its memo.
func freshPlan(t *testing.T, coord *Coordinator, s *planner.Session, stmt string) planner.Node {
	t.Helper()
	q, err := sql.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.PlanQuery(coord.Catalogs, s, q.(*sql.Query))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// queryRows runs stmt and returns its rows.
func queryRows(t *testing.T, coord *Coordinator, s *planner.Session, stmt string) [][]any {
	t.Helper()
	res, err := coord.Query(s, stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	rows, err := res.Rows()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// sameRows compares two answers value by value; doubles match to a relative
// 1e-9, since a sum's rounding follows the order its splits arrive in.
func sameRows(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, isFloat := a[i][j].(float64)
			y, bothFloat := b[i][j].(float64)
			switch {
			case isFloat && bothFloat:
				if math.Abs(x-y) > 1e-9*max(math.Abs(x), math.Abs(y), 1) {
					return false
				}
			case !reflect.DeepEqual(a[i][j], b[i][j]):
				return false
			}
		}
	}
	return true
}

// TestPlanMemoDifferential: for every statement of the dashboard benchmark
// and of the result-cache fixtures, at each of three table versions, the
// plan the memo keeps decodes to a plan that encodes to the same bytes as a
// fresh PlanQuery at that version, under the same result-cache key; the
// memoised statement then runs from the decoded plan to the same rows.
func TestPlanMemoDifferential(t *testing.T) {
	fs := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	cols := make([]metastore.Column, len(tpch.LineItemColumns))
	for i, c := range tpch.LineItemColumns {
		cols[i] = metastore.Column{Name: c.Name, Type: c.Type}
	}
	if err := loader.CreatePartitionedTable("tpch", "lineitem", cols, "ds",
		map[string][]*block.Page{"d0": {tpch.GeneratePage(dashDataSeed, 500)}}, map[string]bool{"d0": true}); err != nil {
		t.Fatal(err)
	}
	catalogs, _, tripsLoader := resultCacheFixture(t)
	catalogs.Register("tpch", hive.New("tpch", ms, fs, hive.Options{}))
	coord, _ := newCluster(t, catalogs, 2)

	dash := &planner.Session{Catalog: "tpch", Schema: "tpch", User: "dash", Properties: map[string]string{}}
	type stmt struct {
		s   *planner.Session
		sql string
	}
	var stmts []stmt
	for _, q := range dashboardQueries {
		stmts = append(stmts, stmt{dash, q})
	}
	for _, q := range []string{
		"SELECT city_id, count(*) AS n FROM trips GROUP BY city_id ORDER BY 1",
		"SELECT city_id, fare FROM trips WHERE datestr IN ('2017-03-01', '2017-03-02')",
		"SELECT city_id, fare FROM trips WHERE datestr IN ('2017-03-01,2017-03-02')",
		"SELECT city_id, count(*) AS n, sum(fare) AS f FROM trips WHERE fare <= 7 GROUP BY city_id ORDER BY 1",
		"SELECT count(*) FROM trips",
		"SELECT count(*) FROM trips WHERE city_id >= 0",
	} {
		stmts = append(stmts, stmt{session(), q})
	}

	for version := 0; version < 3; version++ {
		if version > 0 {
			day := fmt.Sprintf("d%d", version)
			if err := loader.AddPartition("tpch", "lineitem", "ds", day, []*block.Page{tpch.GeneratePage(dashDataSeed+int64(version), 500)}, true); err != nil {
				t.Fatal(err)
			}
			pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Double})
			pb.AppendRow([]any{int64(version), float64(version)})
			if err := tripsLoader.AddPartition("rawdata", "trips", "datestr", "2017-04-0"+fmt.Sprint(version), []*block.Page{pb.Build()}, true); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range stmts {
			planned := queryRows(t, coord, st.s, st.sql)
			e, ok := coord.planMemo.Get(planMemoKey(st.s, st.sql))
			if !ok {
				t.Fatalf("version %d: %s was not memoised", version, st.sql)
			}
			fresh := freshPlan(t, coord, st.s, st.sql)
			want, _ := keyPlan(fresh)
			decoded, err := coord.decodePlan(e)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(planner.Encode(decoded), planner.Encode(fresh)) {
				t.Errorf("version %d: %s: the memo's plan encodes apart from a fresh plan", version, st.sql)
			}
			if got, _ := keyPlan(decoded); got.resultKey != want.resultKey || e.resultKey != want.resultKey {
				t.Errorf("version %d: %s: the memo's result-cache key differs from a fresh plan's", version, st.sql)
			}
			hits := planMemoGauge(coord, "hits")
			if memoised := queryRows(t, coord, st.s, st.sql); !sameRows(memoised, planned) {
				t.Errorf("version %d: %s: memoised run = %v, planned run = %v", version, st.sql, memoised, planned)
			}
			if planMemoGauge(coord, "hits") != hits+1 {
				t.Errorf("version %d: %s: the repeat did not hit the memo", version, st.sql)
			}
		}
	}
}

// TestPlanMemoVersionMoves: an AddPartition between two runs of one
// statement makes the second miss the memo and plan again, and its rows
// are the new ones.
func TestPlanMemoVersionMoves(t *testing.T) {
	catalogs, _, loader := resultCacheFixture(t)
	coord, _ := newCluster(t, catalogs, 2)
	q := "SELECT count(*) FROM trips"
	count := func() int64 { return queryRows(t, coord, session(), q)[0][0].(int64) }

	if n := count(); n != 10 {
		t.Fatalf("count = %d, want 10", n)
	}
	if n := count(); n != 10 || planMemoGauge(coord, "hits") != 1 {
		t.Fatalf("repeat: count = %d, plan hits = %v", n, planMemoGauge(coord, "hits"))
	}
	pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Double})
	for i := 0; i < 5; i++ {
		pb.AppendRow([]any{int64(i), float64(i)})
	}
	if err := loader.AddPartition("rawdata", "trips", "datestr", "2017-03-02", []*block.Page{pb.Build()}, true); err != nil {
		t.Fatal(err)
	}
	misses := planMemoGauge(coord, "misses")
	if n := count(); n != 15 {
		t.Errorf("after AddPartition: count = %d, want 15 (a stale plan served?)", n)
	}
	if planMemoGauge(coord, "misses") != misses+1 || planMemoGauge(coord, "hits") != 1 {
		t.Errorf("after AddPartition: plan misses %v -> %v, hits %v", misses, planMemoGauge(coord, "misses"), planMemoGauge(coord, "hits"))
	}
	if n := count(); n != 15 || planMemoGauge(coord, "hits") != 2 {
		t.Errorf("repeat at the new version: count = %d, plan hits = %v", n, planMemoGauge(coord, "hits"))
	}
}

// growingHive is a hive catalog whose table metadata moves while it is
// planned: each GetTable registers one more partition first, as a writer
// racing the planner would.
type growingHive struct {
	*hive.Connector
	loader *hive.Loader
	mu     sync.Mutex
	added  int
}

func (g *growingHive) Metadata() connector.Metadata { return growingMetadata{g} }

type growingMetadata struct{ g *growingHive }

func (m growingMetadata) ListTables(schema string) ([]string, error) {
	return m.g.Connector.Metadata().ListTables(schema)
}

func (m growingMetadata) GetTable(schema, table string) (*connector.TableSchema, connector.TableHandle, error) {
	m.g.mu.Lock()
	m.g.added++
	day := fmt.Sprintf("2017-05-%02d", m.g.added)
	m.g.mu.Unlock()
	pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Double})
	pb.AppendRow([]any{int64(1), float64(1)})
	if err := m.g.loader.AddPartition(schema, table, "datestr", day, []*block.Page{pb.Build()}, true); err != nil {
		return nil, nil, err
	}
	return m.g.Connector.Metadata().GetTable(schema, table)
}

// TestPlanMemoMidPlanChange: a table whose version moves while a statement
// is planned keys the plan by the version read before its metadata, so the
// next run finds the entry stale and plans again. Neither the memo nor the
// result cache ever serves it, and each run counts the partition its own
// planning added.
func TestPlanMemoMidPlanChange(t *testing.T) {
	_, ms, loader := resultCacheFixture(t)
	catalogs := connector.NewRegistry()
	catalogs.Register("hive", &growingHive{Connector: hive.New("hive", ms, loader.FS, hive.Options{}), loader: loader})
	coord, _ := newCluster(t, catalogs, 2)
	coord.EnableResultCache(64, 8<<20, time.Hour)

	for run := 1; run <= 4; run++ {
		if n := queryRows(t, coord, session(), "SELECT count(*) FROM trips")[0][0].(int64); n != int64(10+run) {
			t.Errorf("run %d: count = %d, want %d", run, n, 10+run)
		}
		if coord.QueryInfos()[0].FromCache {
			t.Errorf("run %d was served from the result cache", run)
		}
	}
	if hits := planMemoGauge(coord, "hits"); hits != 0 {
		t.Errorf("plan memo hits = %v, want 0", hits)
	}
	if hits := coord.Obs().Snapshot().Gauges["coordinator.cache.result.hits"]; hits != 0 {
		t.Errorf("result cache hits = %v, want 0", hits)
	}
}

// TestPlanMemoNeverMemoised: statements over tables without a version —
// memory, mysql, a hive table with an open partition — EXPLAIN, EXPLAIN
// ANALYZE and a statement that fails leave nothing in the memo, and a
// memoised statement's EXPLAIN text is what a fresh plan renders.
func TestPlanMemoNeverMemoised(t *testing.T) {
	catalogs := newCatalogs(t)
	db := mysqlite.New()
	if _, err := db.CreateTable("cities", []mysqlite.Column{{Name: "city_id", Type: types.Bigint}}, "city_id"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("cities", []any{int64(12)}); err != nil {
		t.Fatal(err)
	}
	catalogs.Register("mysql", mysql.New("mysql", "prod", db))
	fs := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	pb := block.NewPageBuilder([]*types.Type{types.Bigint})
	pb.AppendRow([]any{int64(1)})
	if err := loader.CreatePartitionedTable("rawdata", "events", []metastore.Column{{Name: "city_id", Type: types.Bigint}}, "datestr",
		map[string][]*block.Page{"today": {pb.Build()}}, map[string]bool{"today": false}); err != nil {
		t.Fatal(err)
	}
	catalogs.Register("open", hive.New("open", ms, fs, hive.Options{}))
	coord, _ := newCluster(t, catalogs, 2)

	for _, q := range []string{
		"SELECT count(*) FROM memory.meta.cities",
		"SELECT city_id FROM mysql.prod.cities",
		"SELECT count(*) FROM open.rawdata.events",
		"SELECT t.city_id, c.name FROM trips t JOIN memory.meta.cities c ON t.city_id = c.city_id",
		"SELECT 1 + 2",
		"EXPLAIN SELECT count(*) FROM trips",
		"EXPLAIN ANALYZE SELECT count(*) FROM trips",
	} {
		for i := 0; i < 2; i++ {
			queryRows(t, coord, session(), q)
		}
		if n := coord.planMemo.Len(); n != 0 {
			t.Fatalf("%s left %d memo entries", q, n)
		}
	}
	// A statement that plans but fails to run is not memoised either.
	capped := session()
	capped.Properties["query_max_memory"] = "16"
	if _, err := coord.Query(capped, "SELECT city_id, count(*) FROM trips GROUP BY city_id"); err == nil {
		t.Fatal("a grouped aggregation under a 16-byte query_max_memory ran")
	}
	if n := coord.planMemo.Len(); n != 0 {
		t.Fatalf("a failed statement left %d memo entries", n)
	}

	const q = "SELECT city_id, count(*) AS n FROM trips GROUP BY city_id"
	explain := func() string { return queryRows(t, coord, session(), "EXPLAIN "+q)[0][0].(string) }
	before := explain()
	queryRows(t, coord, session(), q)
	queryRows(t, coord, session(), q)
	if hits := planMemoGauge(coord, "hits"); hits != 1 {
		t.Fatalf("plan memo hits = %v, want 1", hits)
	}
	fragmenter := &planner.Fragmenter{}
	want := planner.FormatFragments(fragmenter.Fragment(freshPlan(t, coord, session(), q)))
	if after := explain(); after != before || after != want {
		t.Errorf("EXPLAIN changed beside the memo:\nbefore\n%s\nafter\n%s\nfresh\n%s", before, after, want)
	}
}

// TestPlanMemoKeyInputs: sessions that differ only in catalog, in schema or
// in one property plan the same text apart, each into its own entry, and
// each reads its own table. The property changes no plan, so that session's
// first run is a result-cache hit on the base session's answer, and it is
// memoised all the same.
func TestPlanMemoKeyInputs(t *testing.T) {
	tripsOf := func(ms *metastore.Metastore, fs *hdfs.NameNode, schema string, rows int) {
		t.Helper()
		pb := block.NewPageBuilder([]*types.Type{types.Bigint})
		for i := 0; i < rows; i++ {
			pb.AppendRow([]any{int64(i)})
		}
		loader := &hive.Loader{MS: ms, FS: fs}
		if err := loader.CreateTable(schema, "trips", []metastore.Column{{Name: "city_id", Type: types.Bigint}}, []*block.Page{pb.Build()}); err != nil {
			t.Fatal(err)
		}
	}
	fsA, msA := hdfs.New(hdfs.Config{}), metastore.New()
	tripsOf(msA, fsA, "rawdata", 3)
	tripsOf(msA, fsA, "other", 5)
	fsB, msB := hdfs.New(hdfs.Config{}), metastore.New()
	tripsOf(msB, fsB, "rawdata", 7)
	catalogs := connector.NewRegistry()
	catalogs.Register("hive", hive.New("hive", msA, fsA, hive.Options{}))
	catalogs.Register("hive2", hive.New("hive2", msB, fsB, hive.Options{}))
	coord, _ := newCluster(t, catalogs, 2)
	coord.EnableResultCache(64, 8<<20, time.Hour)

	const q = "SELECT count(*) FROM trips"
	base := session()
	otherCatalog := session()
	otherCatalog.Catalog = "hive2"
	otherSchema := session()
	otherSchema.Schema = "other"
	otherProperty := session()
	otherProperty.Properties["task_concurrency"] = "2"
	for round := 0; round < 2; round++ {
		for _, tc := range []struct {
			name string
			s    *planner.Session
			want int64
		}{
			{"base", base, 3},
			{"catalog", otherCatalog, 7},
			{"schema", otherSchema, 5},
			{"property", otherProperty, 3},
		} {
			if n := queryRows(t, coord, tc.s, q)[0][0].(int64); n != tc.want {
				t.Errorf("round %d, %s: count = %d, want %d", round, tc.name, n, tc.want)
			}
		}
	}
	if n := coord.planMemo.Len(); n != 4 {
		t.Errorf("memo entries = %d, want 4", n)
	}
	if hits, misses := planMemoGauge(coord, "hits"), planMemoGauge(coord, "misses"); hits != 4 || misses != 4 {
		t.Errorf("plan hits, misses = %v, %v; want 4, 4", hits, misses)
	}
}

// TestPlanMemoConcurrentHitsBesideAddPartition: clients repeat a statement
// while partitions are added under them; every answer counts the partitions
// of some version between its submission and its end, and once the writer
// stops the answer is the last version's. Run it with -race.
func TestPlanMemoConcurrentHitsBesideAddPartition(t *testing.T) {
	catalogs, _, loader := resultCacheFixture(t)
	coord, _ := newCluster(t, catalogs, 2)
	coord.EnableResultCache(64, 8<<20, time.Hour)
	const q = "SELECT count(*) FROM trips"
	const adds = 8

	var mu sync.Mutex
	added := 0
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	stop := make(chan struct{})
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				lo := 10 + added
				mu.Unlock()
				res, err := coord.Query(session(), q)
				if err != nil {
					errs <- err
					return
				}
				rows, err := res.Rows()
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				hi := 10 + added
				mu.Unlock()
				if n := rows[0][0].(int64); n < int64(lo) || n > int64(hi) {
					errs <- fmt.Errorf("count = %d, want one in [%d, %d]", n, lo, hi)
					return
				}
			}
		}()
	}
	for i := 1; i <= adds; i++ {
		pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Double})
		pb.AppendRow([]any{int64(i), float64(i)})
		mu.Lock()
		err := loader.AddPartition("rawdata", "trips", "datestr", fmt.Sprintf("2017-06-%02d", i), []*block.Page{pb.Build()}, true)
		added++
		mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := queryRows(t, coord, session(), q)[0][0].(int64); n != 10+adds {
		t.Errorf("after the writer stopped: count = %d, want %d", n, 10+adds)
	}
}
