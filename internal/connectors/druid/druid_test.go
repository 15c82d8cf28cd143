package druid

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	"prestolite/internal/core"
	driver "prestolite/internal/druid"
	"prestolite/internal/types"
)

func newDruidEngine(t *testing.T) (*core.Engine, *driver.Store) {
	t.Helper()
	store := driver.NewStore()
	tab, err := store.CreateTable("events", []driver.Column{
		{Name: "country", Type: types.Varchar},
		{Name: "device", Type: types.Varchar},
		{Name: "clicks", Type: types.Bigint},
		{Name: "revenue", Type: types.Double},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Ingest([][]any{
		{"us", "ios", int64(10), 1.5},
		{"us", "android", int64(20), 2.5},
		{"de", "ios", int64(5), 0.5},
		{"jp", "android", int64(3), 0.3},
		{"us", "ios", int64(7), 0.9},
	}); err != nil {
		t.Fatal(err)
	}
	e := core.New()
	e.Register("druid", New("druid", &driver.EmbeddedClient{Store: store}))
	return e, store
}

func TestDruidConnectorBasics(t *testing.T) {
	e, _ := newDruidEngine(t)
	s := core.DefaultSession("druid", "default")

	res, err := e.Query(s, "SELECT country, clicks FROM events WHERE device = 'ios' ORDER BY clicks DESC")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 3 || rows[0][1] != int64(10) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAggregationPushdownPlan(t *testing.T) {
	e, _ := newDruidEngine(t)
	s := core.DefaultSession("druid", "default")
	// The Fig 2 query shape: SELECT columnA, max(columnB) FROM T WHERE
	// predicate GROUP BY columnA.
	plan, err := e.Explain(s, `SELECT country, max(clicks) FROM events
		WHERE device = 'ios' GROUP BY country`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "aggregationPushdown=[max(clicks)]") {
		t.Errorf("plan missing aggregation pushdown:\n%s", plan)
	}
	if !strings.Contains(plan, `filter[device = "ios"]`) {
		t.Errorf("plan missing filter pushdown:\n%s", plan)
	}
	// No engine-side Aggregate remains: druid does the aggregation.
	if strings.Contains(plan, "Aggregate(") {
		t.Errorf("aggregate not absorbed:\n%s", plan)
	}
}

func TestAggregationPushdownResults(t *testing.T) {
	e, _ := newDruidEngine(t)
	s := core.DefaultSession("druid", "default")
	res, err := e.Query(s, `SELECT country, sum(clicks) AS c, count(*) AS n
		FROM events GROUP BY country ORDER BY c DESC`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "us" || rows[0][1] != int64(37) || rows[0][2] != int64(3) {
		t.Errorf("us row = %v", rows[0])
	}
}

func TestPushdownMatchesEngineAggregation(t *testing.T) {
	// The same query with pushdown disabled (session property is not the
	// mechanism here; instead compare against a fresh engine whose optimizer
	// cannot push because of a HAVING over a non-pushable aggregate).
	e, _ := newDruidEngine(t)
	s := core.DefaultSession("druid", "default")
	// count(distinct ...) cannot push down; engine aggregates raw rows.
	res, err := e.Query(s, "SELECT count(distinct country) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0] != int64(3) {
		t.Fatalf("rows = %v", res.Rows())
	}
	plan, _ := e.Explain(s, "SELECT count(distinct country) FROM events")
	if !strings.Contains(plan, "Aggregate(") {
		t.Errorf("distinct aggregate should stay in the engine:\n%s", plan)
	}
}

func TestGlobalAggPushdown(t *testing.T) {
	e, _ := newDruidEngine(t)
	s := core.DefaultSession("druid", "default")
	res, err := e.Query(s, "SELECT sum(revenue), avg(clicks) FROM events WHERE country = 'us'")
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows()[0]
	if rv := row[0].(float64); rv < 4.89 || rv > 4.91 {
		t.Errorf("sum = %v", rv)
	}
	plan, _ := e.Explain(s, "SELECT sum(revenue) FROM events WHERE country = 'us'")
	if !strings.Contains(plan, "aggregationPushdown") {
		t.Errorf("global agg not pushed:\n%s", plan)
	}
}

func TestLimitPushdownGuaranteed(t *testing.T) {
	e, _ := newDruidEngine(t)
	s := core.DefaultSession("druid", "default")
	plan, err := e.Explain(s, "SELECT country FROM events LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "limit=2") {
		t.Errorf("limit not pushed:\n%s", plan)
	}
	// Guaranteed: the engine Limit disappears.
	if strings.Contains(plan, "- Limit[") {
		t.Errorf("engine limit should be removed:\n%s", plan)
	}
	res, err := e.Query(s, "SELECT country FROM events LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount() != 2 {
		t.Fatalf("rows = %v", res.Rows())
	}
}

func TestJoinDruidWithOtherCatalog(t *testing.T) {
	// Full SQL over druid: joins run in the engine while the scan side
	// pushes down (bridging sub-second stores with full SQL, §IV.B).
	e, _ := newDruidEngine(t)
	s := core.DefaultSession("druid", "default")
	res, err := e.Query(s, `SELECT a.country, a.clicks, b.clicks
		FROM events a JOIN events b ON a.country = b.country AND a.device = b.device
		WHERE a.country = 'jp'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount() != 1 {
		t.Fatalf("rows = %v", res.Rows())
	}
}

func TestHTTPConnector(t *testing.T) {
	store := driver.NewStore()
	tab, _ := store.CreateTable("metrics", []driver.Column{
		{Name: "service", Type: types.Varchar},
		{Name: "errors", Type: types.Bigint},
	})
	tab.Ingest([][]any{{"api", int64(3)}, {"web", int64(1)}, {"api", int64(2)}})
	srv := driver.NewServer(store)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn := New("druid", driver.NewHTTPClient(srv.Addr()))
	e := core.New()
	e.Register("druid", conn)
	s := core.DefaultSession("druid", "default")
	res, err := e.Query(s, "SELECT service, sum(errors) FROM metrics GROUP BY service ORDER BY 2 DESC")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != "api" || rows[0][1] != int64(5) {
		t.Fatalf("rows = %v", rows)
	}

	// A raw scan hands the engine the broker's pages as they came: the
	// string column is still the store's dictionary block.
	_, handle, err := conn.Metadata().GetTable("default", "metrics")
	if err != nil {
		t.Fatal(err)
	}
	splits, err := conn.SplitManager().Splits(handle)
	if err != nil {
		t.Fatal(err)
	}
	src, err := conn.RecordSetProvider().CreatePageSource(handle, splits[0], []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	page, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := page.Blocks[1].(*block.DictionaryBlock); !ok || page.Count() != 3 {
		t.Errorf("service arrived as %T over %d rows, want a dictionary block over 3", page.Blocks[1], page.Count())
	}
	if got := page.Row(2); got[0] != int64(2) || got[1] != "api" {
		t.Errorf("row 2 = %v, want [2 api]", got)
	}
}

// TestSelectAllNullStringColumn: a varchar column that is NULL in every row of
// a segment has ids and an empty dictionary, and the store hands that out as
// it is. Every way a result leaves — flattened by the embedded engine, framed
// by the broker, encoded by a worker and flattened by the coordinator — reads
// it as NULLs, in a compacted, a sealed and the open segment alike.
func TestSelectAllNullStringColumn(t *testing.T) {
	store := driver.NewStore()
	tab, err := store.CreateTable("t", []driver.Column{
		{Name: "ts", Type: types.Bigint},
		{Name: "s", Type: types.Varchar},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetSegmentConfig(driver.SegmentConfig{SealRows: 3, CompactBelowRows: 4, CompactBatch: 2})
	next := int64(0)
	grow := func(vals ...any) {
		t.Helper()
		rows := make([][]any, len(vals))
		for i, v := range vals {
			rows[i] = []any{next, v}
			next++
		}
		if err := tab.Append(rows, time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	grow(nil, nil, nil, nil, nil, nil)
	tab.Maintain(time.Unix(0, 0)) // ts 0–5: two sealed segments compacted into one
	grow(nil, nil, nil)           // ts 6–8: sealed
	grow("a", nil, "b")           // ts 9–11: sealed, the one segment with a dictionary
	grow(nil, nil)                // ts 12–13: open
	if st := tab.Stats(); st.Compacted != 1 || st.Sealed != 2 || st.OpenRows != 2 {
		t.Fatalf("fixture is not in all three states: %+v", st)
	}

	srv := driver.NewServer(store)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	embedded, overHTTP := core.New(), core.New()
	embedded.Register("druid", New("druid", &driver.EmbeddedClient{Store: store}))
	overHTTP.Register("druid", New("druid", driver.NewHTTPClient(srv.Addr())))
	reg := connector.NewRegistry()
	reg.Register("druid", New("druid", &driver.EmbeddedClient{Store: store}))
	coord, worker := cluster.NewCoordinator(reg), cluster.NewWorker(reg)
	if err := worker.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	defer coord.Close()
	coord.AddWorker(worker.Addr())

	session := core.DefaultSession("druid", "default")
	engines := map[string]func(sql string) ([][]any, error){
		"embedded": func(sql string) ([][]any, error) {
			res, err := embedded.Query(session, sql)
			if err != nil {
				return nil, err
			}
			return res.Rows(), nil
		},
		"http broker": func(sql string) ([][]any, error) {
			res, err := overHTTP.Query(session, sql)
			if err != nil {
				return nil, err
			}
			return res.Rows(), nil
		},
		"cluster": func(sql string) ([][]any, error) {
			res, err := coord.Query(session, sql)
			if err != nil {
				return nil, err
			}
			return res.Rows()
		},
	}
	nulls := func(n int) []any { return make([]any, n) }
	for _, tc := range []struct {
		sql  string
		want []any // column s, in ts order
	}{
		{"SELECT s, ts FROM t ORDER BY ts", append(append(nulls(9), "a", nil, "b"), nulls(2)...)},
		{"SELECT s, ts FROM t WHERE ts >= 0 ORDER BY ts", append(append(nulls(9), "a", nil, "b"), nulls(2)...)}, // covers every segment
		{"SELECT s, ts FROM t WHERE ts IN (1, 4, 7, 10, 13) ORDER BY ts", nulls(5)},                             // a Mask of each segment
		{"SELECT s, ts FROM t WHERE ts < 8 ORDER BY ts", nulls(8)},
		{"SELECT s, ts FROM t WHERE s IS NULL ORDER BY ts", nulls(12)}, // the engine's filter over the dictionary
		{"SELECT s, ts FROM t WHERE s = 'a' ORDER BY ts", []any{"a"}},
		{"SELECT s FROM t LIMIT 4", nulls(4)}, // a Region of the compacted segment
	} {
		for name, query := range engines {
			rows, err := query(tc.sql)
			if err != nil {
				t.Errorf("%s: %s: %v", name, tc.sql, err)
				continue
			}
			got := make([]any, len(rows))
			for i, r := range rows {
				got[i] = r[0]
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s: %s:\n got %v\nwant %v", name, tc.sql, got, tc.want)
			}
		}
	}
}
