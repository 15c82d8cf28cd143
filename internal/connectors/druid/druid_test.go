package druid

import (
	"strings"
	"testing"

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

	e := core.New()
	e.Register("druid", New("druid", driver.NewHTTPClient(srv.Addr())))
	s := core.DefaultSession("druid", "default")
	res, err := e.Query(s, "SELECT service, sum(errors) FROM metrics GROUP BY service ORDER BY 2 DESC")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != "api" || rows[0][1] != int64(5) {
		t.Fatalf("rows = %v", rows)
	}
}
