package core

import (
	"reflect"
	"strings"
	"testing"

	"prestolite/internal/connector"
	"prestolite/internal/connectors/memory"
	"prestolite/internal/planner"
	"prestolite/internal/sql"
	"prestolite/internal/types"
)

// testEngine builds an engine with a memory catalog holding small tables.
func testEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mem := memory.New("memory")

	tripCols := []connector.Column{
		{Name: "trip_id", Type: types.Bigint},
		{Name: "city_id", Type: types.Bigint},
		{Name: "fare", Type: types.Double},
		{Name: "datestr", Type: types.Varchar},
		{Name: "rider", Type: types.Varchar},
	}
	if err := mem.CreateTable("rawdata", "trips", tripCols, nil); err != nil {
		t.Fatal(err)
	}
	rows := [][]any{
		{int64(1), int64(12), 10.5, "2017-03-02", "alice"},
		{int64(2), int64(12), 20.0, "2017-03-02", "bob"},
		{int64(3), int64(7), 5.0, "2017-03-02", "carol"},
		{int64(4), int64(7), 7.5, "2017-03-03", "dave"},
		{int64(5), int64(9), 30.0, "2017-03-03", nil},
		{int64(6), int64(12), 2.5, "2017-03-03", "erin"},
	}
	if err := mem.AppendRows("rawdata", "trips", rows); err != nil {
		t.Fatal(err)
	}

	cityCols := []connector.Column{
		{Name: "city_id", Type: types.Bigint},
		{Name: "name", Type: types.Varchar},
	}
	if err := mem.CreateTable("rawdata", "cities", cityCols, nil); err != nil {
		t.Fatal(err)
	}
	if err := mem.AppendRows("rawdata", "cities", [][]any{
		{int64(12), "san francisco"},
		{int64(7), "oakland"},
		{int64(99), "phantom"},
	}); err != nil {
		t.Fatal(err)
	}

	// Nested struct table, like the paper's schemaless trips (§V).
	baseType := types.NewRow(
		types.Field{Name: "driver_uuid", Type: types.Varchar},
		types.Field{Name: "city_id", Type: types.Bigint},
		types.Field{Name: "status", Type: types.NewRow(
			types.Field{Name: "code", Type: types.Bigint},
		)},
	)
	nestedCols := []connector.Column{
		{Name: "base", Type: baseType},
		{Name: "datestr", Type: types.Varchar},
	}
	if err := mem.CreateTable("rawdata", "mezzanine", nestedCols, nil); err != nil {
		t.Fatal(err)
	}
	if err := mem.AppendRows("rawdata", "mezzanine", [][]any{
		{[]any{"d-1", int64(12), []any{int64(200)}}, "2017-03-02"},
		{[]any{"d-2", int64(5), []any{int64(500)}}, "2017-03-02"},
		{[]any{"d-3", int64(12), []any{int64(200)}}, "2017-03-03"},
		{nil, "2017-03-02"},
	}); err != nil {
		t.Fatal(err)
	}

	e.Register("memory", mem)
	return e
}

func query(t *testing.T, e *Engine, q string) *Result {
	t.Helper()
	res, err := e.Query(DefaultSession("memory", "rawdata"), q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT * FROM trips")
	if res.RowCount() != 6 || len(res.Columns) != 5 {
		t.Fatalf("got %d rows x %d cols", res.RowCount(), len(res.Columns))
	}
	if res.Columns[0].Name != "trip_id" || res.Columns[4].Name != "rider" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestFilterAndProject(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT trip_id, fare FROM trips WHERE city_id = 12 AND fare > 5.0")
	rows := res.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != int64(1) || rows[1][0] != int64(2) {
		t.Errorf("rows = %v", rows)
	}
}

func TestPaperNestedQuery(t *testing.T) {
	e := testEngine(t)
	// §V.C example shape: nested field projection + struct predicate.
	res := query(t, e, `SELECT base.driver_uuid FROM mezzanine
		WHERE datestr = '2017-03-02' AND base.city_id IN (12)`)
	rows := res.Rows()
	if len(rows) != 1 || rows[0][0] != "d-1" {
		t.Fatalf("rows = %v", rows)
	}
	if res.Columns[0].Name != "driver_uuid" {
		t.Errorf("column name = %s", res.Columns[0].Name)
	}
}

func TestDeepNestedDereference(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT base.status.code FROM mezzanine WHERE base.status.code = 200")
	if res.RowCount() != 2 {
		t.Fatalf("rows = %v", res.Rows())
	}
}

func TestGroupBy(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, `SELECT city_id, count(*) AS c, sum(fare) AS total
		FROM trips GROUP BY city_id ORDER BY c DESC, city_id`)
	rows := res.Rows()
	want := [][]any{
		{int64(12), int64(3), 33.0},
		{int64(7), int64(2), 12.5},
		{int64(9), int64(1), 30.0},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
}

func TestGroupByOrdinal(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT datestr, count(*) FROM trips GROUP BY 1 ORDER BY 1")
	rows := res.Rows()
	if len(rows) != 2 || rows[0][1] != int64(3) || rows[1][1] != int64(3) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestGlobalAggregates(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT count(*), count(rider), min(fare), max(fare), avg(fare), sum(city_id) FROM trips")
	rows := res.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	r := rows[0]
	if r[0] != int64(6) || r[1] != int64(5) || r[2] != 2.5 || r[3] != 30.0 {
		t.Errorf("aggs = %v", r)
	}
	if r[4].(float64) < 12.58 || r[4].(float64) > 12.59 {
		t.Errorf("avg = %v", r[4])
	}
	if r[5] != int64(59) {
		t.Errorf("sum(city_id) = %v", r[5])
	}
}

func TestHaving(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, `SELECT city_id, count(*) FROM trips GROUP BY city_id
		HAVING count(*) >= 2 ORDER BY city_id`)
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != int64(7) || rows[1][0] != int64(12) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCountDistinct(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT count(distinct city_id) FROM trips")
	if res.Rows()[0][0] != int64(3) {
		t.Fatalf("rows = %v", res.Rows())
	}
}

func TestInnerJoin(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, `SELECT t.trip_id, c.name FROM trips t
		JOIN cities c ON t.city_id = c.city_id ORDER BY t.trip_id`)
	rows := res.Rows()
	// Trip 5 (city 9) has no matching city and drops out.
	if len(rows) != 5 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][1] != "san francisco" || rows[2][1] != "oakland" {
		t.Errorf("rows = %v", rows)
	}
}

func TestLeftJoin(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, `SELECT c.name, t.trip_id FROM cities c
		LEFT JOIN trips t ON t.city_id = c.city_id AND t.fare > 100.0 ORDER BY c.name`)
	rows := res.Rows()
	// No trip has fare > 100, so every city row appears once with NULL trip.
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if r[1] != nil {
			t.Errorf("expected null trip, got %v", r)
		}
	}
}

func TestJoinWithAggregation(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, `SELECT c.name, count(*) AS trips, sum(t.fare) AS revenue
		FROM trips t JOIN cities c ON t.city_id = c.city_id
		GROUP BY c.name ORDER BY revenue DESC`)
	rows := res.Rows()
	want := [][]any{
		{"san francisco", int64(3), 33.0},
		{"oakland", int64(2), 12.5},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCrossJoinWhere(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, `SELECT t.trip_id FROM trips t, cities c
		WHERE t.city_id = c.city_id AND c.name = 'oakland' ORDER BY 1`)
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != int64(3) || rows[1][0] != int64(4) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSubquery(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, `SELECT city, total FROM (
		SELECT city_id AS city, sum(fare) AS total FROM trips GROUP BY city_id
	) AS agg WHERE total > 15.0 ORDER BY total DESC`)
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != int64(12) || rows[1][0] != int64(9) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestOrderByLimit(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT trip_id FROM trips ORDER BY fare DESC LIMIT 2")
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != int64(5) || rows[1][0] != int64(2) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestOrderByHiddenColumn(t *testing.T) {
	e := testEngine(t)
	// ORDER BY a column that is not in the select list.
	res := query(t, e, "SELECT trip_id FROM trips ORDER BY fare LIMIT 1")
	if res.Rows()[0][0] != int64(6) {
		t.Fatalf("rows = %v", res.Rows())
	}
	if len(res.Columns) != 1 {
		t.Errorf("hidden sort column leaked: %v", res.Columns)
	}
}

func TestExpressionsAndCase(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, `SELECT trip_id, fare * 2.0,
		CASE WHEN fare > 10.0 THEN 'high' ELSE 'low' END AS bucket
		FROM trips WHERE trip_id = 2`)
	r := res.Rows()[0]
	if r[1] != 40.0 || r[2] != "high" {
		t.Fatalf("row = %v", r)
	}
}

func TestScalarQueries(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT 1 + 2 AS three, 'a' || 'b', upper('x')")
	r := res.Rows()[0]
	if r[0] != int64(3) || r[1] != "ab" || r[2] != "X" {
		t.Fatalf("row = %v", r)
	}
}

func TestNullSemantics(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT count(*) FROM trips WHERE rider IS NULL")
	if res.Rows()[0][0] != int64(1) {
		t.Fatalf("rows = %v", res.Rows())
	}
	res = query(t, e, "SELECT count(*) FROM trips WHERE rider = 'nobody' OR rider IS NULL")
	if res.Rows()[0][0] != int64(1) {
		t.Fatalf("rows = %v", res.Rows())
	}
}

func TestLikeAndBetween(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT count(*) FROM trips WHERE rider LIKE '%o%' AND fare BETWEEN 5.0 AND 25.0")
	// bob, carol: 'o' in name and fare in range (dave has no 'o'... dave: no; carol fare 5.0 yes)
	if res.Rows()[0][0] != int64(2) {
		t.Fatalf("rows = %v", res.Rows())
	}
}

func TestIntDoubleCoercion(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT count(*) FROM trips WHERE fare > 10")
	if res.Rows()[0][0] != int64(3) {
		t.Fatalf("rows = %v", res.Rows())
	}
	res = query(t, e, "SELECT avg(city_id + 0.5) FROM trips WHERE trip_id <= 2")
	if res.Rows()[0][0] != 12.5 {
		t.Fatalf("rows = %v", res.Rows())
	}
}

func TestExplainShowsPushdown(t *testing.T) {
	e := testEngine(t)
	plan, err := e.Explain(DefaultSession("memory", "rawdata"), "SELECT trip_id FROM trips WHERE city_id = 12 LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"filter=", "limit=3", "TableScan"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	// The engine-side Filter should be gone (fully absorbed).
	if strings.Contains(plan, "- Filter[") {
		t.Errorf("filter not absorbed:\n%s", plan)
	}
}

func TestProjectionPruningInPlan(t *testing.T) {
	e := testEngine(t)
	plan, err := e.Explain(DefaultSession("memory", "rawdata"), "SELECT trip_id FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "rider") || strings.Contains(plan, "fare") {
		t.Errorf("unused columns not pruned:\n%s", plan)
	}
}

func TestShowTables(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SHOW TABLES FROM memory.rawdata")
	rows := res.Rows()
	if len(rows) != 3 || rows[0][0] != "cities" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestQueryErrors(t *testing.T) {
	e := testEngine(t)
	s := DefaultSession("memory", "rawdata")
	bad := []string{
		"SELECT nope FROM trips",
		"SELECT * FROM missing_table",
		"SELECT * FROM badcatalog.s.t",
		"SELECT city_id FROM trips GROUP BY datestr",
		"SELECT sum(rider) FROM trips",
		"SELECT count(*) FROM trips WHERE sum(fare) > 1",
		"SELECT fare + rider FROM trips",
		"SELECT base.missing FROM mezzanine",
		"SELECT * FROM trips ORDER BY 99",
	}
	for _, q := range bad {
		if _, err := e.Query(s, q); err == nil {
			t.Errorf("query %q unexpectedly succeeded", q)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := testEngine(t)
	_, err := e.Query(DefaultSession("memory", "rawdata"),
		"SELECT city_id FROM trips t JOIN cities c ON t.city_id = c.city_id")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
}

func TestQualifiedStarColumns(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT t.trip_id, c.city_id FROM trips t JOIN cities c ON t.city_id = c.city_id LIMIT 1")
	if len(res.Columns) != 2 {
		t.Fatalf("cols = %v", res.Columns)
	}
}

func TestEmptyResults(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT * FROM trips WHERE city_id = 404")
	if res.RowCount() != 0 {
		t.Fatalf("rows = %v", res.Rows())
	}
	res = query(t, e, "SELECT count(*) FROM trips WHERE city_id = 404")
	if res.Rows()[0][0] != int64(0) {
		t.Fatalf("count over empty = %v", res.Rows())
	}
	res = query(t, e, "SELECT sum(fare) FROM trips WHERE city_id = 404")
	if res.Rows()[0][0] != nil {
		t.Fatalf("sum over empty = %v", res.Rows())
	}
}

func TestLimitZero(t *testing.T) {
	e := testEngine(t)
	res := query(t, e, "SELECT * FROM trips LIMIT 0")
	if res.RowCount() != 0 {
		t.Fatalf("rows = %v", res.Rows())
	}
}

func TestInsufficientResources(t *testing.T) {
	// §XII.C: "when users are joining two large tables, Presto will return
	// an error, with message 'Insufficient Resource ...'".
	e := testEngine(t)
	s := DefaultSession("memory", "rawdata")
	s.Properties["query_max_memory"] = "16" // absurdly small
	_, err := e.Query(s, "SELECT count(*) FROM trips a JOIN trips b ON a.city_id = b.city_id")
	if err == nil || !strings.Contains(err.Error(), "Insufficient Resources") {
		t.Fatalf("expected Insufficient Resources, got %v", err)
	}
	_, err = e.Query(s, "SELECT * FROM trips ORDER BY fare")
	if err == nil || !strings.Contains(err.Error(), "Insufficient Resources") {
		t.Fatalf("expected Insufficient Resources on sort, got %v", err)
	}
	// With a reasonable limit the same queries succeed.
	s.Properties["query_max_memory"] = "10000000"
	if _, err := e.Query(s, "SELECT count(*) FROM trips a JOIN trips b ON a.city_id = b.city_id"); err != nil {
		t.Fatal(err)
	}
	// Bad limit values are rejected.
	s.Properties["query_max_memory"] = "lots"
	if _, err := e.Query(s, "SELECT 1"); err == nil {
		t.Error("bad query_max_memory accepted")
	}
	// So is a name no property has.
	s = DefaultSession("memory", "rawdata")
	s.Properties["task_concurency"] = "4"
	if _, err := e.Query(s, "SELECT 1"); err == nil || !strings.Contains(err.Error(), `unknown property "task_concurency"`) {
		t.Errorf("misspelt property: err = %v, want it refused by name", err)
	}
}

// TestOptimizedMatchesUnoptimized: the optimizer (pushdowns, pruning,
// rewrites) must never change results — run each query through the raw
// analyzed plan and the optimized plan and compare.
func TestOptimizedMatchesUnoptimized(t *testing.T) {
	e := testEngine(t)
	session := DefaultSession("memory", "rawdata")
	queries := []string{
		"SELECT trip_id, fare FROM trips WHERE city_id = 12 AND fare > 5.0 ORDER BY trip_id",
		"SELECT city_id, count(*), sum(fare) FROM trips GROUP BY city_id ORDER BY city_id",
		"SELECT t.trip_id, c.name FROM trips t JOIN cities c ON t.city_id = c.city_id ORDER BY t.trip_id",
		"SELECT base.driver_uuid FROM mezzanine WHERE base.city_id IN (12) ORDER BY 1",
		"SELECT trip_id FROM trips ORDER BY fare DESC LIMIT 3",
		"SELECT count(*) FROM trips WHERE rider IS NULL OR rider LIKE 'a%'",
		"SELECT datestr, avg(fare) FROM trips GROUP BY datestr HAVING count(*) > 2 ORDER BY 1",
	}
	for _, query := range queries {
		stmt, err := sqlparse(query)
		if err != nil {
			t.Fatal(err)
		}
		analyzer := &planner.Analyzer{Catalogs: e.Catalogs, Session: session}
		raw, err := analyzer.Analyze(stmt)
		if err != nil {
			t.Fatalf("%s: analyze: %v", query, err)
		}
		rawRes, err := e.execute(session, raw)
		if err != nil {
			t.Fatalf("%s: raw execute: %v", query, err)
		}
		optRes, err := e.Query(session, query)
		if err != nil {
			t.Fatalf("%s: optimized: %v", query, err)
		}
		if !reflect.DeepEqual(rawRes.Rows(), optRes.Rows()) {
			t.Errorf("%s:\nraw:       %v\noptimized: %v", query, rawRes.Rows(), optRes.Rows())
		}
	}
}

// sqlparse is a test helper returning the query AST.
func sqlparse(q string) (*sql.Query, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	return stmt.(*sql.Query), nil
}

func TestLeftJoinWithNestedKey(t *testing.T) {
	// LEFT JOIN keyed on a struct dereference exercises the computed-key
	// projection below the join plus NULL padding above it.
	e := testEngine(t)
	res := query(t, e, `SELECT c.name, m.base.driver_uuid FROM cities c
		LEFT JOIN mezzanine m ON m.base.city_id = c.city_id
		ORDER BY c.name, 2`)
	rows := res.Rows()
	// cities: 12 (matches d-1 and d-3), 7 (no match), 99 (no match).
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "oakland" || rows[0][1] != nil {
		t.Errorf("row 0 = %v", rows[0])
	}
	if rows[1][0] != "phantom" || rows[1][1] != nil {
		t.Errorf("row 1 = %v", rows[1])
	}
	if rows[2][1] != "d-1" || rows[3][1] != "d-3" {
		t.Errorf("matched rows = %v %v", rows[2], rows[3])
	}
}

func TestJoinOnExpressionKeys(t *testing.T) {
	// Arithmetic on both sides of the equi-condition still hash-joins.
	e := testEngine(t)
	res := query(t, e, `SELECT count(*) FROM trips a
		JOIN cities c ON a.city_id + 1 = c.city_id + 1`)
	if res.Rows()[0][0] != int64(5) {
		t.Fatalf("rows = %v", res.Rows())
	}
	plan, _ := e.Explain(DefaultSession("memory", "rawdata"), `SELECT count(*) FROM trips a
		JOIN cities c ON a.city_id + 1 = c.city_id + 1`)
	if !strings.Contains(plan, "INNERJoin") {
		t.Errorf("expression keys should still produce a hash join:\n%s", plan)
	}
	if strings.Contains(plan, "CROSSJoin") {
		t.Errorf("degenerated to cross join:\n%s", plan)
	}
}
