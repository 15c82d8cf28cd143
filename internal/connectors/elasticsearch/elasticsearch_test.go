package elasticsearch

import (
	"strings"
	"testing"

	"prestolite/internal/core"
	"prestolite/internal/elastic"
	"prestolite/internal/types"
)

func newESEngine(t *testing.T) (*core.Engine, *elastic.Store) {
	t.Helper()
	store := elastic.NewStore()
	idx, err := store.CreateIndex("service_logs", []elastic.Field{
		{Name: "service", Type: types.Varchar},
		{Name: "level", Type: types.Varchar},
		{Name: "latency_ms", Type: types.Double},
		{Name: "status", Type: types.Bigint},
		{Name: "ok", Type: types.Boolean},
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := []map[string]any{
		{"service": "api", "level": "error", "latency_ms": 120.5, "status": int64(500), "ok": false},
		{"service": "api", "level": "info", "latency_ms": 8.0, "status": int64(200), "ok": true},
		{"service": "web", "level": "error", "latency_ms": 300.0, "status": int64(502), "ok": false},
		{"service": "web", "level": "info", "latency_ms": 5.5, "status": int64(200), "ok": true},
		{"service": "api", "level": "warn", "status": int64(200)}, // latency missing -> NULL
	}
	for _, d := range docs {
		if err := idx.IndexDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	e := core.New()
	e.Register("elasticsearch", New("elasticsearch", store))
	return e, store
}

func TestIndexAsTable(t *testing.T) {
	e, _ := newESEngine(t)
	s := core.DefaultSession("elasticsearch", "default")
	res, err := e.Query(s, "SHOW TABLES FROM elasticsearch.default")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0] != "service_logs" {
		t.Fatalf("tables = %v", res.Rows())
	}
	res, err = e.Query(s, "SELECT count(*) FROM service_logs")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0] != int64(5) {
		t.Fatalf("count = %v", res.Rows())
	}
}

func TestTermAndRangePushdown(t *testing.T) {
	e, _ := newESEngine(t)
	s := core.DefaultSession("elasticsearch", "default")
	plan, err := e.Explain(s, "SELECT latency_ms FROM service_logs WHERE level = 'error' AND latency_ms > 100.0 LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`term[level = "error"]`, "range[latency_ms > 100.0]", "size=10"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	if strings.Contains(plan, "- Filter[") || strings.Contains(plan, "- Limit[") {
		t.Errorf("pushdowns not absorbed:\n%s", plan)
	}
	res, err := e.Query(s, "SELECT service, latency_ms FROM service_logs WHERE level = 'error' AND latency_ms > 100.0 ORDER BY latency_ms")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != "api" || rows[1][0] != "web" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAggregateOverES(t *testing.T) {
	e, _ := newESEngine(t)
	s := core.DefaultSession("elasticsearch", "default")
	res, err := e.Query(s, `SELECT service, count(*), max(latency_ms)
		FROM service_logs GROUP BY service ORDER BY 1`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != "api" || rows[0][1] != int64(3) || rows[0][2] != 120.5 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestMissingFieldReadsNull(t *testing.T) {
	e, _ := newESEngine(t)
	s := core.DefaultSession("elasticsearch", "default")
	res, err := e.Query(s, "SELECT count(*), count(latency_ms) FROM service_logs WHERE service = 'api'")
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows()[0]
	if r[0] != int64(3) || r[1] != int64(2) {
		t.Fatalf("counts = %v", r)
	}
}

// TestPlanTextIsStable: the plan text is EXPLAIN's output and the result
// cache's key, so pushed terms render in the order they were pushed, never in
// map order.
func TestPlanTextIsStable(t *testing.T) {
	e, _ := newESEngine(t)
	s := core.DefaultSession("elasticsearch", "default")
	q := "SELECT latency_ms FROM service_logs WHERE level = 'error' AND service = 'api'"
	first, err := e.Explain(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := `term[level = "error"] term[service = "api"]`; !strings.Contains(first, want) {
		t.Fatalf("plan missing %s:\n%s", want, first)
	}
	for i := 1; i < 50; i++ {
		if again, _ := e.Explain(s, q); again != first {
			t.Fatalf("plan %d differs:\n%s\nfirst:\n%s", i, again, first)
		}
	}
}

func TestStoreValidation(t *testing.T) {
	store := elastic.NewStore()
	if _, err := store.CreateIndex("x", []elastic.Field{{Name: "m", Type: types.NewArray(types.Bigint)}}); err == nil {
		t.Error("array field accepted")
	}
	idx, _ := store.CreateIndex("x", []elastic.Field{{Name: "a", Type: types.Bigint}})
	if err := idx.IndexDocument(map[string]any{"nope": int64(1)}); err == nil {
		t.Error("unknown field accepted")
	}
	if err := idx.IndexDocument(map[string]any{"a": "wrong"}); err == nil {
		t.Error("wrong type accepted")
	}
	if _, _, err := store.Search(elastic.Query{Index: "missing"}); err == nil {
		t.Error("missing index accepted")
	}
	if _, _, err := store.Search(elastic.Query{Index: "x", Source: []string{"ghost"}}); err == nil {
		t.Error("bad source accepted")
	}
	if _, _, err := store.Search(elastic.Query{Index: "x", Terms: map[string]string{"a": "v"}}); err == nil {
		t.Error("term on non-varchar accepted")
	}
}

func TestCrossCatalogJoinWithES(t *testing.T) {
	// Monitoring data joined with anything else, no copy (§IV).
	e, store := newESEngine(t)
	idx, err := store.CreateIndex("owners", []elastic.Field{
		{Name: "service", Type: types.Varchar},
		{Name: "team", Type: types.Varchar},
	})
	if err != nil {
		t.Fatal(err)
	}
	idx.IndexDocument(map[string]any{"service": "api", "team": "core"})
	idx.IndexDocument(map[string]any{"service": "web", "team": "growth"})
	s := core.DefaultSession("elasticsearch", "default")
	res, err := e.Query(s, `SELECT o.team, count(*) FROM service_logs l
		JOIN owners o ON l.service = o.service
		WHERE l.level = 'error' GROUP BY o.team ORDER BY 1`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != "core" || rows[0][1] != int64(1) {
		t.Fatalf("rows = %v", rows)
	}
}
