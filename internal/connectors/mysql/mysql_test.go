package mysql

import (
	"strings"
	"testing"

	"prestolite/internal/connector"
	"prestolite/internal/connectors/memory"
	"prestolite/internal/core"
	"prestolite/internal/mysqlite"
	"prestolite/internal/types"
)

func newEngine(t *testing.T) *core.Engine {
	t.Helper()
	db := mysqlite.New()
	if _, err := db.CreateTable("cities", []mysqlite.Column{
		{Name: "city_id", Type: types.Bigint},
		{Name: "name", Type: types.Varchar},
	}, "city_id"); err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]any{
		{int64(12), "san francisco"},
		{int64(7), "oakland"},
	} {
		if err := db.Insert("cities", row); err != nil {
			t.Fatal(err)
		}
	}
	e := core.New()
	e.Register("mysql", New("mysql", "prod", db))

	// A second catalog so we can join across systems without data copy.
	mem := memory.New("hadoop")
	if err := mem.CreateTable("rawdata", "trips", []connector.Column{
		{Name: "trip_id", Type: types.Bigint},
		{Name: "city_id", Type: types.Bigint},
	}, nil); err != nil {
		t.Fatal(err)
	}
	rows := [][]any{{int64(1), int64(12)}, {int64(2), int64(7)}, {int64(3), int64(12)}}
	if err := mem.AppendRows("rawdata", "trips", rows); err != nil {
		t.Fatal(err)
	}
	e.Register("hadoop", mem)
	return e
}

func TestMySQLBasicsAndPushdown(t *testing.T) {
	e := newEngine(t)
	s := core.DefaultSession("mysql", "prod")
	res, err := e.Query(s, "SELECT name FROM cities WHERE city_id = 12")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0] != "san francisco" {
		t.Fatalf("rows = %v", res.Rows())
	}
	plan, err := e.Explain(s, "SELECT name FROM cities WHERE city_id = 12 LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"filter[city_id = 12]", "columns=[1]", "limit=1"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	if strings.Contains(plan, "- Filter[") || strings.Contains(plan, "- Limit[") {
		t.Errorf("pushdowns not absorbed:\n%s", plan)
	}
}

func TestCrossCatalogJoinWithoutDataCopy(t *testing.T) {
	// The §IV headline: join warehouse data with MySQL data directly.
	e := newEngine(t)
	s := core.DefaultSession("hadoop", "rawdata")
	res, err := e.Query(s, `SELECT c.name, count(*) AS trips
		FROM hadoop.rawdata.trips t
		JOIN mysql.prod.cities c ON t.city_id = c.city_id
		GROUP BY c.name ORDER BY trips DESC`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != "san francisco" || rows[0][1] != int64(2) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestMySQLMetadata(t *testing.T) {
	e := newEngine(t)
	s := core.DefaultSession("mysql", "prod")
	res, err := e.Query(s, "SHOW TABLES FROM mysql.prod")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0] != "cities" {
		t.Fatalf("rows = %v", res.Rows())
	}
	if _, err := e.Query(s, "SELECT * FROM mysql.wrongschema.cities"); err == nil {
		t.Error("wrong schema accepted")
	}
}
