package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/planner"
	"prestolite/internal/types"
)

// Dereference pushdown against an oracle that needs no switch: every
// statement runs beside the same statement with its dereferences hoisted by
// hand into a subquery directly over the scan — the one shape the planner
// lowered to nested paths before the rule crossed joins and filters — and
// the rows must agree exactly. The data has what a pushed-down subfield could
// get wrong: rows whose base is NULL, NULL subfields of a present base, NULL
// inner structs, and cities no trip refers to (so an outer join pads).

func derefEquivEngine(t *testing.T) *Engine {
	t.Helper()
	baseType := types.NewRow(
		types.Field{Name: "driver_uuid", Type: types.Varchar},
		types.Field{Name: "city_id", Type: types.Bigint},
		types.Field{Name: "status", Type: types.NewRow(
			types.Field{Name: "code", Type: types.Bigint},
			types.Field{Name: "reason", Type: types.Varchar},
		)},
		types.Field{Name: "vehicle", Type: types.NewRow(
			types.Field{Name: "make", Type: types.Varchar},
		)},
		types.Field{Name: "fare", Type: types.Double},
		types.Field{Name: "tip", Type: types.Double},
		types.Field{Name: "distance_km", Type: types.Double},
		types.Field{Name: "duration_s", Type: types.Bigint},
		types.Field{Name: "product", Type: types.Varchar},
		// An array keeps whole-struct reads on the reader's boxed path.
		types.Field{Name: "tags", Type: types.NewArray(types.Varchar)},
	)
	fs := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	loader.WriterOptions.RowGroupRows = 16

	r := rand.New(rand.NewSource(13))
	maybe := func(v any) any { // NULL one time in eight
		if r.Intn(8) == 0 {
			return nil
		}
		return v
	}
	quarter := func(n int) float64 { return float64(r.Intn(n)) / 4 } // sums stay exact in any order
	tripID := int64(0)
	partitions := map[string][]*block.Page{}
	sealed := map[string]bool{}
	for _, date := range []string{"2017-03-01", "2017-03-02"} {
		for f := 0; f < 2; f++ {
			pb := block.NewPageBuilder([]*types.Type{types.Bigint, baseType})
			for i := 0; i < 40; i++ {
				tripID++
				var base any
				if r.Intn(7) != 0 {
					base = []any{
						maybe(fmt.Sprintf("d-%02d", r.Intn(12))),
						maybe(int64(r.Intn(10))), // cities 8 and 9 do not exist
						maybe([]any{maybe(int64(200 + 100*r.Intn(3))), maybe([]string{"completed", "canceled", "no_show"}[r.Intn(3)])}),
						maybe([]any{maybe([]string{"toyota", "honda", "ford"}[r.Intn(3)])}),
						maybe(quarter(200)),
						maybe(quarter(40)),
						maybe(quarter(120)),
						maybe(int64(60 + r.Intn(400))),
						maybe([]string{"uberx", "pool", "black"}[r.Intn(3)]),
						[]any{"t"},
					}
				}
				pb.AppendRow([]any{tripID, base})
			}
			partitions[date] = append(partitions[date], pb.Build())
		}
		sealed[date] = true
	}
	cols := []metastore.Column{{Name: "trip_id", Type: types.Bigint}, {Name: "base", Type: baseType}}
	if err := loader.CreatePartitionedTable("rawdata", "trips", cols, "datestr", partitions, sealed); err != nil {
		t.Fatal(err)
	}
	cpb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Varchar, types.Varchar})
	for i := 0; i < 12; i++ { // cities 10 and 11 have no trips
		if i == 8 || i == 9 {
			continue
		}
		cpb.AppendRow([]any{int64(i), fmt.Sprintf("city-%02d", i), []string{"na", "emea", "apac"}[i%3]})
	}
	cityCols := []metastore.Column{{Name: "city_id", Type: types.Bigint}, {Name: "name", Type: types.Varchar}, {Name: "region", Type: types.Varchar}}
	if err := loader.CreateTable("rawdata", "cities", cityCols, []*block.Page{cpb.Build()}); err != nil {
		t.Fatal(err)
	}
	dpb := block.NewPageBuilder([]*types.Type{types.Varchar, types.Varchar})
	for i := 0; i < 10; i++ {
		dpb.AppendRow([]any{fmt.Sprintf("d-%02d", i), []string{"gold", "silver", "bronze"}[i%3]})
	}
	driverCols := []metastore.Column{{Name: "driver_uuid", Type: types.Varchar}, {Name: "tier", Type: types.Varchar}}
	if err := loader.CreateTable("rawdata", "drivers", driverCols, []*block.Page{dpb.Build()}); err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Register("hive", hive.New("hive", ms, fs, hive.Options{}))
	return e
}

// hoisted is the subquery the pairs below read trips through: every subfield
// any of them uses, computed directly over the scan.
const hoisted = `(SELECT trip_id, datestr, base.driver_uuid AS driver_uuid, base.city_id AS city_id,
	base.status.code AS code, base.status.reason AS reason, base.vehicle.make AS make, base.fare AS fare,
	base.tip AS tip, base.distance_km AS distance_km, base.duration_s AS duration_s, base.product AS product
	FROM trips)`

// derefEquivPairs: the Fig 17 shapes (internal/e2ebench/stmt.go, one variant
// each, thresholds fitted to this data) and the shapes the
// Project(TableScan)-only rule missed, each with its hand-hoisted form.
var derefEquivPairs = []struct{ name, sql, hoisted string }{
	{"Q01 scan projection",
		"SELECT base.driver_uuid, base.fare FROM trips WHERE datestr = '2017-03-01'",
		"SELECT driver_uuid, fare FROM " + hoisted + " t WHERE datestr = '2017-03-01'"},
	{"Q02 scan nested fields",
		"SELECT base.status.code, base.vehicle.make, base.distance_km FROM trips",
		"SELECT code, make, distance_km FROM " + hoisted + " t"},
	{"Q03 needle city",
		"SELECT base.driver_uuid FROM trips WHERE datestr = '2017-03-01' AND base.city_id IN (3)",
		"SELECT driver_uuid FROM " + hoisted + " t WHERE datestr = '2017-03-01' AND city_id IN (3)"},
	{"Q04 needle deep field",
		"SELECT base.product FROM trips WHERE base.city_id = 3",
		"SELECT product FROM " + hoisted + " t WHERE city_id = 3"},
	{"Q05 groupby city",
		"SELECT base.city_id, count(*) FROM trips WHERE base.duration_s >= 120 GROUP BY base.city_id",
		"SELECT city_id, count(*) FROM " + hoisted + " t WHERE duration_s >= 120 GROUP BY city_id"},
	{"Q06 groupby date revenue",
		"SELECT datestr, sum(base.fare), avg(base.tip) FROM trips WHERE base.duration_s >= 120 GROUP BY datestr",
		"SELECT datestr, sum(fare), avg(tip) FROM " + hoisted + " t WHERE duration_s >= 120 GROUP BY datestr"},
	{"Q07 groupby product",
		"SELECT base.product, count(*), avg(base.distance_km) FROM trips WHERE base.distance_km >= 1.5 GROUP BY base.product",
		"SELECT product, count(*), avg(distance_km) FROM " + hoisted + " t WHERE distance_km >= 1.5 GROUP BY product"},
	{"Q08 groupby status",
		"SELECT base.status.code, count(*) FROM trips WHERE base.duration_s >= 120 GROUP BY base.status.code",
		"SELECT code, count(*) FROM " + hoisted + " t WHERE duration_s >= 120 GROUP BY code"},
	{"Q09 groupby filtered",
		"SELECT base.city_id, max(base.fare) FROM trips WHERE base.fare > 20.0 GROUP BY base.city_id",
		"SELECT city_id, max(fare) FROM " + hoisted + " t WHERE fare > 20.0 GROUP BY city_id"},
	{"Q10 join cities",
		"SELECT c.name, count(*) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.duration_s >= 120 GROUP BY c.name",
		"SELECT c.name, count(*) FROM " + hoisted + " t JOIN cities c ON t.city_id = c.city_id WHERE t.duration_s >= 120 GROUP BY c.name"},
	{"Q11 join cities filtered",
		"SELECT c.region, sum(t.base.fare) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.datestr = '2017-03-01' GROUP BY c.region",
		"SELECT c.region, sum(t.fare) FROM " + hoisted + " t JOIN cities c ON t.city_id = c.city_id WHERE t.datestr = '2017-03-01' GROUP BY c.region"},
	{"Q12 join drivers",
		"SELECT d.tier, count(*) FROM trips t JOIN drivers d ON t.base.driver_uuid = d.driver_uuid WHERE t.base.duration_s >= 120 GROUP BY d.tier",
		"SELECT d.tier, count(*) FROM " + hoisted + " t JOIN drivers d ON t.driver_uuid = d.driver_uuid WHERE t.duration_s >= 120 GROUP BY d.tier"},
	{"Q13 join drivers tier",
		"SELECT count(*) FROM trips t JOIN drivers d ON t.base.driver_uuid = d.driver_uuid WHERE d.tier = 'gold'",
		"SELECT count(*) FROM " + hoisted + " t JOIN drivers d ON t.driver_uuid = d.driver_uuid WHERE d.tier = 'gold'"},
	{"Q14 join both dims",
		"SELECT c.region, d.tier, count(*) FROM trips t JOIN cities c ON t.base.city_id = c.city_id JOIN drivers d ON t.base.driver_uuid = d.driver_uuid WHERE t.base.duration_s >= 120 GROUP BY c.region, d.tier",
		"SELECT c.region, d.tier, count(*) FROM " + hoisted + " t JOIN cities c ON t.city_id = c.city_id JOIN drivers d ON t.driver_uuid = d.driver_uuid WHERE t.duration_s >= 120 GROUP BY c.region, d.tier"},
	{"Q15 join revenue by region",
		"SELECT c.region, sum(t.base.fare + t.base.tip) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.duration_s >= 120 GROUP BY c.region",
		"SELECT c.region, sum(t.fare + t.tip) FROM " + hoisted + " t JOIN cities c ON t.city_id = c.city_id WHERE t.duration_s >= 120 GROUP BY c.region"},
	{"Q16 join high fares",
		"SELECT c.name, max(t.base.fare) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.fare > 25.0 GROUP BY c.name",
		"SELECT c.name, max(t.fare) FROM " + hoisted + " t JOIN cities c ON t.city_id = c.city_id WHERE t.fare > 25.0 GROUP BY c.name"},
	{"Q17 join product mix",
		"SELECT c.region, t.base.product, count(*) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.duration_s >= 120 GROUP BY c.region, t.base.product",
		"SELECT c.region, t.product, count(*) FROM " + hoisted + " t JOIN cities c ON t.city_id = c.city_id WHERE t.duration_s >= 120 GROUP BY c.region, t.product"},
	{"Q18 join by reason",
		"SELECT c.name, count(*) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.status.reason = 'canceled' GROUP BY c.name",
		"SELECT c.name, count(*) FROM " + hoisted + " t JOIN cities c ON t.city_id = c.city_id WHERE t.reason = 'canceled' GROUP BY c.name"},
	{"Q19 join vehicles",
		"SELECT t.base.vehicle.make, c.region, avg(t.base.distance_km) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.distance_km >= 1.5 GROUP BY t.base.vehicle.make, c.region",
		"SELECT t.make, c.region, avg(t.distance_km) FROM " + hoisted + " t JOIN cities c ON t.city_id = c.city_id WHERE t.distance_km >= 1.5 GROUP BY t.make, c.region"},
	{"Q20 join driver revenue",
		"SELECT d.tier, sum(t.base.fare) FROM trips t JOIN drivers d ON t.base.driver_uuid = d.driver_uuid WHERE t.datestr = '2017-03-02' GROUP BY d.tier",
		"SELECT d.tier, sum(t.fare) FROM " + hoisted + " t JOIN drivers d ON t.driver_uuid = d.driver_uuid WHERE t.datestr = '2017-03-02' GROUP BY d.tier"},
	{"Q21 join top cities",
		"SELECT c.name, count(*) AS n FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.duration_s >= 120 GROUP BY c.name ORDER BY n DESC, c.name LIMIT 10",
		"SELECT c.name, count(*) AS n FROM " + hoisted + " t JOIN cities c ON t.city_id = c.city_id WHERE t.duration_s >= 120 GROUP BY c.name ORDER BY n DESC, c.name LIMIT 10"},
	{"residual filter, arithmetic",
		"SELECT base.city_id FROM trips WHERE base.fare + base.tip > 30",
		"SELECT city_id FROM " + hoisted + " t WHERE fare + tip > 30"},
	{"residual filter, two columns",
		"SELECT trip_id FROM trips WHERE base.fare > base.tip",
		"SELECT trip_id FROM " + hoisted + " t WHERE fare > tip"},
	{"join with no key dereference",
		"SELECT c.name, t.base.fare FROM trips t JOIN cities c ON t.trip_id = c.city_id",
		"SELECT c.name, t.fare FROM " + hoisted + " t JOIN cities c ON t.trip_id = c.city_id"},
	{"subfield filter on the build side",
		"SELECT c.name, count(*) FROM cities c JOIN trips t ON c.city_id = t.base.city_id WHERE t.base.fare > 20.0 GROUP BY c.name",
		"SELECT c.name, count(*) FROM cities c JOIN " + hoisted + " t ON c.city_id = t.city_id WHERE t.fare > 20.0 GROUP BY c.name"},
	{"struct on the right side",
		"SELECT c.name, t.base.product, t.base.status.code FROM cities c JOIN trips t ON c.city_id = t.base.city_id",
		"SELECT c.name, t.product, t.code FROM cities c JOIN " + hoisted + " t ON c.city_id = t.city_id"},
	{"left join, nullable side owns the struct",
		"SELECT c.name, t.base.product, t.base.vehicle.make FROM cities c LEFT JOIN trips t ON c.city_id = t.base.city_id",
		"SELECT c.name, t.product, t.make FROM cities c LEFT JOIN " + hoisted + " t ON c.city_id = t.city_id"},
	{"left join, preserved side owns the struct",
		"SELECT t.trip_id, t.base.fare, c.name FROM trips t LEFT JOIN cities c ON t.base.city_id = c.city_id",
		"SELECT t.trip_id, t.fare, c.name FROM " + hoisted + " t LEFT JOIN cities c ON t.city_id = c.city_id"},
	{"residual join condition",
		"SELECT c.name, t.trip_id FROM trips t JOIN cities c ON t.base.city_id = c.city_id AND t.base.fare > c.city_id * 5",
		"SELECT c.name, t.trip_id FROM " + hoisted + " t JOIN cities c ON t.city_id = c.city_id AND t.fare > c.city_id * 5"},
	{"through sort and limit",
		"SELECT t.base.fare, t.base.status.reason FROM trips t JOIN cities c ON t.base.city_id = c.city_id ORDER BY t.trip_id LIMIT 7",
		"SELECT t.fare, t.reason FROM " + hoisted + " t JOIN cities c ON t.city_id = c.city_id ORDER BY t.trip_id LIMIT 7"},
	{"null struct tested whole beside its subfield",
		"SELECT trip_id, base.fare FROM trips WHERE base IS NULL OR base.fare IS NULL",
		"SELECT trip_id, fare FROM " + hoisted + " t WHERE fare IS NULL"},
}

func TestDereferencePushdownMatchesHandHoisted(t *testing.T) {
	e := derefEquivEngine(t)
	session := &planner.Session{Catalog: "hive", Schema: "rawdata", User: "equiv", Properties: map[string]string{"task_concurrency": "1"}}
	for _, p := range derefEquivPairs {
		t.Run(p.name, func(t *testing.T) {
			got, err := e.Query(session, p.sql)
			if err != nil {
				t.Fatalf("%s: %v", p.sql, err)
			}
			want, err := e.Query(session, p.hoisted)
			if err != nil {
				t.Fatalf("%s: %v", p.hoisted, err)
			}
			g, w := normalizeRows(got), normalizeRows(want)
			if strings.Contains(p.sql, "ORDER BY") {
				g, w = nil, nil
				for _, r := range got.Rows() {
					g = append(g, fmt.Sprint(r))
				}
				for _, r := range want.Rows() {
					w = append(w, fmt.Sprint(r))
				}
			}
			if len(w) == 0 {
				t.Fatalf("the oracle returned no rows: the pair tests nothing")
			}
			if !reflect.DeepEqual(g, w) {
				t.Errorf("rows differ\npushed-down (%d): %v\nhand-hoisted (%d): %v", len(g), g, len(w), w)
			}
		})
	}
}
