package planner

import (
	"strings"
	"testing"

	"prestolite/internal/connector"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/types"
	"prestolite/internal/workload"
)

// tripsCatalogs is a hive catalog over the Fig 17 warehouse: trips(trip_id,
// base ROW(20 fields), datestr), cities and drivers.
func tripsCatalogs(t *testing.T) *connector.Registry {
	t.Helper()
	nn := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	cfg := workload.TripsConfig{RowsPerDate: 8, Dates: 2, FilesPerDate: 1, RowGroupRows: 8, NeedleCityID: 99999}
	if _, err := workload.BuildTripsWarehouse(ms, nn, cfg); err != nil {
		t.Fatal(err)
	}
	reg := connector.NewRegistry()
	reg.Register("hive", hive.New("hive", ms, nn, hive.Options{}))
	return reg
}

func planTrips(t *testing.T, reg *connector.Registry, query string) Node {
	t.Helper()
	stmt := parseQuery(t, query)
	session := &Session{Catalog: "hive", Schema: "rawdata", Properties: map[string]string{}}
	n, err := PlanQuery(reg, session, stmt)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return n
}

// scans collects the plan's table scans.
func scans(n Node) []*TableScan {
	if s, ok := n.(*TableScan); ok {
		return []*TableScan{s}
	}
	var out []*TableScan
	for _, c := range n.Children() {
		out = append(out, scans(c)...)
	}
	return out
}

// The 21 Fig 17 shapes, first variant of each template in
// internal/e2ebench/stmt.go (copied: the benchmark's files are not imported),
// then the shapes the Project(TableScan)-only rule missed.
var derefShapes = []string{
	"SELECT base.driver_uuid, base.fare FROM trips WHERE datestr = '2017-03-01'",
	"SELECT base.status.code, base.vehicle.make, base.distance_km FROM trips",
	"SELECT base.driver_uuid FROM trips WHERE datestr = '2017-03-01' AND base.city_id IN (99999)",
	"SELECT base.client_uuid FROM trips WHERE base.city_id = 99999",
	"SELECT base.city_id, count(*) FROM trips WHERE base.duration_s >= 120 GROUP BY base.city_id",
	"SELECT datestr, sum(base.fare), avg(base.tip) FROM trips WHERE base.duration_s >= 120 GROUP BY datestr",
	"SELECT base.product, count(*), avg(base.distance_km) FROM trips WHERE base.distance_km >= 0.5 GROUP BY base.product",
	"SELECT base.status.code, count(*) FROM trips WHERE base.duration_s >= 120 GROUP BY base.status.code",
	"SELECT base.city_id, max(base.fare) FROM trips WHERE base.fare > 40.0 GROUP BY base.city_id",
	"SELECT c.name, count(*) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.duration_s >= 120 GROUP BY c.name",
	"SELECT c.region, sum(t.base.fare) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.datestr = '2017-03-01' GROUP BY c.region",
	"SELECT d.tier, count(*) FROM trips t JOIN drivers d ON t.base.driver_uuid = d.driver_uuid WHERE t.base.duration_s >= 120 GROUP BY d.tier",
	"SELECT count(*) FROM trips t JOIN drivers d ON t.base.driver_uuid = d.driver_uuid WHERE d.tier = 'gold'",
	"SELECT c.region, d.tier, count(*) FROM trips t JOIN cities c ON t.base.city_id = c.city_id JOIN drivers d ON t.base.driver_uuid = d.driver_uuid WHERE t.base.duration_s >= 120 GROUP BY c.region, d.tier",
	"SELECT c.region, sum(t.base.fare + t.base.tip) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.duration_s >= 120 GROUP BY c.region",
	"SELECT c.name, max(t.base.fare) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.fare > 45.0 GROUP BY c.name",
	"SELECT c.region, t.base.product, count(*) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.duration_s >= 120 GROUP BY c.region, t.base.product",
	"SELECT c.name, count(*) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.status.reason = 'canceled' GROUP BY c.name",
	"SELECT t.base.vehicle.make, c.region, avg(t.base.distance_km) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.distance_km >= 0.5 GROUP BY t.base.vehicle.make, c.region",
	"SELECT d.tier, sum(t.base.fare) FROM trips t JOIN drivers d ON t.base.driver_uuid = d.driver_uuid WHERE t.datestr = '2017-03-01' GROUP BY d.tier",
	"SELECT c.name, count(*) AS n FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.duration_s >= 120 GROUP BY c.name ORDER BY n DESC, c.name LIMIT 10",
	// A filter the reader cannot absorb, twice.
	"SELECT base.city_id FROM trips WHERE base.fare + base.tip > 50",
	"SELECT trip_id FROM trips WHERE base.fare > base.tip",
	// A join whose key is not a dereference: nothing below it to extend.
	"SELECT c.name, t.base.fare FROM trips t JOIN cities c ON t.trip_id = c.city_id",
	// A subfield filter on the build side, the struct on the right.
	"SELECT c.name, count(*) FROM cities c JOIN trips t ON c.city_id = t.base.city_id WHERE t.base.fare > 40.0 GROUP BY c.name",
	// The nullable side of an outer join owns the struct.
	"SELECT c.name, t.base.product FROM cities c LEFT JOIN trips t ON c.city_id = t.base.city_id",
	// Through a sort and a limit, and out of a residual join condition.
	"SELECT t.base.fare FROM trips t JOIN cities c ON t.base.city_id = c.city_id ORDER BY t.trip_id LIMIT 3",
	"SELECT c.name FROM trips t JOIN cities c ON t.base.city_id = c.city_id AND t.base.fare > c.city_id",
	// Through a subquery's renaming projection.
	"SELECT s.code FROM (SELECT base.status AS s FROM trips) x WHERE s.reason = 'completed'",
}

func TestDereferencesReachTheScan(t *testing.T) {
	reg := tripsCatalogs(t)
	for _, q := range derefShapes {
		n := planTrips(t, reg, q)
		for _, s := range scans(n) {
			for _, c := range s.Cols {
				if c.Type.Kind == types.KindRow {
					t.Errorf("%s\nscan of %s outputs the ROW column %s:\n%s", q, s.Table, c.Name, Format(n))
				}
			}
		}
		if p := forwardingProjectUnderProject(n); p != nil {
			t.Errorf("%s\nthe rule left a channel-forwarding projection under another:\n%s", q, Format(p))
		}
	}
}

// forwardingProjectUnderProject finds a Project whose child is a Project of
// plain channels: an operator and a page rebuild that compose away.
func forwardingProjectUnderProject(n Node) Node {
	if p, ok := n.(*Project); ok {
		if inner, ok := p.Child.(*Project); ok && inner.forwardedChannels() != nil {
			return p
		}
	}
	for _, c := range n.Children() {
		if p := forwardingProjectUnderProject(c); p != nil {
			return p
		}
	}
	return nil
}

// A struct the statement selects whole is still read whole, next to the
// subfield the join needs.
func TestWholeStructStaysWhole(t *testing.T) {
	n := planTrips(t, tripsCatalogs(t), "SELECT t.base FROM trips t JOIN cities c ON t.base.city_id = c.city_id")
	found := false
	for _, s := range scans(n) {
		for _, c := range s.Cols {
			found = found || (s.Table == "trips" && c.Name == "base" && c.Type.Kind == types.KindRow)
		}
	}
	if !found {
		t.Fatalf("no scan of trips outputs base:\n%s", Format(n))
	}
}

// Q11 end to end: the join's probe side carries two primitive columns, which
// the partial aggregation below the join reads.
func TestDereferencePushdownThroughJoinPlan(t *testing.T) {
	n := planTrips(t, tripsCatalogs(t), derefShapes[10])
	got := Format(n)
	want := `- Output[region, sum(t.base.fare)]
    - Aggregate(FINAL)[keys=[region]; sum(t.base.fare) := sum(sum(t.base.fare))]
        - Project[region := c.region, sum(t.base.fare) := sum(t.base.fare)]
            - INNERJoin[$joinkey0 = city_id]
                - Aggregate(PARTIAL)[keys=[$joinkey0]; sum(t.base.fare) := sum(fare)]
                    - Project[$joinkey0 := base.city_id, fare := base.fare]
                        - TableScan[hive.rawdata.trips, hive:rawdata.trips partition[datestr = "2017-03-01"] nestedPaths=[base.city_id base.fare]] => [base.city_id, base.fare]
                - TableScan[hive.rawdata.cities, hive:rawdata.cities columns=[0 2]] => [city_id, region]
`
	if got != want {
		t.Errorf("plan:\n%s\nwant:\n%s", got, want)
	}
}

// A chain asked of a producer the rule does not cross is computed directly
// above it: here the subfield of a struct-typed group key.
func TestDereferenceStopsAtAggregate(t *testing.T) {
	n := planTrips(t, tripsCatalogs(t), "SELECT s.code, n FROM (SELECT base.status AS s, count(*) AS n FROM trips GROUP BY base.status) x")
	got := Format(n)
	agg := strings.Index(got, "Aggregate(")
	deref := strings.Index(got, "s.code")
	if agg < 0 || deref < 0 || deref > agg {
		t.Fatalf("s.code is not computed above the aggregate:\n%s", got)
	}
	if !strings.Contains(got, "nestedPaths=[base.status]") {
		t.Errorf("the group key is not read as base.status:\n%s", got)
	}
}

// The rule costs a plan without dereferences nothing: Optimize runs on every
// statement, result-cache hits included.
func TestDereferencePushdownIdentity(t *testing.T) {
	catalogs := testCatalogs(t)
	session := &Session{Catalog: "memory", Schema: "s", Properties: map[string]string{}}
	o := &Optimizer{Catalogs: catalogs, Session: session}
	for _, q := range []string{
		"SELECT a, b FROM t WHERE c > 1.0 ORDER BY a LIMIT 3",
		"SELECT t.b, count(*) FROM t JOIN u ON t.a = u.a AND t.c > 1.0 GROUP BY t.b",
		"SELECT x.a FROM (SELECT a, count(*) AS n FROM t GROUP BY a) x WHERE x.n > 1",
	} {
		stmt := parseQuery(t, q)
		n, err := (&Analyzer{Catalogs: catalogs, Session: session}).Analyze(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if out := o.pushDereferencesKeepWidth(n); out != n {
			t.Errorf("%s: plan without a dereference was rebuilt", q)
		}
		allocs := testing.AllocsPerRun(20, func() { o.pushDereferencesKeepWidth(n) })
		if allocs != 0 {
			t.Errorf("%s: %v allocations on a plan without a dereference", q, allocs)
		}
	}
}
