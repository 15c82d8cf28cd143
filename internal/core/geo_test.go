package core

import (
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"prestolite/internal/connector"
	"prestolite/internal/connectors/memory"
	"prestolite/internal/execution"
	"prestolite/internal/geo"
	"prestolite/internal/types"
)

// geoEngine builds trips + cities tables: cities have square geofences at
// (i*10+5, i*10+5), trips land inside specific cities.
func geoEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mem := memory.New("memory")

	if err := mem.CreateTable("geo", "cities", []connector.Column{
		{Name: "city_id", Type: types.Bigint},
		{Name: "geo_shape", Type: types.Varchar},
	}, nil); err != nil {
		t.Fatal(err)
	}
	var cityRows [][]any
	for i := 0; i < 5; i++ {
		c := float64(i*10 + 5)
		shape := fmt.Sprintf("POLYGON ((%v %v, %v %v, %v %v, %v %v, %v %v))",
			c-3, c-3, c+3, c-3, c+3, c+3, c-3, c+3, c-3, c-3)
		cityRows = append(cityRows, []any{int64(i), shape})
	}
	if err := mem.AppendRows("geo", "cities", cityRows); err != nil {
		t.Fatal(err)
	}

	if err := mem.CreateTable("geo", "trips", []connector.Column{
		{Name: "trip_id", Type: types.Bigint},
		{Name: "dest_lng", Type: types.Double},
		{Name: "dest_lat", Type: types.Double},
		{Name: "datestr", Type: types.Varchar},
	}, nil); err != nil {
		t.Fatal(err)
	}
	trips := [][]any{
		{int64(1), 5.0, 5.0, "2017-08-01"},   // city 0
		{int64(2), 15.5, 15.5, "2017-08-01"}, // city 1
		{int64(3), 15.0, 14.0, "2017-08-01"}, // city 1
		{int64(4), 99.0, 99.0, "2017-08-01"}, // no city
		{int64(5), 25.0, 25.0, "2017-08-02"}, // city 2, other date
	}
	if err := mem.AppendRows("geo", "trips", trips); err != nil {
		t.Fatal(err)
	}
	e.Register("memory", mem)
	return e
}

// paperGeoQuery is the §VI.C query verbatim (modulo table names).
const paperGeoQuery = `SELECT c.city_id, count(*)
	FROM trips AS t
	JOIN cities AS c
	ON st_contains(c.geo_shape, st_point(t.dest_lng, t.dest_lat))
	WHERE datestr = '2017-08-01'
	GROUP BY 1`

func TestGeoJoinRewritePlan(t *testing.T) {
	e := geoEngine(t)
	s := DefaultSession("memory", "geo")
	plan, err := e.Explain(s, paperGeoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "GeoSpatialJoin[quadtree") {
		t.Errorf("plan missing quadtree geo join (Fig 13):\n%s", plan)
	}
	if strings.Contains(plan, "st_contains") && strings.Contains(plan, "Filter") {
		// st_contains must not remain as a post-join filter
		t.Errorf("brute-force st_contains filter still present:\n%s", plan)
	}
}

func TestGeoJoinDisabledFallsBackToBruteForce(t *testing.T) {
	e := geoEngine(t)
	s := DefaultSession("memory", "geo")
	s.Properties["geospatial_optimization"] = "false"
	plan, err := e.Explain(s, paperGeoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "GeoSpatialJoin") {
		t.Errorf("rewrite should be disabled:\n%s", plan)
	}
	if !strings.Contains(plan, "st_contains") {
		t.Errorf("brute force plan should keep st_contains:\n%s", plan)
	}
}

func TestGeoJoinResultsMatchBruteForce(t *testing.T) {
	e := geoEngine(t)
	fast := DefaultSession("memory", "geo")
	slow := DefaultSession("memory", "geo")
	slow.Properties["geospatial_optimization"] = "false"

	queries := []string{
		paperGeoQuery + " ORDER BY 1",
		`SELECT t.trip_id, c.city_id FROM trips t JOIN cities c
			ON st_contains(c.geo_shape, st_point(t.dest_lng, t.dest_lat))
			ORDER BY t.trip_id`,
		// Shape on the left side (swapped orientation).
		`SELECT t.trip_id, c.city_id FROM cities c JOIN trips t
			ON st_contains(c.geo_shape, st_point(t.dest_lng, t.dest_lat))
			ORDER BY t.trip_id`,
	}
	for _, q := range queries {
		r1, err := e.Query(fast, q)
		if err != nil {
			t.Fatalf("fast %s: %v", q, err)
		}
		r2, err := e.Query(slow, q)
		if err != nil {
			t.Fatalf("slow %s: %v", q, err)
		}
		if !reflect.DeepEqual(r1.Rows(), r2.Rows()) {
			t.Errorf("results differ for %s:\nquadtree: %v\nbrute:    %v", q, r1.Rows(), r2.Rows())
		}
	}
}

func TestPaperGeoQueryResults(t *testing.T) {
	e := geoEngine(t)
	res, err := e.Query(DefaultSession("memory", "geo"), paperGeoQuery+" ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{
		{int64(0), int64(1)},
		{int64(1), int64(2)},
	}
	if !reflect.DeepEqual(res.Rows(), want) {
		t.Fatalf("rows = %v, want %v", res.Rows(), want)
	}
}

func TestBuildGeoIndexAggregationInSQL(t *testing.T) {
	// The plugin's build_geo_index aggregation + geo_contains function
	// (Fig 13's rewritten shape, usable directly).
	e := geoEngine(t)
	s := DefaultSession("memory", "geo")
	res, err := e.Query(s, "SELECT build_geo_index(geo_shape) FROM cities")
	if err != nil {
		t.Fatal(err)
	}
	serialized, ok := res.Rows()[0][0].(string)
	if !ok || serialized == "" {
		t.Fatalf("build_geo_index = %v", res.Rows()[0][0])
	}
	idx, err := geo.DeserializeIndex(serialized)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Lookup(geo.Point{Lng: 15, Lat: 15}); len(got) != 1 || got[0] != 1 {
		t.Errorf("lookup = %v", got)
	}

	res, err = e.Query(s, `SELECT count(*) FROM trips t, (SELECT build_geo_index(geo_shape) AS gidx FROM cities) AS g
		WHERE geo_contains(g.gidx, st_point(t.dest_lng, t.dest_lat))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0] != int64(4) {
		t.Fatalf("geo_contains count = %v", res.Rows())
	}
}

// TestGeoJoinBuildSideIsCharged: the spatial join buffers its whole build
// side, so it charges the query memory pool like a hash join's build — a
// typed Insufficient Resources under a tiny cap, the same rows without one,
// and a nonzero peak in EXPLAIN ANALYZE's memory footer.
func TestGeoJoinBuildSideIsCharged(t *testing.T) {
	e := geoEngine(t)
	const join = `SELECT t.trip_id, c.city_id FROM trips t JOIN cities c
		ON st_contains(c.geo_shape, st_point(t.dest_lng, t.dest_lat))`
	s := DefaultSession("memory", "geo")
	res, err := e.Query(s, join+" ORDER BY t.trip_id")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{{int64(1), int64(0)}, {int64(2), int64(1)}, {int64(3), int64(1)}, {int64(5), int64(2)}}
	if !reflect.DeepEqual(res.Rows(), want) {
		t.Fatalf("rows = %v, want %v", res.Rows(), want)
	}
	res, err = e.Query(s, "EXPLAIN ANALYZE "+join)
	if err != nil {
		t.Fatal(err)
	}
	text := res.Rows()[0][0].(string)
	if !strings.Contains(text, "GeoSpatialJoin[quadtree") {
		t.Fatalf("plan has no quadtree join:\n%s", text)
	}
	// The spatial join is the statement's only blocking operator.
	if !regexp.MustCompile(`\nMemory: peak [1-9]\d* B, spilled 0 B\n$`).MatchString(text) {
		t.Errorf("no memory charged for the spatial join's build side:\n%s", text)
	}

	s.Properties["query_max_memory"] = "64"
	for _, c := range []struct{ q, op string }{
		{join, "the build side of a spatial join"},
		{"SELECT t.trip_id, c.city_id FROM trips t JOIN cities c ON t.trip_id = c.city_id", "the build side of a join"},
	} {
		_, err := e.Query(s, c.q)
		var insufficient execution.ErrInsufficientResources
		if !errors.As(err, &insufficient) || insufficient.Operator != c.op || insufficient.Limit != 64 {
			t.Errorf("%s under query_max_memory=64: err = %v, want Insufficient Resources in %s", c.q, err, c.op)
		}
	}
}
