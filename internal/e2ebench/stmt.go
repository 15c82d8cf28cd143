package e2ebench

import (
	"fmt"
	"strings"
)

// Statement is one generated request. The engine only ever sees SQL and
// Session; Template is the benchmark's own bookkeeping.
type Statement struct {
	SQL string
	// Session is the gateway session key ("" = none).
	Session string
	// Template indexes the workload's template list.
	Template int
}

// Stream maps a request's position in the run to its statement. It is a
// pure function of (workload, seed, i): clients draw i from a shared counter,
// so the sequence is the same on every host however the clients interleave.
type Stream func(i int64) Statement

// splitmix is SplitMix64: a stateless-to-seed, allocation-free generator, so
// Stream can derive request i's randomness from (seed, i) directly.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

func seeded(seed, salt int64) splitmix {
	s := splitmix(uint64(seed)*0x2545f4914f6cdd1d + uint64(salt))
	s.next()
	return s
}

// permutation returns a seed-and-cycle-specific ordering of 0..n-1.
func permutation(seed, cycle int64, n int) []int {
	r := seeded(seed, cycle)
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// template is one query shape with its literal domain spelled out: every
// variant is a complete statement. Finite domains are what let the golden
// file hold the expected answer of every statement any seed can draw.
type template struct {
	name     string
	variants []string
}

func variants(format string, literals ...any) []string {
	out := make([]string, len(literals))
	for i, l := range literals {
		out[i] = fmt.Sprintf(format, l)
	}
	return out
}

var (
	tripDates = []any{"2017-03-01", "2017-03-02", "2017-03-03"}
	// Thresholds sit at the low end of each column's range, so the four
	// variants of a template return different rows for nearly equal work.
	tripDurations = []any{120, 150, 180, 210}
	tripDistances = []any{"0.5", "1.0", "1.5", "2.0"}
)

// needleCity must equal workload.TripsConfig.NeedleCityID for the data the
// stacks build: it appears exactly once per date.
const needleCity = 99999

// scanAggTemplates are the Fig 17 Q01-Q09 shapes: two scans (Q02 projects
// three nested leaves of every row), two needles, five group-bys.
func scanAggTemplates() []template {
	needle := fmt.Sprint(needleCity)
	return []template{
		{"Q01 scan projection", variants("SELECT base.driver_uuid, base.fare FROM trips WHERE datestr = '%s'", tripDates...)},
		{"Q02 scan nested fields", variants("SELECT base.status.code, base.vehicle.make, base.%s FROM trips", "distance_km", "duration_s", "surge", "tip")},
		{"Q03 needle city", variants("SELECT base.driver_uuid FROM trips WHERE datestr = '%s' AND base.city_id IN ("+needle+")", tripDates...)},
		{"Q04 needle deep field", variants("SELECT base.%s FROM trips WHERE base.city_id = "+needle, "client_uuid", "driver_uuid", "product", "rating")},
		{"Q05 groupby city", variants("SELECT base.city_id, count(*) FROM trips WHERE base.duration_s >= %d GROUP BY base.city_id", tripDurations...)},
		{"Q06 groupby date revenue", variants("SELECT datestr, sum(base.fare), avg(base.tip) FROM trips WHERE base.duration_s >= %d GROUP BY datestr", tripDurations...)},
		{"Q07 groupby product", variants("SELECT base.product, count(*), avg(base.distance_km) FROM trips WHERE base.distance_km >= %s GROUP BY base.product", tripDistances...)},
		{"Q08 groupby status", variants("SELECT base.status.code, count(*) FROM trips WHERE base.duration_s >= %d GROUP BY base.status.code", tripDurations...)},
		{"Q09 groupby filtered", variants("SELECT base.city_id, max(base.fare) FROM trips WHERE base.fare > %s GROUP BY base.city_id", "40.0", "40.5", "41.0", "41.5")},
	}
}

// joinTemplates are the Fig 17 Q10-Q21 shapes: twelve joins of trips with
// the cities and drivers dimensions.
func joinTemplates() []template {
	const cities = "FROM trips t JOIN cities c ON t.base.city_id = c.city_id"
	const drivers = "FROM trips t JOIN drivers d ON t.base.driver_uuid = d.driver_uuid"
	tiers := []any{"gold", "silver", "bronze"}
	return []template{
		{"Q10 join cities", variants("SELECT c.name, count(*) "+cities+" WHERE t.base.duration_s >= %d GROUP BY c.name", tripDurations...)},
		{"Q11 join cities filtered", variants("SELECT c.region, sum(t.base.fare) "+cities+" WHERE t.datestr = '%s' GROUP BY c.region", tripDates...)},
		{"Q12 join drivers", variants("SELECT d.tier, count(*) "+drivers+" WHERE t.base.duration_s >= %d GROUP BY d.tier", tripDurations...)},
		{"Q13 join drivers tier", variants("SELECT count(*) "+drivers+" WHERE d.tier = '%s'", tiers...)},
		{"Q14 join both dims", variants("SELECT c.region, d.tier, count(*) "+cities+" JOIN drivers d ON t.base.driver_uuid = d.driver_uuid WHERE t.base.duration_s >= %d GROUP BY c.region, d.tier", tripDurations...)},
		{"Q15 join revenue by region", variants("SELECT c.region, sum(t.base.fare + t.base.tip) "+cities+" WHERE t.base.duration_s >= %d GROUP BY c.region", tripDurations...)},
		{"Q16 join high fares", variants("SELECT c.name, max(t.base.fare) "+cities+" WHERE t.base.fare > %s GROUP BY c.name", "45.0", "45.5", "46.0", "46.5")},
		{"Q17 join product mix", variants("SELECT c.region, t.base.product, count(*) "+cities+" WHERE t.base.duration_s >= %d GROUP BY c.region, t.base.product", tripDurations...)},
		{"Q18 join by reason", variants("SELECT c.name, count(*) "+cities+" WHERE t.base.status.reason = '%s' GROUP BY c.name", "canceled", "completed", "no_show")},
		{"Q19 join vehicles", variants("SELECT t.base.vehicle.make, c.region, avg(t.base.distance_km) "+cities+" WHERE t.base.distance_km >= %s GROUP BY t.base.vehicle.make, c.region", tripDistances...)},
		{"Q20 join driver revenue", variants("SELECT d.tier, sum(t.base.fare) "+drivers+" WHERE t.datestr = '%s' GROUP BY d.tier", tripDates...)},
		{"Q21 join top cities", variants("SELECT c.name, count(*) AS n "+cities+" WHERE t.base.duration_s >= %d GROUP BY c.name ORDER BY n DESC, c.name LIMIT 10", tripDurations...)},
	}
}

// templateStream cycles through the templates — each cycle a fresh
// seed-specific permutation, so the mix is exactly uniform for every seed —
// and draws each request's variant from (seed, i).
func templateStream(ts []template, seed int64) Stream {
	n := int64(len(ts))
	return func(i int64) Statement {
		t := permutation(seed, i/n, len(ts))[i%n]
		r := seeded(seed, ^i)
		v := ts[t].variants
		return Statement{SQL: v[r.intn(len(v))], Template: t}
	}
}

// Dashboard: 32 sessions each refresh the same six aggregate tiles over
// lineitem, filtered by a literal of the session's own. 192 distinct
// statements fit the coordinators' 256-entry result caches.
const (
	dashSessions = 32
	dashTiles    = 6
)

// dashTile is one tile: the SQL shape (with one %d for the session's
// l_partkey bound) and the same query as data for the reference evaluator.
type dashTile struct {
	format string
	// where is the tile's own predicate, besides the session bound.
	where func(row []any) bool
	// keys are the group-by (and order-by) column ordinals.
	keys []int
	aggs []dashAgg
}

type dashAgg struct {
	fn  string // count, sum, avg, max
	col int
}

// lineitem column ordinals (tpch.LineItemColumns).
const (
	liPartKey    = 1
	liQuantity   = 4
	liPrice      = 5
	liDiscount   = 6
	liTax        = 7
	liReturnFlag = 8
	liLineStatus = 9
	liShipMode   = 14
)

func dashTilesDef() []dashTile {
	return []dashTile{
		{format: "SELECT l_returnflag, l_linestatus, count(*) AS n, sum(l_quantity) AS q FROM lineitem WHERE l_partkey <= %d GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
			keys: []int{liReturnFlag, liLineStatus}, aggs: []dashAgg{{"count", -1}, {"sum", liQuantity}}},
		{format: "SELECT count(*) AS n FROM lineitem WHERE l_quantity < 25.0 AND l_partkey <= %d",
			where: func(r []any) bool { return r[liQuantity].(float64) < 25 }, aggs: []dashAgg{{"count", -1}}},
		{format: "SELECT l_shipmode, count(*) AS n FROM lineitem WHERE l_partkey <= %d GROUP BY l_shipmode ORDER BY l_shipmode",
			keys: []int{liShipMode}, aggs: []dashAgg{{"count", -1}}},
		{format: "SELECT l_returnflag, sum(l_extendedprice) AS revenue FROM lineitem WHERE l_partkey <= %d GROUP BY l_returnflag ORDER BY l_returnflag",
			keys: []int{liReturnFlag}, aggs: []dashAgg{{"sum", liPrice}}},
		{format: "SELECT l_linestatus, avg(l_discount) AS d, max(l_tax) AS t FROM lineitem WHERE l_partkey <= %d GROUP BY l_linestatus ORDER BY l_linestatus",
			keys: []int{liLineStatus}, aggs: []dashAgg{{"avg", liDiscount}, {"max", liTax}}},
		{format: "SELECT count(*) AS n FROM lineitem WHERE l_shipmode = 'AIR' AND l_partkey <= %d",
			where: func(r []any) bool { return r[liShipMode].(string) == "AIR" }, aggs: []dashAgg{{"count", -1}}},
	}
}

// dashBounds draws each session's l_partkey bound (l_partkey is uniform on
// 1..200000, so every session keeps 75-100% of the rows), distinct per
// session so the 192 statements are distinct.
func dashBounds(seed int64) []int64 {
	r := seeded(seed, -1)
	seen := map[int64]bool{}
	out := make([]int64, 0, dashSessions)
	for len(out) < dashSessions {
		b := int64(150000 + r.intn(50000))
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// dashStatement is statement number k (session k/6, tile k%6).
func dashStatement(tiles []dashTile, bounds []int64, k int) Statement {
	s, t := k/dashTiles, k%dashTiles
	return Statement{
		SQL:      fmt.Sprintf(tiles[t].format, bounds[s]),
		Session:  fmt.Sprintf("dash-%02d", s),
		Template: k,
	}
}

// dashStream issues the 192 statements in a fresh permutation per cycle.
func dashStream(seed int64) Stream {
	tiles, bounds := dashTilesDef(), dashBounds(seed)
	const n = dashSessions * dashTiles
	return func(i int64) Statement {
		return dashStatement(tiles, bounds, permutation(seed, i/n, n)[i%n])
	}
}

// hybridBoundary splits the hybrid events table: hive history below it,
// druid real-time rows (ts = hybridBoundary + event sequence) from it up.
const hybridBoundary = int64(1_000_000)

// hybridTemplates are the three real-time statements; each also returns
// max(ts), which names the newest event the answer reflects.
func hybridTemplates() []template {
	return []template{
		{"H1 count", []string{"SELECT count(*) AS n, max(ts) AS m FROM events"}},
		{"H2 clicks by country", []string{"SELECT country, sum(clicks) AS s, count(*) AS n, max(ts) AS m FROM events GROUP BY country"}},
		{"H3 realtime count", []string{fmt.Sprintf("SELECT count(*) AS n, max(ts) AS m FROM events WHERE ts >= %d", hybridBoundary)}},
	}
}

// shortSQL trims a statement for error messages.
func shortSQL(sql string) string {
	sql = strings.Join(strings.Fields(sql), " ")
	if len(sql) > 120 {
		return sql[:117] + "..."
	}
	return sql
}
