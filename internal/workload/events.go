package workload

import (
	"fmt"
	"math/rand"

	"prestolite/internal/druid"
	"prestolite/internal/expr"
	"prestolite/internal/types"
)

// The Fig 16 workload: a druid events table plus "20 druid production
// queries ... 14 of them have predicates, 5 of them have limits, and 12 of
// them are aggregation queries" (categories overlap, as in production).

// EventsConfig sizes the druid table.
type EventsConfig struct {
	Rows     int
	Segments int
}

// DefaultEventsConfig is the benchmark sizing.
func DefaultEventsConfig() EventsConfig { return EventsConfig{Rows: 200000, Segments: 4} }

// BuildEventsTable loads the events table into a druid store.
func BuildEventsTable(store *druid.Store, cfg EventsConfig) error {
	tab, err := store.CreateTable("events", []druid.Column{
		{Name: "country", Type: types.Varchar},
		{Name: "device", Type: types.Varchar},
		{Name: "service", Type: types.Varchar},
		{Name: "status", Type: types.Bigint},
		{Name: "clicks", Type: types.Bigint},
		{Name: "latency_ms", Type: types.Double},
		{Name: "revenue", Type: types.Double},
	})
	if err != nil {
		return err
	}
	countries := []string{"us", "de", "jp", "br", "in", "fr", "uk", "mx", "ca", "au"}
	devices := []string{"ios", "android", "web"}
	services := []string{"rides", "eats", "freight", "payments"}
	r := rand.New(rand.NewSource(7))
	perSeg := cfg.Rows / cfg.Segments
	for s := 0; s < cfg.Segments; s++ {
		rows := make([][]any, perSeg)
		for i := range rows {
			rows[i] = []any{
				countries[r.Intn(len(countries))],
				devices[r.Intn(len(devices))],
				services[r.Intn(len(services))],
				int64(200 + 100*r.Intn(4)),
				int64(r.Intn(50)),
				float64(r.Intn(2000)) / 2,
				r.Float64() * 10,
			}
		}
		if err := tab.Ingest(rows); err != nil {
			return err
		}
	}
	return nil
}

// EventQuery pairs a SQL form (run through the connector) with the native
// druid form (run directly against the store), plus its category flags.
type EventQuery struct {
	Name          string
	SQL           string
	Native        druid.Query
	HasPredicate  bool
	HasLimit      bool
	IsAggregation bool
}

// EventQueries returns the 20-query Fig 16 workload: 14 with predicates,
// 5 with limits, 12 aggregations.
func EventQueries() []EventQuery {
	agg := func(name, col string, f string) druid.Aggregation {
		return druid.Aggregation{Func: f, Column: col, Name: name}
	}
	eq := func(col string, v any) expr.Comparison {
		return expr.Comparison{Column: col, Op: expr.OpEq, Values: []any{v}}
	}
	qs := []EventQuery{
		// Aggregations with predicates (the real-time dashboard shape).
		{Name: "q01", SQL: "SELECT country, sum(clicks) FROM events WHERE device = 'ios' GROUP BY country",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{eq("device", "ios")}, GroupBy: []string{"country"}, Aggregations: []druid.Aggregation{agg("sum(clicks)", "clicks", "sum")}},
			HasPredicate: true, IsAggregation: true},
		{Name: "q02", SQL: "SELECT service, count(*) FROM events WHERE country = 'us' GROUP BY service",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{eq("country", "us")}, GroupBy: []string{"service"}, Aggregations: []druid.Aggregation{agg("count(*)", "", "count")}},
			HasPredicate: true, IsAggregation: true},
		{Name: "q03", SQL: "SELECT device, avg(latency_ms) FROM events WHERE service = 'rides' GROUP BY device",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{eq("service", "rides")}, GroupBy: []string{"device"}, Aggregations: []druid.Aggregation{agg("avg(latency_ms)", "latency_ms", "avg")}},
			HasPredicate: true, IsAggregation: true},
		{Name: "q04", SQL: "SELECT country, max(latency_ms) FROM events WHERE status = 500 GROUP BY country",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{eq("status", int64(500))}, GroupBy: []string{"country"}, Aggregations: []druid.Aggregation{agg("max(latency_ms)", "latency_ms", "max")}},
			HasPredicate: true, IsAggregation: true},
		{Name: "q05", SQL: "SELECT sum(revenue) FROM events WHERE country = 'de'",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{eq("country", "de")}, Aggregations: []druid.Aggregation{agg("sum(revenue)", "revenue", "sum")}},
			HasPredicate: true, IsAggregation: true},
		{Name: "q06", SQL: "SELECT count(*) FROM events WHERE device = 'web' AND service = 'eats'",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{eq("device", "web"), eq("service", "eats")}, Aggregations: []druid.Aggregation{agg("count(*)", "", "count")}},
			HasPredicate: true, IsAggregation: true},
		{Name: "q07", SQL: "SELECT service, sum(clicks), sum(revenue) FROM events WHERE country IN ('us', 'ca', 'mx') GROUP BY service",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{{Column: "country", Op: expr.OpIn, Values: []any{"us", "ca", "mx"}}}, GroupBy: []string{"service"}, Aggregations: []druid.Aggregation{agg("sum(clicks)", "clicks", "sum"), agg("sum(revenue)", "revenue", "sum")}},
			HasPredicate: true, IsAggregation: true},
		{Name: "q08", SQL: "SELECT country, device, count(*) FROM events WHERE clicks > 40 GROUP BY country, device",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{{Column: "clicks", Op: expr.OpGt, Values: []any{int64(40)}}}, GroupBy: []string{"country", "device"}, Aggregations: []druid.Aggregation{agg("count(*)", "", "count")}},
			HasPredicate: true, IsAggregation: true},
		{Name: "q09", SQL: "SELECT min(latency_ms), max(latency_ms), avg(latency_ms) FROM events",
			Native:        druid.Query{Table: "events", Aggregations: []druid.Aggregation{agg("min(latency_ms)", "latency_ms", "min"), agg("max(latency_ms)", "latency_ms", "max"), agg("avg(latency_ms)", "latency_ms", "avg")}},
			IsAggregation: true},
		{Name: "q10", SQL: "SELECT country, count(*) FROM events GROUP BY country",
			Native:        druid.Query{Table: "events", GroupBy: []string{"country"}, Aggregations: []druid.Aggregation{agg("count(*)", "", "count")}},
			IsAggregation: true},
		{Name: "q11", SQL: "SELECT device, sum(revenue) FROM events GROUP BY device",
			Native:        druid.Query{Table: "events", GroupBy: []string{"device"}, Aggregations: []druid.Aggregation{agg("sum(revenue)", "revenue", "sum")}},
			IsAggregation: true},
		{Name: "q12", SQL: "SELECT service, avg(clicks) FROM events GROUP BY service",
			Native:        druid.Query{Table: "events", GroupBy: []string{"service"}, Aggregations: []druid.Aggregation{agg("avg(clicks)", "clicks", "avg")}},
			IsAggregation: true},
		// Select queries with predicates + limits (monitoring drill-downs).
		{Name: "q13", SQL: "SELECT country, device, latency_ms FROM events WHERE status = 500 LIMIT 100",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{eq("status", int64(500))}, Columns: []string{"country", "device", "latency_ms"}, Limit: 100},
			HasPredicate: true, HasLimit: true},
		{Name: "q14", SQL: "SELECT country, clicks FROM events WHERE device = 'android' LIMIT 50",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{eq("device", "android")}, Columns: []string{"country", "clicks"}, Limit: 50},
			HasPredicate: true, HasLimit: true},
		{Name: "q15", SQL: "SELECT service, revenue FROM events WHERE revenue > 9.5 LIMIT 20",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{{Column: "revenue", Op: expr.OpGt, Values: []any{9.5}}}, Columns: []string{"service", "revenue"}, Limit: 20},
			HasPredicate: true, HasLimit: true},
		{Name: "q16", SQL: "SELECT country, service FROM events LIMIT 10",
			Native:   druid.Query{Table: "events", Columns: []string{"country", "service"}, Limit: 10},
			HasLimit: true},
		{Name: "q17", SQL: "SELECT device FROM events WHERE country = 'jp' LIMIT 200",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{eq("country", "jp")}, Columns: []string{"device"}, Limit: 200},
			HasPredicate: true, HasLimit: true},
		// Plain filtered selects.
		{Name: "q18", SQL: "SELECT clicks, latency_ms FROM events WHERE country = 'fr' AND device = 'ios'",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{eq("country", "fr"), eq("device", "ios")}, Columns: []string{"clicks", "latency_ms"}},
			HasPredicate: true},
		{Name: "q19", SQL: "SELECT country, status FROM events",
			Native: druid.Query{Table: "events", Columns: []string{"country", "status"}}},
		{Name: "q20", SQL: "SELECT device, clicks FROM events WHERE status = 400",
			Native:       druid.Query{Table: "events", Filters: []expr.Comparison{eq("status", int64(400))}, Columns: []string{"device", "clicks"}},
			HasPredicate: true},
	}
	// Sanity: the paper's category counts.
	preds, limits, aggs := 0, 0, 0
	for _, q := range qs {
		if q.HasPredicate {
			preds++
		}
		if q.HasLimit {
			limits++
		}
		if q.IsAggregation {
			aggs++
		}
	}
	if len(qs) != 20 || preds != 14 || limits != 5 || aggs != 12 {
		panic(fmt.Sprintf("workload: fig16 category counts off: %d queries, %d preds, %d limits, %d aggs",
			len(qs), preds, limits, aggs))
	}
	return qs
}
