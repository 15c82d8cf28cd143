package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	druidconn "prestolite/internal/connectors/druid"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/connectors/hybrid"
	"prestolite/internal/druid"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/types"
)

// Hybrid batch + real-time tables: one logical table planner-expanded into
// union(parquet historical, druid real-time) split on a time watermark.

const hybridBoundary = int64(1000)

type hybridRow struct {
	ts      int64
	country string
	clicks  int64
}

func hybridHistRows() []hybridRow {
	out := make([]hybridRow, 300)
	for i := range out {
		out[i] = hybridRow{ts: int64(i * 3), country: []string{"us", "de", "jp"}[i%3], clicks: int64(i % 10)}
	}
	return out
}

func hybridRTRows() []hybridRow {
	out := make([]hybridRow, 200)
	for i := range out {
		out[i] = hybridRow{ts: hybridBoundary + int64(i*4), country: []string{"us", "de", "jp"}[i%3], clicks: int64(i % 7)}
	}
	return out
}

// hybridEngine builds hive(historical) + druid(real-time) + hybrid catalogs.
// The druid table also holds pre-watermark duplicates of the first 50
// historical rows — the boundary predicates must exclude them or counts go
// wrong, which is exactly what the row-exactness assertions check.
func hybridEngine(t *testing.T) (*Engine, *druid.Table) {
	t.Helper()
	fs := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	cols := []metastore.Column{
		{Name: "ts", Type: types.Bigint},
		{Name: "country", Type: types.Varchar},
		{Name: "clicks", Type: types.Bigint},
	}
	pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Varchar, types.Bigint})
	for _, r := range hybridHistRows() {
		pb.AppendRow([]any{r.ts, r.country, r.clicks})
	}
	if err := loader.CreateTable("web", "events_hist", cols, []*block.Page{pb.Build()}); err != nil {
		t.Fatal(err)
	}

	store := druid.NewStore()
	rt, err := store.CreateTable("events_rt", []druid.Column{
		{Name: "ts", Type: types.Bigint},
		{Name: "country", Type: types.Varchar},
		{Name: "clicks", Type: types.Bigint},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for _, r := range hybridRTRows() {
		rows = append(rows, []any{r.ts, r.country, r.clicks})
	}
	for _, r := range hybridHistRows()[:50] { // pre-watermark duplicates
		rows = append(rows, []any{r.ts, r.country, r.clicks})
	}
	if err := rt.Ingest(rows); err != nil {
		t.Fatal(err)
	}

	e := New()
	e.Register("hive", hive.New("hive", ms, fs, hive.Options{}))
	e.Register("druid", druidconn.New("druid", &druid.EmbeddedClient{Store: store}))
	hc := hybrid.New("hybrid", e.Catalogs)
	if err := hc.AddTable("events", hybrid.TableConfig{
		Historical: connector.HybridPart{Catalog: "hive", Schema: "web", Table: "events_hist"},
		Realtime:   connector.HybridPart{Catalog: "druid", Schema: "default", Table: "events_rt"},
		TimeColumn: "ts",
		Boundary:   hybridBoundary,
	}); err != nil {
		t.Fatal(err)
	}
	e.Register("hybrid", hc)
	return e, rt
}

func hybridQuery(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.Query(DefaultSession("hybrid", "default"), sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

func TestHybridExpansionExplain(t *testing.T) {
	e, _ := hybridEngine(t)
	explain := func(sql string) string {
		t.Helper()
		out, err := e.Explain(DefaultSession("hybrid", "default"), sql)
		if err != nil {
			t.Fatalf("explain %q: %v", sql, err)
		}
		return out
	}

	// No time predicate: both sides under a Union.
	plan := explain("SELECT country, clicks FROM events")
	for _, want := range []string{"Union[2 sources]", "hive.web.events_hist", "druid.default.events_rt"} {
		if !strings.Contains(plan, want) {
			t.Errorf("full-range plan missing %q:\n%s", want, plan)
		}
	}
	// The hybrid catalog itself must not survive into the physical plan.
	if strings.Contains(plan, "hybrid.default.events") {
		t.Errorf("hybrid scan not expanded:\n%s", plan)
	}

	// Historical-only predicate prunes the real-time side.
	plan = explain("SELECT count(*) FROM events WHERE ts < 500")
	if strings.Contains(plan, "Union") || strings.Contains(plan, "events_rt") {
		t.Errorf("ts < 500 should plan historical only:\n%s", plan)
	}
	if !strings.Contains(plan, "events_hist") {
		t.Errorf("ts < 500 lost the historical side:\n%s", plan)
	}

	// Real-time-only predicate prunes the historical side.
	plan = explain("SELECT count(*) FROM events WHERE ts >= 1500")
	if strings.Contains(plan, "Union") || strings.Contains(plan, "events_hist") {
		t.Errorf("ts >= 1500 should plan real-time only:\n%s", plan)
	}
	if !strings.Contains(plan, "events_rt") {
		t.Errorf("ts >= 1500 lost the real-time side:\n%s", plan)
	}
	// The predicate implies the side's bound, so the scan carries it alone:
	// the store runs every filter it is handed.
	for where, pushed := range map[string]string{"ts >= 1500": "filter[", "ts >= 1000": "filter[", "ts < 1000": "predicate[", "ts < 500": "predicate["} {
		plan = explain("SELECT count(*) FROM events WHERE " + where)
		if n := strings.Count(plan, pushed); n != 1 {
			t.Errorf("WHERE %s: the scan carries %d comparisons, want exactly one:\n%s", where, n, plan)
		}
	}
}

func TestHybridResultsRowExact(t *testing.T) {
	e, _ := hybridEngine(t)
	hist, rt := hybridHistRows(), hybridRTRows()

	// count(*): every row exactly once despite the duplicated pre-watermark
	// rows sitting in the druid store.
	res := hybridQuery(t, e, "SELECT count(*) AS n FROM events")
	if got, want := res.Rows()[0][0], int64(len(hist)+len(rt)); got != want {
		t.Errorf("count(*) = %v, want %d", got, want)
	}

	// Global sum across both sides.
	var wantSum int64
	for _, r := range hist {
		wantSum += r.clicks
	}
	for _, r := range rt {
		wantSum += r.clicks
	}
	res = hybridQuery(t, e, "SELECT sum(clicks) AS s FROM events")
	if got := res.Rows()[0][0]; got != wantSum {
		t.Errorf("sum(clicks) = %v, want %d", got, wantSum)
	}

	// Grouped aggregation spanning the boundary.
	wantByCountry := map[string]int64{}
	for _, r := range append(append([]hybridRow{}, hist...), rt...) {
		wantByCountry[r.country]++
	}
	res = hybridQuery(t, e, "SELECT country, count(*) AS n FROM events GROUP BY country ORDER BY country")
	var got []string
	for _, row := range res.Rows() {
		got = append(got, fmt.Sprint(row))
	}
	var want []string
	for c, n := range wantByCountry {
		want = append(want, fmt.Sprint([]any{c, n}))
	}
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("group by country = %v, want %v", got, want)
	}

	// A time range crossing the watermark reads both sides, filtered.
	var wantRange int64
	for _, r := range append(append([]hybridRow{}, hist...), rt...) {
		if r.ts >= 500 && r.ts < 1500 {
			wantRange++
		}
	}
	res = hybridQuery(t, e, "SELECT count(*) AS n FROM events WHERE ts >= 500 AND ts < 1500")
	if got := res.Rows()[0][0]; got != wantRange {
		t.Errorf("boundary-crossing count = %v, want %d", got, wantRange)
	}

	// Single-side ranges agree with the base tables.
	var wantHist int64
	for _, r := range hist {
		if r.ts < 500 {
			wantHist++
		}
	}
	res = hybridQuery(t, e, "SELECT count(*) AS n FROM events WHERE ts < 500")
	if got := res.Rows()[0][0]; got != wantHist {
		t.Errorf("historical-only count = %v, want %d", got, wantHist)
	}
}

// Rows appended to the druid side are visible to hybrid SQL immediately —
// the real-time half of the paper's title promise.
func TestHybridSeesFreshIngest(t *testing.T) {
	e, rt := hybridEngine(t)
	before := hybridQuery(t, e, "SELECT count(*) AS n FROM events").Rows()[0][0].(int64)
	fresh := [][]any{
		{int64(90001), "br", int64(5)},
		{int64(90002), "br", int64(6)},
		{int64(90003), "br", int64(7)},
	}
	if err := rt.Ingest(fresh); err != nil {
		t.Fatal(err)
	}
	after := hybridQuery(t, e, "SELECT count(*) AS n FROM events").Rows()[0][0].(int64)
	if after != before+3 {
		t.Errorf("count after ingest = %d, want %d", after, before+3)
	}
	res := hybridQuery(t, e, "SELECT sum(clicks) AS s FROM events WHERE country = 'br'")
	if got := res.Rows()[0][0]; got != int64(18) {
		t.Errorf("sum over fresh rows = %v, want 18", got)
	}
}
