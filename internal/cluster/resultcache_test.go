package cluster

import (
	"strings"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	druidconn "prestolite/internal/connectors/druid"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/connectors/hybrid"
	"prestolite/internal/connectors/memory"
	"prestolite/internal/connectors/mysql"
	"prestolite/internal/druid"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/mysqlite"
	"prestolite/internal/parquet"
	"prestolite/internal/planner"
	"prestolite/internal/sql"
	"prestolite/internal/types"
)

// resultCacheFixture builds a partitioned hive table (so the metastore can
// bump its snapshot version via AddPartition) plus a memory catalog (which
// cannot report versions — the uncacheable case).
func resultCacheFixture(t testing.TB) (*connector.Registry, *metastore.Metastore, *hive.Loader) {
	t.Helper()
	fs := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	cols := []metastore.Column{
		{Name: "city_id", Type: types.Bigint},
		{Name: "fare", Type: types.Double},
	}
	pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Double})
	for i := 0; i < 10; i++ {
		pb.AppendRow([]any{int64(i % 5), float64(i)})
	}
	if err := loader.CreatePartitionedTable("rawdata", "trips", cols, "datestr",
		map[string][]*block.Page{"2017-03-01": {pb.Build()}}, map[string]bool{"2017-03-01": true}); err != nil {
		t.Fatal(err)
	}
	mem := memory.New("memory")
	if err := mem.CreateTable("meta", "cities", []connector.Column{
		{Name: "city_id", Type: types.Bigint},
		{Name: "name", Type: types.Varchar},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := mem.AppendRows("meta", "cities", [][]any{{int64(0), "sf"}, {int64(1), "oak"}}); err != nil {
		t.Fatal(err)
	}
	reg := connector.NewRegistry()
	reg.Register("hive", hive.New("hive", ms, fs, hive.Options{}))
	reg.Register("memory", mem)
	return reg, ms, loader
}

// TestCoordinatorResultCache: the tier-2 cache serves a repeated dashboard
// query without scheduling any task, marks it FromCache, and a metastore
// version bump (new partition) makes the stale entry unreachable so the next
// run sees the new data.
func TestCoordinatorResultCache(t *testing.T) {
	catalogs, ms, loader := resultCacheFixture(t)
	coord, workers := newCluster(t, catalogs, 2)
	coord.EnableResultCache(64, 8<<20, time.Hour)

	q := "SELECT city_id, count(*) AS n FROM trips GROUP BY city_id ORDER BY 1"
	first, err := coord.Query(session(), q)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := first.Rows()
	if len(r1) != 5 {
		t.Fatalf("rows = %v", r1)
	}
	if n := coord.resultCache.Len(); n != 1 {
		t.Fatalf("cache len after first run = %d, want 1", n)
	}

	tasksBefore := workers[0].Obs.Snapshot().Counters["tasks_started"] + workers[1].Obs.Snapshot().Counters["tasks_started"]
	second, err := coord.Query(session(), q)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := second.Rows()
	tasksAfter := workers[0].Obs.Snapshot().Counters["tasks_started"] + workers[1].Obs.Snapshot().Counters["tasks_started"]
	if tasksAfter != tasksBefore {
		t.Errorf("cached run scheduled %d tasks, want 0", tasksAfter-tasksBefore)
	}
	if len(r1) != len(r2) {
		t.Fatalf("cache changed results: %v vs %v", r1, r2)
	}
	for i := range r1 {
		for j := range r1[i] {
			if r1[i][j] != r2[i][j] {
				t.Errorf("row %d differs: %v vs %v", i, r1[i], r2[i])
			}
		}
	}
	infos := coord.QueryInfos()
	if !infos[0].FromCache || infos[0].Rows != 5 {
		t.Errorf("cached QueryInfo = %+v", infos[0])
	}
	if infos[1].FromCache {
		t.Errorf("first run marked FromCache: %+v", infos[1])
	}
	snap := coord.Obs().Snapshot()
	if snap.Gauges["coordinator.cache.result.hits"] != 1 {
		t.Errorf("result cache hits = %v", snap.Gauges["coordinator.cache.result.hits"])
	}

	// New partition: the metastore version moves, the key changes, and the
	// query recomputes over the larger table instead of serving stale rows.
	pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Double})
	for i := 0; i < 5; i++ {
		pb.AppendRow([]any{int64(0), float64(100 + i)})
	}
	if err := loader.AddPartition("rawdata", "trips", "datestr", "2017-03-02", []*block.Page{pb.Build()}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.GetTable("rawdata", "trips"); err != nil {
		t.Fatal(err)
	}
	third, err := coord.Query(session(), q)
	if err != nil {
		t.Fatal(err)
	}
	r3, _ := third.Rows()
	var total int64
	for _, r := range r3 {
		total += r[1].(int64)
	}
	if total != 15 {
		t.Errorf("after partition add: total count = %d, want 15 (stale cache served?)", total)
	}
	if n := coord.resultCache.Len(); n != 2 {
		t.Errorf("cache len = %d, want 2 (old + new version keys)", n)
	}
}

// TestResultCacheSeparatesPushedPredicates: a pushed predicate is only in the
// scan's handle, so the result-cache key — the plan's encoding, handles
// included — must tell apart two IN lists that differ only in where a string
// ends: the second statement matches no partition and must not be served the
// first one's rows.
func TestResultCacheSeparatesPushedPredicates(t *testing.T) {
	catalogs, _, _ := resultCacheFixture(t)
	coord, _ := newCluster(t, catalogs, 2)
	coord.EnableResultCache(64, 8<<20, time.Hour)

	stmt := func(in string) string { return "SELECT city_id, fare FROM trips WHERE datestr IN (" + in + ")" }
	if resultKey(t, coord, stmt("'2017-03-01', '2017-03-02'")) == resultKey(t, coord, stmt("'2017-03-01,2017-03-02'")) {
		t.Error("the two IN lists share a result-cache key")
	}
	for _, tc := range []struct {
		in   string
		rows int
	}{
		{"'2017-03-01', '2017-03-02'", 10},
		{"'2017-03-01,2017-03-02'", 0},
		{"'2017-03-01', '2017-03-02'", 10}, // the first entry is still there, and still right
	} {
		res, err := coord.Query(session(), stmt(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := res.Rows()
		if len(rows) != tc.rows {
			t.Errorf("IN (%s): %d rows, want %d", tc.in, len(rows), tc.rows)
		}
	}
	infos := coord.QueryInfos() // most recent first
	if infos[1].FromCache {
		t.Errorf("IN ('2017-03-01,2017-03-02') was served from the cache: %+v", infos[1])
	}
	if !infos[0].FromCache {
		t.Errorf("the repeated statement missed the cache: %+v", infos[0])
	}
}

// resultKey plans a statement as coord would and returns its result-cache key.
func resultKey(t *testing.T, coord *Coordinator, stmt string) string {
	t.Helper()
	q, err := sql.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.PlanQuery(coord.Catalogs, session(), q.(*sql.Query))
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := keyPlan(plan)
	if !ok {
		t.Fatalf("%s is uncacheable", stmt)
	}
	return entry.resultKey
}

// TestResultCacheUncacheablePaths: queries over versionless catalogs, session
// opt-outs and EXPLAIN ANALYZE never populate the cache.
func TestResultCacheUncacheablePaths(t *testing.T) {
	catalogs, _, _ := resultCacheFixture(t)
	coord, _ := newCluster(t, catalogs, 1)
	coord.EnableResultCache(64, 8<<20, time.Hour)

	// memory has no SnapshotVersioner: uncacheable.
	s := session()
	s.Catalog, s.Schema = "memory", "meta"
	if _, err := coord.Query(s, "SELECT count(*) FROM cities"); err != nil {
		t.Fatal(err)
	}
	if n := coord.resultCache.Len(); n != 0 {
		t.Errorf("versionless query was cached (len %d)", n)
	}
	if n := coord.Obs().Snapshot().Counters["coordinator.cache.result.uncacheable"]; n != 1 {
		t.Errorf("uncacheable = %d, want 1", n)
	}

	// Constant queries scan nothing: uncacheable, still correct.
	if _, err := coord.Query(session(), "SELECT 1 + 2"); err != nil {
		t.Fatal(err)
	}
	if n := coord.resultCache.Len(); n != 0 {
		t.Errorf("constant query was cached (len %d)", n)
	}

	// Session opt-out.
	s2 := session()
	s2.Properties["result_cache"] = "false"
	if _, err := coord.Query(s2, "SELECT count(*) FROM trips"); err != nil {
		t.Fatal(err)
	}
	if n := coord.resultCache.Len(); n != 0 {
		t.Errorf("opted-out query was cached (len %d)", n)
	}

	// EXPLAIN ANALYZE executes for real and renders the cache footer with
	// the result-cache tier visible.
	res, err := coord.Query(session(), "EXPLAIN ANALYZE SELECT count(*) FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := res.Rows()
	text := rows[0][0].(string)
	if !strings.Contains(text, "coordinator.cache.result") {
		t.Errorf("EXPLAIN ANALYZE cache footer missing result-cache tier:\n%s", text)
	}
	if !strings.Contains(text, "hive.cache.chunk") {
		t.Errorf("EXPLAIN ANALYZE cache footer missing chunk-cache tier:\n%s", text)
	}
	if n := coord.resultCache.Len(); n != 0 {
		t.Errorf("EXPLAIN ANALYZE was cached (len %d)", n)
	}
}

// BenchmarkResultCacheHit is the coordinator's share of a dashboard hit:
// parse, plan, key and probe, no task. Its allocs/op and B/op repeat exactly
// from run to run, which wall-clock percentiles through two HTTP hops on a
// two-core host do not; compare those across commits when dashboard_repeat's
// p50 is in question.
func BenchmarkResultCacheHit(b *testing.B) {
	catalogs, _, _ := resultCacheFixture(b)
	coord, _ := newCluster(b, catalogs, 2)
	coord.EnableResultCache(64, 8<<20, time.Hour)
	q := "SELECT city_id, count(*) AS n, sum(fare) AS f FROM trips WHERE fare <= 7 GROUP BY city_id ORDER BY 1"
	if _, err := coord.Query(session(), q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Query(session(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanCacheKeySeparatesInputs: the workers' fragment-cache key is
// injective over its inputs — two tasks differing in one split, in the
// snapshot version, or only in where a field boundary falls never share a
// key — and it carries the encoded fragment and the splits, not a digest.
func TestPlanCacheKeySeparatesInputs(t *testing.T) {
	splits := func(descs ...string) []connector.Split {
		out := make([]connector.Split, len(descs))
		for i, d := range descs {
			out[i] = fakeSplit(d)
		}
		return out
	}
	type input struct {
		tableKey string
		version  int64
		splits   []connector.Split
	}
	base := input{"memory.s.t", 7, splits("/t/part-0", "/t/part-1")}
	others := map[string]input{
		"one split description differs":      {"memory.s.t", 7, splits("/t/part-0", "/t/part-2")},
		"snapshot version differs":           {"memory.s.t", 8, splits("/t/part-0", "/t/part-1")},
		"byte moved across a split boundary": {"memory.s.t", 7, splits("/t/part-0/", "t/part-1")},
		"split boundary dropped":             {"memory.s.t", 7, splits("/t/part-0/t/part-1")},
		"version moved into the splits":      {"memory.s.t", 0, splits("\x0e", "/t/part-0", "/t/part-1")},
		"split moved into the fragment":      {"memory.s.t/t/part-0", 7, splits("/t/part-1")},
		"length prefix forged in a field":    {"memory.s.t", 7, splits("/t/part-0\x09/t/part-1")},
		"NUL and comma separators forged":    {"memory.s.t", 7, splits("/t/part-0\x00/t/part-1", ",")},
	}
	plan := &planner.Values{}
	key := func(in input) string {
		req := TaskRequest{Fragment: plan, TableKey: in.tableKey, SnapshotVersion: in.version, Splits: in.splits}
		return string(req.cacheKey())
	}
	baseKey := key(base)
	if again := key(input{"memory.s.t", 7, splits("/t/part-0", "/t/part-1")}); again != baseKey {
		t.Fatal("equal inputs produced different keys")
	}
	if !strings.Contains(baseKey, string(planner.Encode(plan))) || !strings.Contains(baseKey, "/t/part-1") {
		t.Errorf("key digests its inputs instead of carrying them: %q", baseKey)
	}
	seen := map[string]string{baseKey: "base"}
	for name, in := range others {
		k := key(in)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: shares key %q with %s", name, k, prev)
		}
		seen[k] = name
	}
}

// TestFragmentCacheIsByteBounded: distinct fragment results worth more than
// the cache's byte budget leave it at or under the budget with the overflow
// counted as evictions, and the worker's public hit counter is the cache's.
func TestFragmentCacheIsByteBounded(t *testing.T) {
	const pageRows = 128 << 10 // one bigint column: ~1 MiB per task result
	vals := make([]any, pageRows)
	for i := range vals {
		vals[i] = int64(i)
	}
	mem := memory.New("memory")
	if err := mem.CreateTable("big", "t", []connector.Column{{Name: "v", Type: types.Bigint}},
		[]*block.Page{block.NewPage(block.FromValues(types.Bigint, vals...))}); err != nil {
		t.Fatal(err)
	}
	reg := connector.NewRegistry()
	reg.Register("memory", mem)
	stmt, err := sql.Parse("SELECT v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.PlanQuery(reg, &planner.Session{Catalog: "memory", Schema: "big"}, stmt.(*sql.Query))
	if err != nil {
		t.Fatal(err)
	}
	frag := (&planner.Fragmenter{}).Fragment(plan).Sources[1]
	splits, err := mem.SplitManager().Splits(frag.Scan.Handle)
	if err != nil {
		t.Fatal(err)
	}

	w := NewWorker(reg)
	w.EnableFragmentResultCache = true
	if err := w.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	run := func(version int64) {
		t.Helper()
		task := newWorkerTask()
		w.runTask(&TaskRequest{TaskID: "t", Fragment: frag.Root, TableKey: frag.TableKey, Splits: splits, Drivers: 1, SnapshotVersion: version}, nil, task)
		if task.err != nil {
			t.Fatal(task.err)
		}
	}
	// 96 distinct keys of ~1 MiB each against a 64 MiB budget — well under
	// the 256-entry count cap, so only the byte bound can evict.
	for v := int64(1); v <= 96; v++ {
		run(v)
	}
	m := w.fragCache.Metrics
	if got := m.Bytes.Load(); got <= 0 || got > fragmentCacheBytes {
		t.Errorf("resident fragment bytes = %d, want in (0, %d]", got, int64(fragmentCacheBytes))
	}
	if m.Evictions.Load() == 0 || w.fragCache.Len() >= 96 {
		t.Errorf("evictions = %d, len = %d: the byte budget evicted nothing", m.Evictions.Load(), w.fragCache.Len())
	}
	run(96) // most recent key: still resident
	if w.FragmentCacheHits.Load() != 1 || m.Hits.Load() != 1 {
		t.Errorf("FragmentCacheHits = %d, cache hits = %d, want both 1", w.FragmentCacheHits.Load(), m.Hits.Load())
	}
	snap := w.Obs.Snapshot()
	for _, name := range []string{"hits", "misses", "evictions", "hit_rate", "bytes"} {
		if _, ok := snap.Gauges["fragment_cache."+name]; !ok {
			t.Errorf("gauge fragment_cache.%s not registered", name)
		}
	}
	if got := snap.Gauges["fragment_cache.bytes"]; got != float64(m.Bytes.Load()) {
		t.Errorf("fragment_cache.bytes = %v, want %d", got, m.Bytes.Load())
	}
}

// TestResultCacheOpenPartitionSeesNewFile: a table with an open partition
// reports no snapshot version — files land in it without the metastore
// hearing of it — so the result cache counts its statements as uncacheable
// instead of serving the answer from before a second file landed, and the
// workers' fragment cache keeps none of its tasks.
func TestResultCacheOpenPartitionSeesNewFile(t *testing.T) {
	fs := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	cols := []metastore.Column{{Name: "city_id", Type: types.Bigint}}
	page := func() *block.Page {
		pb := block.NewPageBuilder([]*types.Type{types.Bigint})
		for i := 0; i < 10; i++ {
			pb.AppendRow([]any{int64(i % 5)})
		}
		return pb.Build()
	}
	if err := loader.CreatePartitionedTable("rawdata", "trips", cols, "datestr",
		map[string][]*block.Page{"today": {page()}}, map[string]bool{"today": false}); err != nil {
		t.Fatal(err)
	}
	catalogs := connector.NewRegistry()
	catalogs.Register("hive", hive.New("hive", ms, fs, hive.Options{}))
	coord, workers := newCluster(t, catalogs, 2)
	coord.EnableResultCache(64, 8<<20, time.Hour)
	for _, w := range workers {
		w.EnableFragmentResultCache = true
	}

	count := func() int64 {
		t.Helper()
		res, err := coord.Query(session(), "SELECT count(*) FROM trips WHERE city_id >= 0")
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := res.Rows()
		return rows[0][0].(int64)
	}
	if n := count(); n != 10 {
		t.Fatalf("count = %d, want 10", n)
	}

	// A second file lands in the open partition: a raw write, as the
	// ingestion job appending micro-batches makes it.
	schema, err := parquet.NewSchema([]string{"city_id"}, []*types.Type{types.Bigint})
	if err != nil {
		t.Fatal(err)
	}
	w, err := fs.Create("/warehouse/rawdata/trips/datestr=today/part-00001")
	if err != nil {
		t.Fatal(err)
	}
	pw, err := parquet.NewNativeWriter(w, schema, parquet.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WritePage(page()); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if n := count(); n != 20 {
		t.Errorf("count after a second file = %d, want 20", n)
	}
	if n := coord.resultCache.Len(); n != 0 {
		t.Errorf("a statement over an open partition was cached (len %d)", n)
	}
	if n := coord.Obs().Snapshot().Counters["coordinator.cache.result.uncacheable"]; n != 2 {
		t.Errorf("uncacheable = %d, want 2", n)
	}
	for i, w := range workers {
		if n := w.fragCache.Len(); n != 0 {
			t.Errorf("worker %d cached %d tasks over an open partition", i, n)
		}
	}
}

// TestFragmentCacheRefusesUnversionedCatalog: a catalog that cannot report a
// snapshot version — mysql, whose rows change in place — gets no task kept in
// the workers' fragment cache, as it gets no result kept in the coordinator's:
// a statement run again after an Upsert reads the new row.
func TestFragmentCacheRefusesUnversionedCatalog(t *testing.T) {
	db := mysqlite.New()
	if _, err := db.CreateTable("cities", []mysqlite.Column{
		{Name: "city_id", Type: types.Bigint},
		{Name: "name", Type: types.Varchar},
	}, "city_id"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("cities", []any{int64(12), "san francisco"}); err != nil {
		t.Fatal(err)
	}
	catalogs := connector.NewRegistry()
	catalogs.Register("mysql", mysql.New("mysql", "prod", db))
	coord, workers := newCluster(t, catalogs, 2)
	for _, w := range workers {
		w.EnableFragmentResultCache = true
	}
	s := session()
	s.Catalog, s.Schema = "mysql", "prod"
	name := func() any {
		t.Helper()
		res, err := coord.Query(s, "SELECT name FROM cities WHERE city_id = 12")
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := res.Rows()
		if len(rows) != 1 {
			t.Fatalf("rows = %v", rows)
		}
		return rows[0][0]
	}
	if got := name(); got != "san francisco" {
		t.Fatalf("name = %v", got)
	}
	if err := db.Upsert("cities", []any{int64(12), "sf"}); err != nil {
		t.Fatal(err)
	}
	if got := name(); got != "sf" {
		t.Errorf("after the Upsert: name = %v, want sf (the fragment cache served the old row?)", got)
	}
	for i, w := range workers {
		if n := w.fragCache.Len(); n != 0 {
			t.Errorf("worker %d kept %d tasks over an unversioned catalog", i, n)
		}
	}
}

// TestResultCacheHybridSeesBothSides: a hybrid statement is planned into one
// scan per side, and its result-cache key carries each side's own snapshot
// version, so an append to the real-time side and a partition added to the
// historical side each make the next run miss and read the new rows.
func TestResultCacheHybridSeesBothSides(t *testing.T) {
	const boundary = 1000
	fs := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	cols := []metastore.Column{{Name: "ts", Type: types.Bigint}, {Name: "clicks", Type: types.Bigint}}
	page := func(ts ...int64) *block.Page {
		pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Bigint})
		for _, v := range ts {
			pb.AppendRow([]any{v, int64(1)})
		}
		return pb.Build()
	}
	if err := loader.CreatePartitionedTable("web", "events_hist", cols, "day",
		map[string][]*block.Page{"d1": {page(1, 2, 3)}}, map[string]bool{"d1": true}); err != nil {
		t.Fatal(err)
	}
	store := druid.NewStore()
	rt, err := store.CreateTable("events_rt", []druid.Column{
		{Name: "ts", Type: types.Bigint},
		{Name: "clicks", Type: types.Bigint},
		{Name: "day", Type: types.Varchar},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Ingest([][]any{{int64(boundary), int64(1), "d9"}}); err != nil {
		t.Fatal(err)
	}
	catalogs := connector.NewRegistry()
	catalogs.Register("hive", hive.New("hive", ms, fs, hive.Options{}))
	catalogs.Register("druid", druidconn.New("druid", &druid.EmbeddedClient{Store: store}))
	hc := hybrid.New("hybrid", catalogs)
	if err := hc.AddTable("events", hybrid.TableConfig{
		Historical: connector.HybridPart{Catalog: "hive", Schema: "web", Table: "events_hist"},
		Realtime:   connector.HybridPart{Catalog: "druid", Schema: "default", Table: "events_rt"},
		TimeColumn: "ts",
		Boundary:   boundary,
	}); err != nil {
		t.Fatal(err)
	}
	catalogs.Register("hybrid", hc)
	coord, _ := newCluster(t, catalogs, 2)
	coord.EnableResultCache(64, 8<<20, time.Hour)

	s := session()
	s.Catalog, s.Schema = "hybrid", "default"
	run := func(stage string, want int64, cached bool) {
		t.Helper()
		res, err := coord.Query(s, "SELECT count(*), sum(clicks) FROM events")
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := res.Rows()
		if rows[0][0] != want || rows[0][1] != want {
			t.Errorf("%s: count, sum = %v, want %d, %d", stage, rows[0], want, want)
		}
		if info := coord.QueryInfos()[0]; info.FromCache != cached {
			t.Errorf("%s: FromCache = %v, want %v", stage, info.FromCache, cached)
		}
	}
	run("first run", 4, false)
	run("repeat", 4, true)
	if err := rt.Ingest([][]any{{int64(boundary + 1), int64(1), "d9"}}); err != nil {
		t.Fatal(err)
	}
	run("after a druid append", 5, false)
	run("repeat after the append", 5, true)
	if err := loader.AddPartition("web", "events_hist", "day", "d2", []*block.Page{page(10, 11)}, true); err != nil {
		t.Fatal(err)
	}
	run("after a hive AddPartition", 7, false)
	run("repeat after the partition", 7, true)
	if n := coord.Obs().Snapshot().Counters["coordinator.cache.result.uncacheable"]; n != 0 {
		t.Errorf("uncacheable = %d, want 0", n)
	}
}
