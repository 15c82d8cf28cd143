package prestolite_test

// One testing.B benchmark per table/figure of the paper's evaluation, plus
// ablations for the design choices DESIGN.md calls out. `go test -bench=.`
// runs everything; cmd/prestobench prints the same comparisons as aligned
// tables with per-query rows.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"prestolite/internal/connector"
	druidconn "prestolite/internal/connectors/druid"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/connectors/memory"
	"prestolite/internal/core"
	"prestolite/internal/druid"
	"prestolite/internal/expr"
	"prestolite/internal/geo"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/parquet"
	"prestolite/internal/planner"
	"prestolite/internal/tpch"
	"prestolite/internal/types"
	"prestolite/internal/workload"

	"prestolite/internal/block"
)

// ---------------------------------------------------------------------------
// Fig 16: Druid native vs Presto-Druid connector.

func fig16Fixtures(b *testing.B) (*druid.Store, *core.Engine, *planner.Session) {
	b.Helper()
	store := druid.NewStore()
	if err := workload.BuildEventsTable(store, workload.EventsConfig{Rows: 50000, Segments: 4}); err != nil {
		b.Fatal(err)
	}
	engine := core.New()
	engine.Register("druid", druidconn.New("druid", &druid.EmbeddedClient{Store: store}))
	return store, engine, core.DefaultSession("druid", "default")
}

func BenchmarkFig16DruidNative(b *testing.B) {
	store, _, _ := fig16Fixtures(b)
	queries := workload.EventQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := store.Execute(q.Native); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig16PrestoDruidConnector(b *testing.B) {
	_, engine, session := fig16Fixtures(b)
	queries := workload.EventQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := engine.Query(session, q.SQL); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Fig 17: old vs new Parquet reader over the nested trips warehouse.

func fig17Engine(b *testing.B, legacy bool) (*core.Engine, *planner.Session, workload.TripsConfig) {
	b.Helper()
	cfg := workload.TripsConfig{RowsPerDate: 4000, Dates: 3, FilesPerDate: 4, RowGroupRows: 2048, NeedleCityID: 99999}
	nn := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	if _, err := workload.BuildTripsWarehouse(ms, nn, cfg); err != nil {
		b.Fatal(err)
	}
	e := core.New()
	e.Register("hive", hive.New("hive", ms, nn, hive.Options{UseLegacyReader: legacy}))
	return e, core.DefaultSession("hive", "rawdata"), cfg
}

func runTripQueries(b *testing.B, e *core.Engine, s *planner.Session, cfg workload.TripsConfig, kind string) {
	b.Helper()
	queries := workload.TripQueries(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if kind != "" && q.Kind != kind {
				continue
			}
			if _, err := e.Query(s, q.SQL); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig17OldReaderAll21(b *testing.B) {
	e, s, cfg := fig17Engine(b, true)
	runTripQueries(b, e, s, cfg, "")
}

func BenchmarkFig17NewReaderAll21(b *testing.B) {
	e, s, cfg := fig17Engine(b, false)
	runTripQueries(b, e, s, cfg, "")
}

func BenchmarkFig17OldReaderNeedle(b *testing.B) {
	e, s, cfg := fig17Engine(b, true)
	runTripQueries(b, e, s, cfg, "needle")
}

func BenchmarkFig17NewReaderNeedle(b *testing.B) {
	e, s, cfg := fig17Engine(b, false)
	runTripQueries(b, e, s, cfg, "needle")
}

// Ablation: each new-reader optimization off, one at a time, over the
// needle workload (design-choice ablation from DESIGN.md).
func BenchmarkFig17Ablation(b *testing.B) {
	cfg := workload.TripsConfig{RowsPerDate: 4000, Dates: 3, FilesPerDate: 4, RowGroupRows: 2048, NeedleCityID: 99999}
	nn := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	if _, err := workload.BuildTripsWarehouse(ms, nn, cfg); err != nil {
		b.Fatal(err)
	}
	variants := map[string]hive.Options{
		"AllOn":                hive.Options{},
		"NoColumnPruning":      {Reader: hive.ReaderToggles{NoColumnPruning: true}},
		"NoPredicatePushdown":  {Reader: hive.ReaderToggles{NoPredicatePushdown: true}},
		"NoDictionaryPushdown": {Reader: hive.ReaderToggles{NoDictionaryPushdown: true}},
		"NoLazyReads":          {Reader: hive.ReaderToggles{NoLazyReads: true}},
		"NoVectorized":         {Reader: hive.ReaderToggles{NoVectorized: true}},
	}
	for name, opts := range variants {
		opts := opts
		b.Run(name, func(b *testing.B) {
			e := core.New()
			e.Register("hive", hive.New("hive", ms, nn, opts))
			s := core.DefaultSession("hive", "rawdata")
			runTripQueries(b, e, s, cfg, "needle")
		})
	}
}

// ---------------------------------------------------------------------------
// Figs 18-20: old vs native Parquet writer throughput per dataset and codec.

func benchWriter(b *testing.B, codec parquet.Codec, native bool) {
	for _, ds := range workload.WriterDatasets() {
		ds := ds
		rows := 50000
		if ds.Name == "All Lineitem columns" {
			rows = 12000
		}
		b.Run(ds.Name, func(b *testing.B) {
			page := ds.Generate(1, rows)
			schema, err := parquet.NewSchema(ds.Cols, ds.Types)
			if err != nil {
				b.Fatal(err)
			}
			opts := parquet.WriterOptions{Codec: codec, RowGroupRows: 8192}
			b.SetBytes(int64(page.SizeBytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var werr error
				if native {
					w, err := parquet.NewNativeWriter(io.Discard, schema, opts)
					if err != nil {
						b.Fatal(err)
					}
					werr = w.WritePage(page)
					if werr == nil {
						werr = w.Close()
					}
				} else {
					w, err := parquet.NewLegacyWriter(io.Discard, schema, opts)
					if err != nil {
						b.Fatal(err)
					}
					werr = w.WritePage(page)
					if werr == nil {
						werr = w.Close()
					}
				}
				if werr != nil {
					b.Fatal(werr)
				}
			}
		})
	}
}

func BenchmarkFig18SnappyOldWriter(b *testing.B)    { benchWriter(b, parquet.CodecSnappy, false) }
func BenchmarkFig18SnappyNativeWriter(b *testing.B) { benchWriter(b, parquet.CodecSnappy, true) }
func BenchmarkFig19GzipOldWriter(b *testing.B)      { benchWriter(b, parquet.CodecGzip, false) }
func BenchmarkFig19GzipNativeWriter(b *testing.B)   { benchWriter(b, parquet.CodecGzip, true) }
func BenchmarkFig20NoneOldWriter(b *testing.B)      { benchWriter(b, parquet.CodecNone, false) }
func BenchmarkFig20NoneNativeWriter(b *testing.B)   { benchWriter(b, parquet.CodecNone, true) }

// ---------------------------------------------------------------------------
// §VI geospatial: brute force vs QuadTree spatial join.

func geoEngine(b *testing.B, trips int) (*core.Engine, *planner.Session, *planner.Session) {
	b.Helper()
	mem := memory.New("memory")
	cfg := workload.GeoConfig{Cities: 100, VerticesPerCity: 200, Trips: trips}
	if err := workload.BuildGeoTables(mem, cfg); err != nil {
		b.Fatal(err)
	}
	e := core.New()
	e.Register("memory", mem)
	fast := core.DefaultSession("memory", "geo")
	slow := core.DefaultSession("memory", "geo")
	slow.Properties["geospatial_optimization"] = "false"
	return e, fast, slow
}

func BenchmarkGeoQuadTreeJoin(b *testing.B) {
	e, fast, _ := geoEngine(b, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(fast, workload.GeoQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeoBruteForceJoin(b *testing.B) {
	e, _, slow := geoEngine(b, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(slow, workload.GeoQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// QuadTree parameter sweep (design-choice ablation).
func BenchmarkGeoQuadTreeParams(b *testing.B) {
	var wkts []string
	for i := 0; i < 500; i++ {
		c := float64(i%25)*10 + 5
		r := float64(i/25)*10 + 5
		wkts = append(wkts, fmt.Sprintf("POLYGON ((%v %v, %v %v, %v %v, %v %v, %v %v))",
			c-4, r-4, c+4, r-4, c+4, r+4, c-4, r+4, c-4, r-4))
	}
	for _, maxEntries := range []int{2, 8, 32, 128} {
		maxEntries := maxEntries
		b.Run(fmt.Sprintf("maxEntries=%d", maxEntries), func(b *testing.B) {
			var boxes []geo.BBox
			var shapes []*geo.Geometry
			bounds := geo.EmptyBBox()
			for _, w := range wkts {
				g, err := geo.ParseWKT(w)
				if err != nil {
					b.Fatal(err)
				}
				shapes = append(shapes, g)
				bb := geo.BoundsOf(g)
				boxes = append(boxes, bb)
				bounds = bounds.Union(bb)
			}
			tree := geo.NewQuadTree(bounds, geo.QuadTreeOptions{MaxEntries: maxEntries})
			for i, bb := range boxes {
				tree.Insert(int32(i), bb)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := geo.Point{Lng: float64(i%250) + 0.5, Lat: float64((i*7)%200) + 0.5}
				tree.Candidates(p, nil)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// §VII caches.

func BenchmarkCacheFileList(b *testing.B) {
	for _, cached := range []bool{false, true} {
		cached := cached
		name := "Disabled"
		if cached {
			name = "Enabled"
		}
		b.Run(name, func(b *testing.B) {
			cfg := workload.TripsConfig{RowsPerDate: 500, Dates: 3, FilesPerDate: 2, RowGroupRows: 512, NeedleCityID: 9}
			nn := hdfs.New(hdfs.Config{})
			ms := metastore.New()
			if _, err := workload.BuildTripsWarehouse(ms, nn, cfg); err != nil {
				b.Fatal(err)
			}
			e := core.New()
			e.Register("hive", hive.New("hive", ms, nn, hive.Options{DisableFileListCache: !cached, DisableFooterCache: !cached}))
			s := core.DefaultSession("hive", "rawdata")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(s, "SELECT count(*) FROM trips"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nn.Counters.ListFilesCalls.Load())/float64(b.N), "listFiles/op")
			b.ReportMetric(float64(nn.Counters.GetFileInfoCalls.Load())/float64(b.N), "getFileInfo/op")
		})
	}
}

// ---------------------------------------------------------------------------
// Engine ablations.

// Vectorized vs row-at-a-time expression evaluation.
func BenchmarkExprVectorizedVsRow(b *testing.B) {
	n := 8192
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 100)
	}
	page := block.NewPage(block.NewInt64Block(vals))
	pred := expr.MustCall("eq", expr.NewVariable("c", 0, types.Bigint), expr.NewConstant(int64(42), types.Bigint))
	b.Run("Vectorized", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			if _, err := expr.EvalFilter(pred, page); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RowAtATime", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			count := 0
			for r := 0; r < n; r++ {
				v, err := expr.EvalRowValue(pred, page.Row(r))
				if err != nil {
					b.Fatal(err)
				}
				if v == true {
					count++
				}
			}
		}
	})
}

// Broadcast vs partitioned join strategies (plan-level; execution identical
// in embedded mode, so this measures planning/strategy selection cost and
// documents the session property).
func BenchmarkJoinStrategies(b *testing.B) {
	mem := memory.New("memory")
	if err := workload.BuildGeoTables(mem, workload.GeoConfig{Cities: 50, VerticesPerCity: 8, Trips: 5000}); err != nil {
		b.Fatal(err)
	}
	e := core.New()
	e.Register("memory", mem)
	q := "SELECT count(*) FROM trips t JOIN cities c ON t.trip_id = c.city_id"
	for _, strategy := range []string{"partitioned", "broadcast"} {
		strategy := strategy
		b.Run(strategy, func(b *testing.B) {
			s := core.DefaultSession("memory", "geo")
			s.Properties["join_distribution_type"] = strategy
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(s, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Intra-task parallelism: driver pipelines over a shared split queue.
//
// The container running CI may have a single CPU, so the headline workload
// models what the paper's §III actually parallelizes on real clusters:
// overlapping *storage waits*. latencySource charges a disaggregated-storage
// read RTT per page, and N drivers overlap N reads — speedup there is
// wait-overlap, not core count. The in-memory variants are CPU-bound and
// reported alongside for honesty: on a single-core host they hover near 1x
// (measuring exchange overhead); on multi-core hosts they scale with cores.

// latencyConnector wraps a connector so every page read costs rtt, modeling
// a remote disaggregated-storage round trip.
type latencyConnector struct {
	connector.Connector
	rtt time.Duration
}

func (c *latencyConnector) RecordSetProvider() connector.RecordSetProvider {
	return &latencyProvider{base: c.Connector.RecordSetProvider(), rtt: c.rtt}
}

type latencyProvider struct {
	base connector.RecordSetProvider
	rtt  time.Duration
}

func (p *latencyProvider) CreatePageSource(h connector.TableHandle, s connector.Split, cols []int) (connector.PageSource, error) {
	src, err := p.base.CreatePageSource(h, s, cols)
	if err != nil {
		return nil, err
	}
	return &latencySource{PageSource: src, rtt: p.rtt}, nil
}

type latencySource struct {
	connector.PageSource
	rtt time.Duration
}

func (s *latencySource) Next() (*block.Page, error) {
	time.Sleep(s.rtt)
	return s.PageSource.Next()
}

// intraTaskEngine builds a LINEITEM warehouse with `files` splits; rtt > 0
// wraps the catalog in the storage-latency model.
func intraTaskEngine(b *testing.B, files int, rtt time.Duration) *core.Engine {
	b.Helper()
	fs := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	cols := make([]metastore.Column, len(tpch.LineItemColumns))
	for i, c := range tpch.LineItemColumns {
		cols[i] = metastore.Column{Name: c.Name, Type: c.Type}
	}
	var pages []*block.Page
	for f := 0; f < files; f++ {
		pages = append(pages, tpch.GeneratePage(99+int64(f), 250))
	}
	if err := loader.CreateTable("tpch", "lineitem", cols, pages); err != nil {
		b.Fatal(err)
	}
	var conn connector.Connector = hive.New("hive", ms, fs, hive.Options{})
	if rtt > 0 {
		conn = &latencyConnector{Connector: conn, rtt: rtt}
	}
	e := core.New()
	e.Register("hive", conn)
	return e
}

func intraTaskSession(drivers int) *planner.Session {
	s := core.DefaultSession("hive", "tpch")
	s.Properties["task_concurrency"] = fmt.Sprint(drivers)
	return s
}

func BenchmarkIntraTaskParallelism(b *testing.B) {
	const storageRTT = 400 * time.Microsecond
	workloads := []struct {
		name string
		rtt  time.Duration
		sql  string
	}{
		{name: "storage_scan_agg", rtt: storageRTT, sql: `SELECT l_returnflag, l_linestatus, count(*) AS n, sum(l_quantity) AS q
			FROM lineitem GROUP BY l_returnflag, l_linestatus`},
		{name: "inmem_scan_filter", sql: `SELECT count(*) AS n FROM lineitem WHERE l_quantity < 25.0`},
		{name: "inmem_groupby", sql: `SELECT l_orderkey, l_partkey, count(*) AS n FROM lineitem GROUP BY l_orderkey, l_partkey`},
		{name: "inmem_join", sql: `SELECT count(*) AS n FROM lineitem a JOIN lineitem b ON a.l_orderkey = b.l_orderkey`},
	}
	for _, w := range workloads {
		e := intraTaskEngine(b, 32, w.rtt)
		for _, drivers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/drivers=%d", w.name, drivers), func(b *testing.B) {
				session := intraTaskSession(drivers)
				for i := 0; i < b.N; i++ {
					if _, err := e.Query(session, w.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
