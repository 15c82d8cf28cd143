package cluster

// Dashboard QPS benchmark: a fixed dashboard of aggregate queries refreshes in
// a closed loop against an embedded multi-worker cluster, with a few
// concurrent clients — the §VII "same queries every few seconds" traffic
// shape. cache=off runs every refresh cold (chunk, footer, file-list, fragment
// and result caches all disabled); cache=on is the whole hierarchy: affinity
// split scheduling keeps each split's repeats on one worker whose chunk cache
// stays hot, workers serve repeated fragments from their fragment-result
// cache, and the coordinator answers byte-identical repeats from the tier-2
// result cache without scheduling a task at all. Each op is one full dashboard
// refresh; the qps metric is queries per wall second, and the cache=on run
// also reports the result/chunk hit rates.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/planner"
	"prestolite/internal/tpch"
)

const (
	dashFiles       = 12
	dashRowsPerFile = 2000
	dashDataSeed    = int64(7)
	dashClients     = 4
	dashWorkers     = 3
)

// dashboardQueries is one dashboard page: a handful of aggregate tiles that
// all refresh together.
var dashboardQueries = []string{
	`SELECT l_returnflag, l_linestatus, count(*) AS n, sum(l_quantity) AS q
		FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
	`SELECT count(*) AS n FROM lineitem WHERE l_quantity < 25.0`,
	`SELECT l_shipmode, count(*) AS n FROM lineitem GROUP BY l_shipmode ORDER BY l_shipmode`,
	`SELECT l_returnflag, sum(l_extendedprice) AS revenue FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`,
	`SELECT l_linestatus, avg(l_discount) AS d, max(l_tax) AS t FROM lineitem GROUP BY l_linestatus ORDER BY l_linestatus`,
	`SELECT count(*) AS n FROM lineitem WHERE l_shipmode = 'AIR'`,
}

// dashCluster builds a lineitem warehouse and a coordinator + workers on top,
// with every cache tier either on or off (the cold baseline).
func dashCluster(b *testing.B, cached bool) (*Coordinator, *hive.Connector, func()) {
	b.Helper()
	fs := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	cols := make([]metastore.Column, len(tpch.LineItemColumns))
	for i, c := range tpch.LineItemColumns {
		cols[i] = metastore.Column{Name: c.Name, Type: c.Type}
	}
	var pages []*block.Page
	for f := 0; f < dashFiles; f++ {
		pages = append(pages, tpch.GeneratePage(dashDataSeed+int64(f), dashRowsPerFile))
	}
	if err := loader.CreateTable("tpch", "lineitem", cols, pages); err != nil {
		b.Fatal(err)
	}
	opts := hive.Options{}
	if !cached {
		opts.DisableChunkCache = true
		opts.DisableFileListCache = true
		opts.DisableFooterCache = true
	}
	hc := hive.New("hive", ms, fs, opts)
	reg := connector.NewRegistry()
	reg.Register("hive", hc)

	coord := NewCoordinator(reg)
	if cached {
		coord.EnableResultCache(256, 64<<20, time.Hour)
	}
	var workers []*Worker
	for i := 0; i < dashWorkers; i++ {
		w := NewWorker(reg)
		w.GracePeriod = 20 * time.Millisecond
		w.EnableFragmentResultCache = cached
		if err := w.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		coord.AddWorker(w.Addr())
		workers = append(workers, w)
	}
	cleanup := func() {
		for _, w := range workers {
			w.Close()
		}
	}
	return coord, hc, cleanup
}

// dashSession returns one client's session.
func dashSession() *planner.Session {
	return &planner.Session{Catalog: "hive", Schema: "tpch", User: "dash", Properties: map[string]string{}}
}

// runDashboard drives b.N dashboard refreshes through dashClients concurrent
// closed-loop clients and reports queries per wall second.
func runDashboard(b *testing.B, coord *Coordinator) {
	total := int64(b.N * len(dashboardQueries))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < dashClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := dashSession()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				if _, err := coord.Query(s, dashboardQueries[i%int64(len(dashboardQueries))]); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(total)/time.Since(start).Seconds(), "qps")
}

func BenchmarkDashboardQPS(b *testing.B) {
	b.Run("cache=off", func(b *testing.B) {
		coord, _, cleanup := dashCluster(b, false)
		defer cleanup()
		b.ResetTimer()
		runDashboard(b, coord)
	})
	b.Run("cache=on", func(b *testing.B) {
		coord, hc, cleanup := dashCluster(b, true)
		defer cleanup()
		// One warm refresh first: the dashboard scenario is steady-state
		// repeats, not a cold start.
		s := dashSession()
		for _, q := range dashboardQueries {
			if _, err := coord.Query(s, q); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		runDashboard(b, coord)
		b.StopTimer()

		// The tier-2 result cache should be serving nearly every steady-state
		// refresh, with the tier-1 chunk cache absorbing whatever still reads
		// Parquet.
		snap := coord.Obs().Snapshot()
		hits, misses := snap.Gauges["coordinator.cache.result.hits"], snap.Gauges["coordinator.cache.result.misses"]
		if hits+misses > 0 {
			b.ReportMetric(100*hits/(hits+misses), "result-hit-%")
		}
		cm := hc.ChunkCacheMetrics()
		ch, cmiss := float64(cm.Hits.Load()), float64(cm.Misses.Load())
		if ch+cmiss > 0 {
			b.ReportMetric(100*ch/(ch+cmiss), "chunk-hit-%")
		}
	})
}
