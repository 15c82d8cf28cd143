package e2ebench

import (
	"fmt"
	"time"

	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/core"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/workload"
)

// Storage shape of adhoc_scan_agg. The RTTs are charged by the simulated
// HDFS per call. Each worker's chunk cache is a quarter of the decompressed
// column chunks the nine templates touch on it — 1.6 MiB on each of the two
// workers with the pinned worker ports' split placement, measured once with
// an unbounded cache — so most chunk reads go to storage.
const (
	scanReadRTT        = 250 * time.Microsecond
	scanMetaRTT        = 500 * time.Microsecond
	scanChunkCacheSize = 416 << 10
)

// joinRowsPerDate sizes adhoc_join's warehouse: adhoc_scan_agg's generator
// and layout (workload.DefaultTripsConfig: 20,000 rows per date) at 0.7 of
// the rows, so that two clients complete well over 200 joins in a 20 s window
// and the p95 has its 200 samples.
const joinRowsPerDate = 14_000

// tripsConfig is the warehouse of one adhoc workload; rowsPerDate 0 keeps
// the default.
func tripsConfig(tiny bool, rowsPerDate int) workload.TripsConfig {
	if tiny {
		return workload.TripsConfig{RowsPerDate: 600, Dates: 3, FilesPerDate: 2, RowGroupRows: 128, NeedleCityID: needleCity}
	}
	cfg := workload.DefaultTripsConfig()
	cfg.NeedleCityID = needleCity
	if rowsPerDate > 0 {
		cfg.RowsPerDate = rowsPerDate
	}
	return cfg
}

// buildScanAgg: storage read, Parquet decode, chunk cache, page codec and
// result fetch do most of the work.
func buildScanAgg(cfg Config) (*scenario, error) {
	return buildAdhoc(cfg, scanAggTemplates(), tripsConfig(cfg.Tiny, 0), 27100,
		hdfs.Config{ListFilesLatency: scanMetaRTT, GetFileInfoLatency: scanMetaRTT, ReadLatency: scanReadRTT},
		hive.Options{ChunkCacheBytes: scanChunkCacheSize})
}

// buildJoin: the same warehouse at 0.7 of the rows, with free storage and a
// chunk cache the working set fits in, so join and aggregation kernels do
// most of the work.
func buildJoin(cfg Config) (*scenario, error) {
	return buildAdhoc(cfg, joinTemplates(), tripsConfig(cfg.Tiny, joinRowsPerDate), 27200, hdfs.Config{}, hive.Options{})
}

// buildAdhoc stands up the trips warehouse behind one cluster (coordinator
// + 2 workers, each process with hive caches of its own), result and
// fragment caches off, fronted by the gateway.
func buildAdhoc(cfg Config, templates []template, trips workload.TripsConfig, workerPort int, storage hdfs.Config, opts hive.Options) (*scenario, error) {
	nn := hdfs.New(storage)
	ms := metastore.New()
	if _, err := workload.BuildTripsWarehouse(ms, nn, trips); err != nil {
		return nil, err
	}
	st := &stack{fs: nn}
	st.counters = func(c map[string]float64) { hdfsCounters(c, nn) }
	registry := func() *connector.Registry {
		h := hive.New("hive", ms, nn, opts)
		st.hives = append(st.hives, h)
		reg := connector.NewRegistry()
		reg.Register("hive", h)
		return reg
	}
	sc := &scenario{stack: st, stream: templateStream(templates, cfg.Seed), catalog: "hive", schema: "rawdata"}
	if _, err := st.startNode(registry, clusterOptions{workerPort: pinnedPort(cfg, workerPort), workers: 2}); err != nil {
		st.close()
		return nil, err
	}
	if err := st.startGateway(clusterName(0)); err != nil {
		st.close()
		return nil, err
	}

	var want map[string]expectation
	sc.prepare = func() error {
		var err error
		want, err = adhocExpectations(cfg, templates, ms, nn)
		return err
	}
	sc.verify = func(_ int, stmt Statement, res *cluster.QueryResult, _, _ time.Time) error {
		got, err := expectResult(res)
		if err != nil {
			return err
		}
		if diff := want[stmt.SQL].matches(got); diff != "" {
			return fmt.Errorf("wrong answer: %s", diff)
		}
		return nil
	}
	sc.traced = func(pass int) []Statement {
		out := make([]Statement, len(templates))
		for t := range templates {
			v := templates[t].variants
			out[t] = Statement{SQL: v[pass%len(v)], Template: t}
		}
		return out
	}
	return sc, nil
}

func hdfsCounters(c map[string]float64, nn *hdfs.NameNode) {
	c["hdfs.list"] = float64(nn.Counters.ListFilesCalls.Load())
	c["hdfs.fileinfo"] = float64(nn.Counters.GetFileInfoCalls.Load())
	c["hdfs.open"] = float64(nn.Counters.OpenCalls.Load())
	c["hdfs.bytes_read"] = float64(nn.Counters.BytesRead.Load())
}

// adhocExpectations returns the expected answer of every statement the
// templates can produce: from the golden file at full scale, and from a
// single-driver embedded engine over the same files otherwise.
func adhocExpectations(cfg Config, templates []template, ms *metastore.Metastore, nn *hdfs.NameNode) (map[string]expectation, error) {
	if !cfg.Tiny {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		for _, t := range templates {
			for _, sql := range t.variants {
				if _, ok := g.Statements[sql]; !ok {
					return nil, fmt.Errorf("golden.json has no entry for %q; regenerate it with e2ebench -golden write", sql)
				}
			}
		}
		return g.Statements, nil
	}
	return referenceAnswers(templates, ms, nn)
}

// referenceAnswers runs every variant on an embedded core.Engine with one
// driver: no cluster, no exchange, no parallel aggregation.
func referenceAnswers(templates []template, ms *metastore.Metastore, nn *hdfs.NameNode) (map[string]expectation, error) {
	e := core.New()
	e.Register("hive", hive.New("hive", ms, nn, hive.Options{}))
	session := core.DefaultSession("hive", "rawdata")
	session.Properties["task_concurrency"] = "1"
	out := map[string]expectation{}
	for _, t := range templates {
		for _, sql := range t.variants {
			res, err := e.Query(session, sql)
			if err != nil {
				return nil, fmt.Errorf("reference run of %q: %w", sql, err)
			}
			out[sql] = expect(res.Pages)
		}
	}
	return out, nil
}

// tripsGolden computes the golden file's statement section: the reference
// answers of both adhoc workloads, each over its full-scale warehouse.
func tripsGolden() (map[string]expectation, error) {
	out := map[string]expectation{}
	for _, w := range []struct {
		templates []template
		trips     workload.TripsConfig
	}{{scanAggTemplates(), tripsConfig(false, 0)}, {joinTemplates(), tripsConfig(false, joinRowsPerDate)}} {
		nn := hdfs.New(hdfs.Config{})
		ms := metastore.New()
		if _, err := workload.BuildTripsWarehouse(ms, nn, w.trips); err != nil {
			return nil, err
		}
		answers, err := referenceAnswers(w.templates, ms, nn)
		if err != nil {
			return nil, err
		}
		for sql, e := range answers {
			out[sql] = e
		}
	}
	return out, nil
}
