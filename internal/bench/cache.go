package bench

import (
	"fmt"

	"prestolite/internal/connectors/hive"
	"prestolite/internal/core"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/workload"
)

// RunCache reproduces §VII: with the file list cache enabled over hot
// tables, listFile RPCs drop to "less than 40%" of the uncached volume. The
// paper's second figure, "almost 90% of getFileInfo calls could be reduced",
// has no counterpart to reduce here: a split carries the size and stamp its
// listing gave its file, so no scan stats a file, cached or not. What the
// footer cache saves instead is footer reads, counted as opens (a split that
// reads nothing from its file never opens it).
func RunCache(queriesPerTable int) (*Report, error) {
	cfg := workload.TripsConfig{RowsPerDate: 2000, Dates: 5, FilesPerDate: 4, RowGroupRows: 1024, NeedleCityID: 9999}

	run := func(opts hive.Options) (listCalls, opens, infoCalls int64, err error) {
		nn := hdfs.New(hdfs.Config{})
		ms2 := metastore.New()
		if _, err := workload.BuildTripsWarehouse(ms2, nn, cfg); err != nil {
			return 0, 0, 0, err
		}
		engine := core.New()
		engine.Register("hive", hive.New("hive", ms2, nn, opts))
		session := core.DefaultSession("hive", "rawdata")
		nn.Counters.ListFilesCalls.Store(0)
		nn.Counters.OpenCalls.Store(0)
		// The "5 most popular tables" pattern: repeated queries over the
		// same partitions.
		queries := []string{
			"SELECT count(*) FROM trips WHERE datestr = '2017-03-01'",
			"SELECT sum(base.fare) FROM trips WHERE datestr = '2017-03-02'",
			"SELECT base.city_id, count(*) FROM trips GROUP BY base.city_id",
			"SELECT count(*) FROM cities",
			"SELECT count(*) FROM drivers",
		}
		for i := 0; i < queriesPerTable; i++ {
			for _, q := range queries {
				if _, err := engine.Query(session, q); err != nil {
					return 0, 0, 0, fmt.Errorf("cache bench: %w", err)
				}
			}
		}
		return nn.Counters.ListFilesCalls.Load(), nn.Counters.OpenCalls.Load(), nn.Counters.GetFileInfoCalls.Load(), nil
	}

	uncachedList, uncachedOpens, uncachedInfo, err := run(hive.Options{DisableFileListCache: true, DisableFooterCache: true})
	if err != nil {
		return nil, err
	}
	cachedList, cachedOpens, cachedInfo, err := run(hive.Options{})
	if err != nil {
		return nil, err
	}

	report := &Report{
		Experiment: "§VII caches: NameNode RPC volume with and without caching",
		Columns:    []string{"uncached", "cached", "remaining_pct"},
	}
	report.Rows = append(report.Rows,
		Row{Name: "listFiles calls (file list cache)", Values: map[string]float64{
			"uncached":      float64(uncachedList),
			"cached":        float64(cachedList),
			"remaining_pct": float64(cachedList) / float64(uncachedList) * 100,
		}},
		Row{Name: "footer reads (opens, footer cache)", Values: map[string]float64{
			"uncached":      float64(uncachedOpens),
			"cached":        float64(cachedOpens),
			"remaining_pct": float64(cachedOpens) / float64(uncachedOpens) * 100,
		}},
	)
	report.Summary = fmt.Sprintf("paper: listFiles reduced to <40%% (ours: %.0f%%); getFileInfo reduced ~90%% (ours: %d calls uncached, %d cached: splits carry their file's size and stamp); footer reads (opens) reduced %.0f%%",
		float64(cachedList)/float64(uncachedList)*100, uncachedInfo, cachedInfo,
		100-float64(cachedOpens)/float64(uncachedOpens)*100)
	return report, nil
}
