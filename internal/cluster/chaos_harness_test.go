package cluster

import (
	"errors"
	"os"
	"strconv"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	druidconn "prestolite/internal/connectors/druid"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/connectors/hybrid"
	"prestolite/internal/druid"
	"prestolite/internal/fault"
	"prestolite/internal/fsys"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/types"
)

// What the four chaos suites share (chaos, chaos-affinity, chaos-ingest in
// this package; chaos-lifecycle in package cluster_test, because the gateway
// it drives imports cluster — hence the exported names): the seed list, the
// tightened client config, the hang watchdog and the hive + druid + hybrid
// "events" fixture.

// ChaosSeeds returns the seeds to run, honoring a CHAOS_SEED override.
func ChaosSeeds(t *testing.T) []int64 {
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		return []int64{seed}
	}
	return []int64{1, 7, 42}
}

// ChaosConfig is the tightened client config chaos runs use: short timeouts
// so black holes resolve quickly, fast backoff, a roomy reschedule budget,
// and hedging off by default (the hedging test turns it on). A non-nil inj
// faults every RPC the config's clients make.
func ChaosConfig(inj *fault.Injector) ClientConfig {
	cfg := ClientConfig{
		WorkerTimeout:    2 * time.Second,
		StatementTimeout: 10 * time.Second,
		MaxAttempts:      4,
		BaseBackoff:      2 * time.Millisecond,
		MaxBackoff:       20 * time.Millisecond,
		RetryBudget:      32,
		HedgeDelay:       -1,
	}
	if inj != nil {
		cfg.Transport = &fault.Transport{Injector: inj}
	}
	return cfg
}

// Watchdog fails the test if fn has not returned within d — the "never a
// hang" half of the chaos contract, enforced with a deadline well under the
// go test timeout so the seed gets logged.
func Watchdog(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("chaos scenario still running after %v — the stack hung instead of failing cleanly", d)
	}
}

// isUnavailable reports whether err is one of the typed cluster-availability
// errors, as opposed to a planning or semantic error: how the suites assert
// that a partitioned cluster fails cleanly.
func isUnavailable(err error) bool {
	return errors.Is(err, ErrNoActiveWorkers) ||
		errors.Is(err, ErrSchedulingFailed) ||
		errors.Is(err, ErrRetryBudgetExhausted) ||
		errors.Is(err, ErrCoordinatorDraining) ||
		errors.Is(err, ErrWorkerGone)
}

const (
	// ChaosEventsTable names the hybrid table (and the topic that feeds it).
	ChaosEventsTable = "events"
	// ChaosEventsBoundary is its watermark: hive below, druid at or above.
	ChaosEventsBoundary = int64(1000)
)

// ChaosHistClicks is the clicks value of historical row i (ts == i).
func ChaosHistClicks(i int) int64 { return int64(i % 10) }

// ChaosEventsCatalogs builds the hybrid stack: histRows rows of hive history
// (behind the fault FS when inj != nil), a live druid table sealing and
// compacting by segments, and the hybrid catalog splitting "events" on the
// watermark. It returns the registry and the druid table a writer feeds.
func ChaosEventsCatalogs(t *testing.T, inj *fault.Injector, histRows int, segments druid.SegmentConfig) (*connector.Registry, *druid.Table) {
	t.Helper()
	var fs fsys.FileSystem = hdfs.New(hdfs.Config{})
	if inj != nil {
		fs = &fault.FS{Injector: inj, Base: fs}
	}
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	cols := []metastore.Column{
		{Name: "ts", Type: types.Bigint},
		{Name: "country", Type: types.Varchar},
		{Name: "clicks", Type: types.Bigint},
	}
	pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Varchar, types.Bigint})
	for i := 0; i < histRows; i++ {
		pb.AppendRow([]any{int64(i), []string{"us", "de", "jp"}[i%3], ChaosHistClicks(i)})
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
	rt.SetSegmentConfig(segments)

	reg := connector.NewRegistry()
	reg.Register("hive", hive.New("hive", ms, fs, hive.Options{}))
	reg.Register("druid", druidconn.New("druid", &druid.EmbeddedClient{Store: store}))
	hc := hybrid.New("hybrid", reg)
	if err := hc.AddTable(ChaosEventsTable, hybrid.TableConfig{
		Historical: connector.HybridPart{Catalog: "hive", Schema: "web", Table: "events_hist"},
		Realtime:   connector.HybridPart{Catalog: "druid", Schema: "default", Table: "events_rt"},
		TimeColumn: "ts",
		Boundary:   ChaosEventsBoundary,
	}); err != nil {
		t.Fatal(err)
	}
	reg.Register("hybrid", hc)
	return reg, rt
}
