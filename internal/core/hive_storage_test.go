package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"prestolite/internal/connectors/hive"
	"prestolite/internal/fault"
	"prestolite/internal/fsys"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/workload"
)

// tripsEngine builds the small trips warehouse on fs and an engine over it.
func tripsEngine(t *testing.T, fs fsys.FileSystem, opts hive.Options) *Engine {
	t.Helper()
	ms := metastore.New()
	cfg := workload.TripsConfig{RowsPerDate: 512, Dates: 2, FilesPerDate: 2, RowGroupRows: 128, NeedleCityID: 99999}
	if _, err := workload.BuildTripsWarehouse(ms, fs, cfg); err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Register("hive", hive.New("hive", ms, fs, opts))
	return e
}

// A storage fault on the build side of a multi-driver join fails the query
// with the fault's error, promptly. The build side reaches the join through
// an adaptive local exchange, which buffers its first pages under a lock and
// forces their lazy columns first: a loader that failed while the lock was
// held left the other producers and the final flush waiting for it forever.
// A read error now surfaces from the reader's Next (the bytes of a lazy
// column are fetched before its page is handed out); bytes that arrive
// corrupt still fail where they are decoded, inside the exchange.
func TestJoinBuildSideStorageFaultFailsTheQuery(t *testing.T) {
	const join = "SELECT t.base.fare, c.name FROM trips t JOIN cities c ON t.base.city_id = c.city_id"
	faults := map[string]fault.FSRule{
		"read error":   {Path: "/cities/", Ops: []string{"read"}, ErrProb: 1},
		"corrupt read": {Path: "/cities/", Ops: []string{"read"}, CorruptProb: 1},
	}
	for name, rule := range faults {
		for _, drivers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/drivers=%d", name, drivers), func(t *testing.T) {
				inj := fault.NewInjector(1)
				// A clean run proves the statement and warms the footer
				// cache; with the chunk cache off the faulted run then reads
				// chunks, and only chunks, from storage.
				e := tripsEngine(t, &fault.FS{Injector: inj, Base: hdfs.New(hdfs.Config{})}, hive.Options{DisableChunkCache: true})
				session := DefaultSession("hive", "rawdata")
				session.Properties = map[string]string{"task_concurrency": fmt.Sprint(drivers)}
				if res, err := e.Query(session, join); err != nil || res.RowCount() == 0 {
					t.Fatalf("clean run: %v", err)
				}
				inj.FaultFS(rule)
				done := make(chan error, 1)
				go func() {
					_, err := e.Query(session, join)
					done <- err
				}()
				select {
				case err := <-done:
					if err == nil {
						t.Fatal("the join succeeded over a faulted build side")
					}
					var injected *fault.InjectedError
					if rule.ErrProb > 0 && !errors.As(err, &injected) {
						t.Errorf("error is not the injected one: %v", err)
					}
					if rule.CorruptProb > 0 && !strings.Contains(err.Error(), "parquet:") {
						t.Errorf("error does not come from the decoder: %v", err)
					}
				case <-time.After(20 * time.Second):
					t.Fatal("the join hangs on a failed build-side read")
				}
			})
		}
	}
}

// The hive equivalence statements over a real filesystem, where Close
// really closes: every answer equals the one over the simulated HDFS (whose
// Close is a no-op), at 1 and 4 drivers, chunk cache on and off. A lazy
// column used to be read through the file handle after its page source had
// closed it ("file already closed"). Aggregates are min/max/count, which do
// not depend on the order the splits are summed in.
func TestHiveOverLocalFilesystem(t *testing.T) {
	statements := []string{
		"SELECT base.driver_uuid, base.fare FROM trips",
		"SELECT base.status.code, base.vehicle.make, base.tip FROM trips",
		"SELECT base.driver_uuid FROM trips WHERE datestr = '2017-03-01' AND base.city_id IN (99999)",
		"SELECT base.city_id, count(*) FROM trips WHERE base.duration_s >= 150 GROUP BY base.city_id",
		"SELECT datestr, max(base.fare), min(base.tip) FROM trips WHERE base.duration_s >= 150 GROUP BY datestr",
		"SELECT t.base.fare, c.name FROM trips t JOIN cities c ON t.base.city_id = c.city_id",
		"SELECT c.region, max(t.base.fare) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.datestr = '2017-03-01' GROUP BY c.region",
		"SELECT t.base FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.datestr = '2017-03-02'",
	}
	reference := tripsEngine(t, hdfs.New(hdfs.Config{}), hive.Options{})
	for _, chunkCache := range []bool{true, false} {
		local := tripsEngine(t, fsys.NewLocal(t.TempDir()), hive.Options{DisableChunkCache: !chunkCache})
		for _, drivers := range []int{1, 4} {
			session := DefaultSession("hive", "rawdata")
			session.Properties = map[string]string{"task_concurrency": fmt.Sprint(drivers)}
			for _, sql := range statements {
				want, err := reference.Query(DefaultSession("hive", "rawdata"), sql)
				if err != nil {
					t.Fatalf("reference %s: %v", sql, err)
				}
				// Twice: the second run finds the chunk cache warm.
				for run := 0; run < 2; run++ {
					got, err := local.Query(session, sql)
					if err != nil {
						t.Fatalf("chunk cache %v, %d drivers, run %d: %s: %v", chunkCache, drivers, run, sql, err)
					}
					if g, w := normalizeRows(got), normalizeRows(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
						t.Fatalf("chunk cache %v, %d drivers, run %d: %s: %d rows differ from the reference's %d", chunkCache, drivers, run, sql, len(g), len(w))
					}
				}
			}
		}
	}
}
