package hive

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/core"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/types"
)

// TestChunkCacheSharedAcrossConcurrentQueries: statements running at once on
// one connector share its cached chunks — dictionary-encoded and plain,
// nullable and not, nested and flat, filtered and grouped — and every
// answer is the legacy reader's. Run under -race, and with the chunk cache's
// checksum hook (main_test.go), a write into a cached chunk or a block built
// over one fails here.
func TestChunkCacheSharedAcrossConcurrentQueries(t *testing.T) {
	build := func(opts Options) (*core.Engine, *Connector) {
		nn := hdfs.New(hdfs.Config{})
		ms := metastore.New()
		base := types.NewRow(
			types.Field{Name: "driver_uuid", Type: types.Varchar},
			types.Field{Name: "city_id", Type: types.Bigint},
		)
		cols := []metastore.Column{{Name: "base", Type: base}, {Name: "fare", Type: types.Double}, {Name: "note", Type: types.Varchar}}
		partitions := map[string][]*block.Page{}
		for d := 0; d < 3; d++ {
			pb := block.NewPageBuilder([]*types.Type{base, types.Double, types.Varchar})
			for i := 0; i < 300; i++ {
				var fare any = float64(i%50) / 2
				if i%7 == 3 {
					fare = nil
				}
				pb.AppendRow([]any{[]any{fmt.Sprintf("d-%d", i%17), int64(i % 5)}, fare, fmt.Sprintf("n-%d-%d", d, i)})
			}
			partitions[fmt.Sprintf("2017-03-0%d", d+1)] = []*block.Page{pb.Build()}
		}
		sealed := map[string]bool{"2017-03-01": true, "2017-03-02": true, "2017-03-03": true}
		loader := &Loader{MS: ms, FS: nn}
		loader.WriterOptions.RowGroupRows = 64
		if err := loader.CreatePartitionedTable("rawdata", "trips", cols, "datestr", partitions, sealed); err != nil {
			t.Fatal(err)
		}
		conn := New("hive", ms, nn, opts)
		e := core.New()
		e.Register("hive", conn)
		return e, conn
	}
	queries := []string{
		"SELECT base.city_id, count(*), sum(fare) FROM trips GROUP BY base.city_id ORDER BY 1",
		"SELECT base.driver_uuid, fare FROM trips WHERE base.city_id = 3 AND fare > 5.0 ORDER BY 1, 2",
		"SELECT note FROM trips WHERE base.driver_uuid IN ('d-1', 'd-16') ORDER BY 1",
		"SELECT datestr, count(fare), max(note) FROM trips WHERE fare IS NULL OR fare < 2.0 GROUP BY datestr ORDER BY 1",
		"SELECT base FROM trips WHERE base.city_id = 4 ORDER BY base.driver_uuid LIMIT 20",
	}
	s := core.DefaultSession("hive", "rawdata")
	legacy, _ := build(Options{UseLegacyReader: true})
	cached, conn := build(Options{})
	want := make([][][]any, len(queries))
	for i, q := range queries {
		res, err := legacy.Query(s, q)
		if err != nil {
			t.Fatalf("%s (legacy): %v", q, err)
		}
		want[i] = res.Rows()
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 5; pass++ {
				i := (g + pass) % len(queries)
				res, err := cached.Query(core.DefaultSession("hive", "rawdata"), queries[i])
				if err != nil {
					t.Errorf("%s: %v", queries[i], err)
					return
				}
				if got := res.Rows(); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s, pass %d: %v, want %v", queries[i], pass, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if m := conn.ChunkCacheMetrics(); m.Hits.Load() == 0 || m.Bypasses.Load() != 0 {
		t.Errorf("chunk cache: %d hits, %d bypasses; want hits and no bypass", m.Hits.Load(), m.Bypasses.Load())
	}
}
