package parquet_test

import (
	"errors"
	"io"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/parquet"
	"prestolite/internal/workload"
)

// The read budget of the Fig 17 scan shapes on one trips file of four row
// groups, counted where the reads are served (hdfs.Counters.ReadCalls) and
// where they are planned (parquet.Metrics). The page-at-a-time reader paid
// three ReadAts per row group for the group-by shape and five for Q02's
// three nested leaves, each a storage round trip of its own.
func TestPlanReadBudgetOnTripsFile(t *testing.T) {
	nn := hdfs.New(hdfs.Config{})
	cfg := workload.TripsConfig{RowsPerDate: 512, Dates: 1, FilesPerDate: 1, RowGroupRows: 128, NeedleCityID: 99999}
	if _, err := workload.BuildTripsWarehouse(metastore.New(), nn, cfg); err != nil {
		t.Fatal(err)
	}
	files, err := nn.ListFiles("/warehouse/rawdata/trips/datestr=2017-03-01")
	if err != nil || len(files) != 1 {
		t.Fatalf("trips files: %v, %v", files, err)
	}
	const rowGroups = 4

	scan := func(opts parquet.ReaderOptions) (rows int, m *parquet.Metrics, readCalls int64) {
		t.Helper()
		f, err := nn.Open(files[0].Path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := parquet.NewReader(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := nn.Counters.ReadCalls.Load() // the footer's two reads are behind us
		for {
			p, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			rows += block.MaterializePage(p).Count()
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		return rows, r.Metrics, nn.Counters.ReadCalls.Load() - before
	}

	// Q05: every row group survives the predicate. One batch reads the
	// predicate leaf of all four ahead; each row group then asks once for
	// city_id — dictionary page and data pages in one range.
	rows, m, reads := scan(parquet.AllOptimizations([]string{"base.city_id"},
		[]expr.Comparison{{Column: "base.duration_s", Op: expr.OpGte, Values: []any{int64(150)}}}))
	if rows == 0 || m.RowGroupsRead.Load() != rowGroups {
		t.Fatalf("Q05 shape: %d rows from %d row groups", rows, m.RowGroupsRead.Load())
	}
	if got := m.FetchBatches.Load(); got > 1+rowGroups {
		t.Errorf("Q05 shape: %d fetch batches, want at most 1 + %d surviving row groups", got, rowGroups)
	}
	if reads != 2*rowGroups || m.RangesRead.Load() != reads {
		t.Errorf("Q05 shape: %d ReadAts (%d planned ranges), want %d: one per leaf and row group", reads, m.RangesRead.Load(), 2*rowGroups)
	}

	// Q02: no reader predicate, so the whole file — three leaves of four row
	// groups — is one batch, read ahead by the first Next.
	rows, m, reads = scan(parquet.AllOptimizations([]string{"base.status.code", "base.vehicle.make", "base.distance_km"}, nil))
	if rows != 512 {
		t.Fatalf("Q02 shape: %d rows", rows)
	}
	if m.FetchBatches.Load() != 1 || reads != 3*rowGroups {
		t.Errorf("Q02 shape: %d fetch batches, %d ReadAts; want 1 and %d", m.FetchBatches.Load(), reads, 3*rowGroups)
	}

	// A needle with statistics and dictionary pushdown off: every row group's
	// city_id is decoded, three selections come out empty, and only the row
	// group holding the needle fetches the projected leaf.
	needle := parquet.AllOptimizations([]string{"base.client_uuid"},
		[]expr.Comparison{{Column: "base.city_id", Op: expr.OpEq, Values: []any{int64(99999)}}})
	needle.PredicatePushdown, needle.DictionaryPushdown = false, false
	rows, m, reads = scan(needle)
	if rows != 1 || m.RowGroupsRead.Load() != rowGroups {
		t.Fatalf("needle: %d rows from %d row groups", rows, m.RowGroupsRead.Load())
	}
	if reads != rowGroups+1 || m.FetchBatches.Load() != 2 {
		t.Errorf("needle: %d ReadAts in %d batches, want %d in 2: a row group with an empty selection fetches no projected leaf", reads, m.FetchBatches.Load(), rowGroups+1)
	}
}
