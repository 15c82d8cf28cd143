package core

import (
	"strings"
	"testing"

	"prestolite/internal/connectors/hive"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/workload"
)

// The hive reader's work counters reach the engine's registry (what
// /v1/stats serves) and the EXPLAIN ANALYZE footer, and each one moves:
// they are how a scan that decodes 26 leaves to use two shows up.
func TestHiveReaderMetrics(t *testing.T) {
	nn := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	cfg := workload.TripsConfig{RowsPerDate: 512, Dates: 2, FilesPerDate: 2, RowGroupRows: 128, NeedleCityID: 99999}
	if _, err := workload.BuildTripsWarehouse(ms, nn, cfg); err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Register("hive", hive.New("hive", ms, nn, hive.Options{}))
	session := DefaultSession("hive", "rawdata")
	gauges := func() map[string]float64 { return e.Obs.Snapshot().Gauges }
	run := func(q string) map[string]float64 {
		t.Helper()
		before := gauges()
		if _, err := e.Query(session, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		delta := map[string]float64{}
		for k, v := range gauges() {
			if strings.HasPrefix(k, "hive.reader.") {
				delta[strings.TrimPrefix(k, "hive.reader.")] = v - before[k]
			}
		}
		return delta
	}

	// Q11: one date of trips (2 files x 2 row groups of 128) joined to the
	// 200 cities (2 row groups). Both scans decode two leaves per row group;
	// before dereferences crossed the join the trips scan decoded all 26
	// leaves of base plus base.city_id.
	const q11 = "SELECT c.region, sum(t.base.fare) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.datestr = '2017-03-01' GROUP BY c.region"
	reads := nn.Counters.ReadCalls.Load()
	d := run(q11)
	if d["row_groups_read"] != 6 || d["leaves_decoded"] != 2*d["row_groups_read"] {
		t.Errorf("Q11 decoded %v leaves in %v row groups, want 2 per row group of 6", d["leaves_decoded"], d["row_groups_read"])
	}
	// What the scans asked of storage. No reader predicate, so each of the
	// three files is read ahead whole: one batch per file, its ranges the
	// ReadAts the filesystem served beyond the footers' two per file.
	if d["fetch_batches"] != 3 || d["ranges_read"] < 3 || d["bytes_read"] <= 0 {
		t.Errorf("Q11 cold: fetch_batches/ranges_read/bytes_read = %v/%v/%v, want 3 batches", d["fetch_batches"], d["ranges_read"], d["bytes_read"])
	}
	if got := float64(nn.Counters.ReadCalls.Load() - reads); got != d["ranges_read"]+2*3 {
		t.Errorf("Q11 cold: the filesystem served %v reads, the readers planned %v ranges and read 3 footers", got, d["ranges_read"])
	}
	// The same statement again finds every chunk in the chunk cache: nothing
	// is planned, nothing is read, no file is opened.
	reads, opens := nn.Counters.ReadCalls.Load(), nn.Counters.OpenCalls.Load()
	d = run(q11)
	if d["fetch_batches"] != 0 || d["ranges_read"] != 0 || d["bytes_read"] != 0 {
		t.Errorf("Q11 cached: fetch_batches/ranges_read/bytes_read = %v/%v/%v, want 0", d["fetch_batches"], d["ranges_read"], d["bytes_read"])
	}
	if r, o := nn.Counters.ReadCalls.Load()-reads, nn.Counters.OpenCalls.Load()-opens; r != 0 || o != 0 {
		t.Errorf("Q11 cached: %d reads and %d opens reached the filesystem", r, o)
	}
	if d["rows_scanned"] != 512+200 || d["rows_matched"] != 512+200 {
		t.Errorf("Q11 rows scanned/matched = %v/%v, want 712", d["rows_scanned"], d["rows_matched"])
	}
	// Selecting the struct whole still reads it whole.
	d = run("SELECT t.base FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.datestr = '2017-03-01'")
	if d["leaves_decoded"] < 26*4 {
		t.Errorf("whole-struct read decoded %v leaves in 4 trips row groups, want at least 26 each", d["leaves_decoded"])
	}

	// A value beyond every row group's max: statistics skip all 8.
	d = run("SELECT base.driver_uuid FROM trips WHERE base.city_id = 5000000")
	if d["row_groups_skipped_stats"] != 8 || d["row_groups_read"] != 0 {
		t.Errorf("stats skipping: %v", d)
	}
	// With the footers cached by now, a scan that statistics empty touches
	// no file: the reader opens one for its first chunk read, not before.
	opens = nn.Counters.OpenCalls.Load()
	run("SELECT base.driver_uuid FROM trips WHERE base.city_id = 5000000")
	if o := nn.Counters.OpenCalls.Load() - opens; o != 0 {
		t.Errorf("stats skipping: %d files opened to read nothing", o)
	}
	// A value inside every row group's [200, 400] but in no dictionary
	// (status codes are 200, 300 and 400): the dictionaries skip all 8.
	d = run("SELECT base.driver_uuid FROM trips WHERE base.status.code = 250")
	if d["row_groups_skipped_dict"] != 8 || d["row_groups_skipped_stats"] != 0 || d["rows_scanned"] != 0 {
		t.Errorf("dictionary skipping: %v", d)
	}
	// A predicate that matches one row: scanned counts the row group,
	// matched the row.
	d = run("SELECT base.driver_uuid FROM trips WHERE datestr = '2017-03-01' AND base.city_id = 99999")
	if d["rows_scanned"] != 128 || d["rows_matched"] != 1 {
		t.Errorf("needle: %v", d)
	}

	text, err := e.Query(session, "EXPLAIN ANALYZE SELECT base.city_id, count(*) FROM trips GROUP BY base.city_id")
	if err != nil {
		t.Fatal(err)
	}
	footer := text.Rows()[0][0].(string)
	for _, want := range []string{"Reader:\n", "hive.reader.leaves_decoded: ", "hive.reader.row_groups_skipped_dict: 8\n", "hive.reader.rows_matched: ",
		"hive.reader.fetch_batches: ", "hive.reader.ranges_read: ", "hive.reader.bytes_read: "} {
		if !strings.Contains(footer, want) {
			t.Errorf("EXPLAIN ANALYZE footer lacks %q:\n%s", want, footer)
		}
	}
}
