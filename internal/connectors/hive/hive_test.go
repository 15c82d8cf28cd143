package hive

import (
	"strings"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/core"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/planner"
	"prestolite/internal/types"
)

// newWarehouse builds a partitioned nested trips table on simulated HDFS.
func newWarehouse(t *testing.T, opts Options) (*core.Engine, *Connector, *hdfs.NameNode) {
	t.Helper()
	nn := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &Loader{MS: ms, FS: nn}

	baseType := types.NewRow(
		types.Field{Name: "driver_uuid", Type: types.Varchar},
		types.Field{Name: "city_id", Type: types.Bigint},
	)
	cols := []metastore.Column{
		{Name: "base", Type: baseType},
		{Name: "fare", Type: types.Double},
	}
	mkPage := func(rows ...[]any) *block.Page {
		pb := block.NewPageBuilder([]*types.Type{baseType, types.Double})
		for _, r := range rows {
			pb.AppendRow(r)
		}
		return pb.Build()
	}
	partitions := map[string][]*block.Page{
		"2017-03-02": {mkPage(
			[]any{[]any{"d-1", int64(12)}, 10.5},
			[]any{[]any{"d-2", int64(7)}, 5.0},
		)},
		"2017-03-03": {mkPage(
			[]any{[]any{"d-3", int64(12)}, 7.5},
			[]any{[]any{"d-4", int64(9)}, 30.0},
		)},
	}
	sealed := map[string]bool{"2017-03-02": true, "2017-03-03": true}
	if err := loader.CreatePartitionedTable("rawdata", "trips", cols, "datestr", partitions, sealed); err != nil {
		t.Fatal(err)
	}

	conn := New("hive", ms, nn, opts)
	e := core.New()
	e.Register("hive", conn)
	return e, conn, nn
}

func TestHiveEndToEnd(t *testing.T) {
	e, _, _ := newWarehouse(t, Options{})
	s := core.DefaultSession("hive", "rawdata")

	res, err := e.Query(s, "SELECT count(*) FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0] != int64(4) {
		t.Fatalf("count = %v", res.Rows()[0][0])
	}

	res, err = e.Query(s, `SELECT base.driver_uuid FROM trips
		WHERE datestr = '2017-03-02' AND base.city_id IN (12)`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 || rows[0][0] != "d-1" {
		t.Fatalf("rows = %v", rows)
	}

	res, err = e.Query(s, "SELECT sum(fare) FROM trips WHERE datestr = '2017-03-03'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0] != 37.5 {
		t.Fatalf("sum = %v", res.Rows()[0][0])
	}
}

func TestPartitionPruning(t *testing.T) {
	e, _, nn := newWarehouse(t, Options{DisableFileListCache: true})
	s := core.DefaultSession("hive", "rawdata")

	before := nn.Counters.ListFilesCalls.Load()
	res, err := e.Query(s, "SELECT fare FROM trips WHERE datestr = '2017-03-02'")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount() != 2 {
		t.Fatalf("rows = %v", res.Rows())
	}
	// Only the matching partition directory should be listed.
	if got := nn.Counters.ListFilesCalls.Load() - before; got != 1 {
		t.Errorf("listFiles calls = %d, want 1 (partition pruning)", got)
	}

	plan, err := e.Explain(s, "SELECT fare FROM trips WHERE datestr = '2017-03-02'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, `partition[datestr = "2017-03-02"]`) {
		t.Errorf("plan missing partition pushdown:\n%s", plan)
	}
	if strings.Contains(plan, "- Filter[") {
		t.Errorf("predicate should be fully absorbed:\n%s", plan)
	}
}

func TestPredicatePushdownIntoReader(t *testing.T) {
	e, _, _ := newWarehouse(t, Options{})
	s := core.DefaultSession("hive", "rawdata")
	plan, err := e.Explain(s, "SELECT fare FROM trips WHERE base.city_id = 12")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "predicate[base.city_id = 12]") {
		t.Errorf("plan missing reader predicate:\n%s", plan)
	}
	res, err := e.Query(s, "SELECT fare FROM trips WHERE base.city_id = 12 ORDER BY fare")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0][0] != 7.5 || rows[1][0] != 10.5 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestLegacyReaderModeKeepsResidualFilter(t *testing.T) {
	e, _, _ := newWarehouse(t, Options{UseLegacyReader: true})
	s := core.DefaultSession("hive", "rawdata")
	plan, err := e.Explain(s, "SELECT fare FROM trips WHERE base.city_id = 12")
	if err != nil {
		t.Fatal(err)
	}
	// The legacy reader cannot evaluate predicates while scanning; the
	// engine keeps its Filter.
	if !strings.Contains(plan, "Filter[") {
		t.Errorf("legacy mode should keep the engine filter:\n%s", plan)
	}
	res, err := e.Query(s, "SELECT fare FROM trips WHERE base.city_id = 12 ORDER BY fare")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount() != 2 {
		t.Fatalf("rows = %v", res.Rows())
	}
}

func TestReadersAgreeOnResults(t *testing.T) {
	queries := []string{
		"SELECT count(*) FROM trips",
		"SELECT base.driver_uuid FROM trips WHERE base.city_id = 12 ORDER BY 1",
		"SELECT datestr, sum(fare) FROM trips GROUP BY datestr ORDER BY 1",
		"SELECT fare FROM trips WHERE fare > 6.0 ORDER BY fare",
	}
	eNew, _, _ := newWarehouse(t, Options{})
	eOld, _, _ := newWarehouse(t, Options{UseLegacyReader: true})
	s := core.DefaultSession("hive", "rawdata")
	for _, q := range queries {
		r1, err := eNew.Query(s, q)
		if err != nil {
			t.Fatalf("%s (new): %v", q, err)
		}
		r2, err := eOld.Query(s, q)
		if err != nil {
			t.Fatalf("%s (legacy): %v", q, err)
		}
		g1, g2 := r1.Rows(), r2.Rows()
		if len(g1) != len(g2) {
			t.Fatalf("%s: new %v vs legacy %v", q, g1, g2)
		}
		for i := range g1 {
			for j := range g1[i] {
				if g1[i][j] != g2[i][j] {
					t.Errorf("%s row %d: %v vs %v", q, i, g1[i], g2[i])
				}
			}
		}
	}
}

func TestFileListCacheReducesListCalls(t *testing.T) {
	e, conn, nn := newWarehouse(t, Options{})
	s := core.DefaultSession("hive", "rawdata")
	q := "SELECT count(*) FROM trips"
	if _, err := e.Query(s, q); err != nil {
		t.Fatal(err)
	}
	afterFirst := nn.Counters.ListFilesCalls.Load()
	for i := 0; i < 9; i++ {
		if _, err := e.Query(s, q); err != nil {
			t.Fatal(err)
		}
	}
	// Sealed partitions: every subsequent listing is served from cache.
	if got := nn.Counters.ListFilesCalls.Load(); got != afterFirst {
		t.Errorf("listFiles calls grew from %d to %d despite cache", afterFirst, got)
	}
	if hr := conn.FileListCacheMetrics().HitRate(); hr < 0.8 {
		t.Errorf("file list cache hit rate = %.2f", hr)
	}
}

func TestOpenPartitionBypassesCacheAndSeesNewFiles(t *testing.T) {
	nn := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &Loader{MS: ms, FS: nn}
	cols := []metastore.Column{{Name: "v", Type: types.Bigint}}
	pb := block.NewPageBuilder([]*types.Type{types.Bigint})
	pb.AppendRow([]any{int64(1)})
	partitions := map[string][]*block.Page{"today": {pb.Build()}}
	// "today" stays open: near-real-time ingestion keeps writing files.
	if err := loader.CreatePartitionedTable("rt", "events", cols, "datestr", partitions, map[string]bool{}); err != nil {
		t.Fatal(err)
	}
	conn := New("hive", ms, nn, Options{})
	e := core.New()
	e.Register("hive", conn)
	s := core.DefaultSession("hive", "rt")

	res, err := e.Query(s, "SELECT count(*) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0] != int64(1) {
		t.Fatalf("count = %v", res.Rows()[0][0])
	}

	// Micro-batch ingestion appends a new file to the open partition.
	pb2 := block.NewPageBuilder([]*types.Type{types.Bigint})
	pb2.AppendRow([]any{int64(2)})
	pb2.AppendRow([]any{int64(3)})
	tab, err := ms.GetTable("rt", "events")
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.writeOne(tab.Location+"/datestr=today/part-99999", cols, []*block.Page{pb2.Build()}); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(s, "SELECT count(*) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	// Data freshness guaranteed: the new file is visible immediately.
	if res.Rows()[0][0] != int64(3) {
		t.Fatalf("count after ingestion = %v", res.Rows()[0][0])
	}
	if conn.FileListCacheMetrics().Bypasses.Load() == 0 {
		t.Error("open partition should bypass the cache")
	}
}

func TestFooterCacheReducesGetFileInfo(t *testing.T) {
	e, _, nn := newWarehouse(t, Options{})
	s := core.DefaultSession("hive", "rawdata")
	q := "SELECT count(*) FROM trips"
	if _, err := e.Query(s, q); err != nil {
		t.Fatal(err)
	}
	afterFirst := nn.Counters.GetFileInfoCalls.Load()
	for i := 0; i < 9; i++ {
		if _, err := e.Query(s, q); err != nil {
			t.Fatal(err)
		}
	}
	if got := nn.Counters.GetFileInfoCalls.Load(); got != afterFirst {
		t.Errorf("getFileInfo calls grew from %d to %d despite cache", afterFirst, got)
	}
}

func TestSchemaEvolutionAddField(t *testing.T) {
	// Write files with the v1 schema, evolve the table to add a field,
	// query the new field over old data: NULLs (§V.A).
	nn := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	loader := &Loader{MS: ms, FS: nn}
	v1 := []metastore.Column{{Name: "base", Type: types.NewRow(
		types.Field{Name: "driver_uuid", Type: types.Varchar},
	)}}
	pb := block.NewPageBuilder([]*types.Type{v1[0].Type})
	pb.AppendRow([]any{[]any{"d-1"}})
	if err := loader.CreateTable("rawdata", "evolving", v1, []*block.Page{pb.Build()}); err != nil {
		t.Fatal(err)
	}
	// Evolve: add base.rating.
	v2 := []metastore.Column{{Name: "base", Type: types.NewRow(
		types.Field{Name: "driver_uuid", Type: types.Varchar},
		types.Field{Name: "rating", Type: types.Double},
	)}}
	if err := ms.EvolveTable("rawdata", "evolving", v2); err != nil {
		t.Fatal(err)
	}
	conn := New("hive", ms, nn, Options{})
	e := core.New()
	e.Register("hive", conn)
	s := core.DefaultSession("hive", "rawdata")
	res, err := e.Query(s, "SELECT base.driver_uuid, base.rating FROM evolving")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 || rows[0][0] != "d-1" || rows[0][1] != nil {
		t.Fatalf("rows = %v", rows)
	}

	// Type change rejected.
	bad := []metastore.Column{{Name: "base", Type: types.NewRow(
		types.Field{Name: "driver_uuid", Type: types.Bigint},
	)}}
	if err := ms.EvolveTable("rawdata", "evolving", bad); err == nil {
		t.Error("type change should be rejected")
	}
	// Rename rejected.
	if err := ms.RenameColumn("rawdata", "evolving", "base", "base2"); err == nil {
		t.Error("rename should be rejected")
	}
}

func TestProjectionPushdownVisibleInPlan(t *testing.T) {
	e, _, _ := newWarehouse(t, Options{})
	plan, err := e.Explain(core.DefaultSession("hive", "rawdata"), "SELECT fare FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "columns=[1]") {
		t.Errorf("plan missing projection pushdown:\n%s", plan)
	}
	_ = planner.Format
}

func TestDereferencePushdownInPlan(t *testing.T) {
	e, _, _ := newWarehouse(t, Options{})
	s := core.DefaultSession("hive", "rawdata")
	plan, err := e.Explain(s, "SELECT base.driver_uuid, fare FROM trips WHERE base.city_id = 12")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "nestedPaths=[base.driver_uuid fare]") &&
		!strings.Contains(plan, "nestedPaths=") {
		t.Errorf("plan missing nested path pushdown:\n%s", plan)
	}
	// The whole base struct must not be read: the scan outputs only the
	// dotted paths.
	if strings.Contains(plan, "=> [base,") || strings.Contains(plan, "=> [base]") {
		t.Errorf("whole struct still scanned:\n%s", plan)
	}
	res, err := e.Query(s, "SELECT base.driver_uuid, fare FROM trips WHERE base.city_id = 12 ORDER BY fare")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount() != 2 {
		t.Fatalf("rows = %v", res.Rows())
	}
}

func TestNestedPathsMixedWithWholeStruct(t *testing.T) {
	// Selecting both a subfield and the whole struct must not push paths
	// incorrectly; results stay consistent.
	e, _, _ := newWarehouse(t, Options{})
	s := core.DefaultSession("hive", "rawdata")
	res, err := e.Query(s, "SELECT base, base.city_id FROM trips WHERE datestr = '2017-03-02' ORDER BY 2")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		structVal := r[0].([]any)
		if structVal[1] != r[1] { // base.city_id field inside the struct
			t.Errorf("struct/deref mismatch: %v vs %v", structVal[1], r[1])
		}
	}
}
