package hybrid

import (
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	druidconn "prestolite/internal/connectors/druid"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/druid"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/types"
)

// TestSnapshotVersionFoldsBothSides checks the hybrid connector's
// SnapshotVersion moves when either side's data moves.
func TestSnapshotVersionFoldsBothSides(t *testing.T) {
	ms := metastore.New()
	fs := hdfs.New(hdfs.Config{})
	loader := &hive.Loader{MS: ms, FS: fs}
	cols := []metastore.Column{{Name: "ts", Type: types.Bigint}, {Name: "country", Type: types.Varchar}}
	pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Varchar})
	pb.AppendRow([]any{int64(1), "us"})
	if err := loader.CreateTable("rt", "events_hist", cols, []*block.Page{pb.Build()}); err != nil {
		t.Fatal(err)
	}
	hiveConn := hive.New("hive", ms, fs, hive.Options{})

	store := druid.NewStore()
	if _, err := store.CreateTable("events", []druid.Column{
		{Name: "ts", Type: types.Bigint},
		{Name: "country", Type: types.Varchar},
	}); err != nil {
		t.Fatal(err)
	}
	druidConn := druidconn.New("druid", &druid.EmbeddedClient{Store: store})

	reg := connector.NewRegistry()
	reg.Register("hive", hiveConn)
	reg.Register("druid", druidConn)
	hc := New("hybrid", reg)
	if err := hc.AddTable("events", TableConfig{
		Historical: connector.HybridPart{Catalog: "hive", Schema: "rt", Table: "events_hist"},
		Realtime:   connector.HybridPart{Catalog: "druid", Schema: "default", Table: "events"},
		TimeColumn: "ts",
		Boundary:   100,
	}); err != nil {
		t.Fatal(err)
	}

	v0, ok := hc.SnapshotVersion("default", "events")
	if !ok {
		t.Fatal("hybrid table should be versionable over embedded druid + hive")
	}
	// Realtime append moves it.
	rt, _ := store.GetTable("events")
	if err := rt.Ingest([][]any{{int64(101), "us"}}); err != nil {
		t.Fatal(err)
	}
	v1, _ := hc.SnapshotVersion("default", "events")
	if v1 <= v0 {
		t.Errorf("append did not move version: %d -> %d", v0, v1)
	}
	// Historical partition add moves it.
	if err := ms.AddPartition("rt", "events_hist", metastore.Partition{Name: "datestr=2017-03-03", Location: "/p", Sealed: true}); err != nil {
		t.Fatal(err)
	}
	v2, _ := hc.SnapshotVersion("default", "events")
	if v2 <= v1 {
		t.Errorf("partition add did not move version: %d -> %d", v1, v2)
	}
	if _, ok := hc.SnapshotVersion("default", "missing"); ok {
		t.Error("missing table should not version")
	}
}
