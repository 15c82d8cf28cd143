package cluster

import (
	"fmt"
	"strings"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/fault"
	"prestolite/internal/fsys"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/parquet"
	"prestolite/internal/planner"
	"prestolite/internal/types"
)

// TestCorruptLazyChunkFailsTheQueryNotTheWorker: the chunk of a projected,
// non-predicate column is decoded lazily, by whichever operator first touches
// the block — where no error can be returned. Corrupting it must fail that
// query with an error naming the column, and leave the workers serving: the
// next query on the same workers succeeds. (The loader used to panic with
// nothing to recover it, taking the whole worker process down.)
func TestCorruptLazyChunkFailsTheQueryNotTheWorker(t *testing.T) {
	inj := fault.NewInjector(1)
	base := hdfs.New(hdfs.Config{})
	var fs fsys.FileSystem = &fault.FS{Injector: inj, Base: base}
	ms := metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	cols := []metastore.Column{{Name: "k", Type: types.Bigint}, {Name: "v", Type: types.Varchar}}
	var pages []*block.Page
	for f := 0; f < 4; f++ {
		pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Varchar})
		for i := 0; i < 64; i++ {
			pb.AppendRow([]any{int64(f*64 + i), fmt.Sprintf("v-%d", i%5)})
		}
		pages = append(pages, pb.Build())
	}
	if err := loader.CreateTable("s", "t", cols, pages); err != nil {
		t.Fatal(err)
	}
	reg := connector.NewRegistry()
	reg.Register("hive", hive.New("hive", ms, fs, hive.Options{}))
	coord, workers := chaosCluster(t, reg, 2, ClientConfig{})
	session := &planner.Session{Catalog: "hive", Schema: "s", User: "corrupt", Properties: map[string]string{"task_concurrency": "4"}}

	// Where v's chunk sits in one of the files.
	const victim = "/warehouse/s/t/part-00002"
	file, err := base.Open(victim)
	if err != nil {
		t.Fatal(err)
	}
	meta, schema, err := parquet.ReadFooter(file)
	if err != nil {
		t.Fatal(err)
	}
	vLeaf := schema.Resolve("v").LeafIndex
	var chunk *parquet.ChunkMeta
	for i := range meta.RowGroups[0].Chunks {
		if meta.RowGroups[0].Chunks[i].LeafIndex == vLeaf {
			chunk = &meta.RowGroups[0].Chunks[i]
		}
	}
	if chunk == nil {
		t.Fatal("no chunk for v")
	}

	// k's predicate is pushed into the reader, so k decodes eagerly and v
	// lazily. The first statement loads v when the task's output is drained,
	// the second inside a local exchange's producer (the partial aggregation
	// partitions on v): both driver boundaries must turn the failure into
	// the task's error.
	queries := []string{
		"SELECT v FROM t WHERE k >= 0",
		"SELECT v, count(*) FROM t WHERE k >= 0 GROUP BY v",
	}
	inj.FaultFS(fault.FSRule{Path: victim, Ops: []string{"read"}, CorruptProb: 1, Offset: chunk.DataOffset, Length: int64(chunk.DataLen)})
	// The rule names v's data pages; the reader fetches them in one read with
	// v's dictionary page in front, which the rule must still catch.
	for _, q := range queries {
		before := inj.Counters.FSCorruptReads.Load()
		_, err := coord.Query(session, q)
		if err == nil {
			t.Fatalf("%s: succeeded over a corrupt chunk", q)
		}
		if !strings.Contains(err.Error(), "lazy column v") {
			t.Errorf("%s: error does not name the column: %v", q, err)
		}
		if inj.Counters.FSCorruptReads.Load() == before {
			t.Fatalf("%s: nothing was corrupted: the test was a no-op", q)
		}
	}

	inj.Reset()
	started := int64(0)
	for _, w := range workers {
		started -= w.Obs.Snapshot().Counters["tasks_started"]
	}
	for _, q := range queries {
		res, err := coord.Query(session, q)
		if err != nil {
			t.Fatalf("%s after the fault cleared: %v", q, err)
		}
		rows, err := res.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if want := map[string]int{queries[0]: 256, queries[1]: 5}[q]; len(rows) != want {
			t.Errorf("%s: %d rows, want %d", q, len(rows), want)
		}
	}
	for _, w := range workers {
		started += w.Obs.Snapshot().Counters["tasks_started"]
	}
	if started == 0 {
		t.Error("the second round ran no task on the original workers")
	}
}
