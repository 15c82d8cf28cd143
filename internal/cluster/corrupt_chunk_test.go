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
	"prestolite/internal/sql"
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
	reg, base, victim := lazyColumnCatalogs(t, inj)
	coord := NewCoordinatorWithConfig(reg, ClientConfig{})
	var workers []*Worker
	for i := 0; i < 2; i++ {
		w := NewWorker(reg)
		w.EnableFragmentResultCache = true // a task that failed must leave nothing in it
		if err := w.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		coord.AddWorker(w.Addr())
		workers = append(workers, w)
	}
	session := &planner.Session{Catalog: "hive", Schema: "s", User: "corrupt", Properties: map[string]string{"task_concurrency": "4"}}

	// Where v's chunk sits in one of the files.
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
	workerCounter := func(name string) (n int64) {
		for _, w := range workers {
			n += w.Obs.Snapshot().Counters[name]
		}
		return n
	}
	for _, q := range queries {
		before, failedBefore := inj.Counters.FSCorruptReads.Load(), workerCounter("tasks_failed")
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
		// The column is loaded inside the task, when its output is encoded:
		// the task that could not read it is a failed task, not a completed
		// one whose results request failed later.
		if workerCounter("tasks_failed") == failedBefore {
			t.Errorf("%s: no worker counted a failed task", q)
		}
	}
	// So nothing of it was cached: a worker holds no more fragment results
	// than tasks it completed, and the failed ones are not among those.
	for _, w := range workers {
		if n, completed := int64(w.fragCache.Len()), w.Obs.Snapshot().Counters["tasks_completed"]; n > completed {
			t.Errorf("worker %s cached %d fragment results but completed %d tasks", w.Addr(), n, completed)
		}
	}

	inj.Reset()
	started := -workerCounter("tasks_started")
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
	if started += workerCounter("tasks_started"); started == 0 {
		t.Error("the second round ran no task on the original workers")
	}
}

// lazyColumnCatalogs builds hive table s.t (k bigint, v varchar; 4 files of 64
// rows) over the simulated HDFS, behind the fault-injecting filesystem when
// inj != nil. A pushed predicate on k makes the reader decode k eagerly and
// hand v out as a lazy block. victim is one of the table's files.
func lazyColumnCatalogs(t *testing.T, inj *fault.Injector) (reg *connector.Registry, base *hdfs.NameNode, victim string) {
	t.Helper()
	base = hdfs.New(hdfs.Config{})
	var fs fsys.FileSystem = base
	if inj != nil {
		fs = &fault.FS{Injector: inj, Base: base}
	}
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
	reg = connector.NewRegistry()
	reg.Register("hive", hive.New("hive", ms, fs, hive.Options{}))
	return reg, base, "/warehouse/s/t/part-00002"
}

// sourceFragment plans query (catalog hive, schema s) and returns its one
// source fragment with the splits of the table it scans.
func sourceFragment(t testing.TB, reg *connector.Registry, query string) (*planner.Fragment, []connector.Split) {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.PlanQuery(reg, &planner.Session{Catalog: "hive", Schema: "s"}, stmt.(*sql.Query))
	if err != nil {
		t.Fatal(err)
	}
	frag := (&planner.Fragmenter{}).Fragment(plan).Sources[1]
	conn, err := reg.Get("hive")
	if err != nil {
		t.Fatal(err)
	}
	splits, err := conn.SplitManager().Splits(frag.Scan.Handle)
	if err != nil {
		t.Fatal(err)
	}
	return frag, splits
}
