package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/fsys"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/parquet"
	"prestolite/internal/planner"
	"prestolite/internal/types"
)

// Dictionary encoding from file to group table, checked against the same
// rows without it: one hive warehouse is written twice, by default (the
// writer dictionary-encodes what it pays to, and the reader hands the
// engine dictionary blocks) and with WriterOptions.DisableDictionary (every
// chunk plain, every block flat). Each statement must answer the same over
// both, embedded at 1 and 8 drivers and through a coordinator with two
// workers. Data comes from a seed; replay a failure with
// EQUIV_SEED=<seed> go test -run TestDictionaryEncodingEquivalence ./internal/core/.

var dictionaryStatements = []struct{ name, sql string }{
	{"one key", "SELECT city_id, count(*), sum(fare), max(driver) FROM f GROUP BY city_id"},
	{"two keys", "SELECT city_id, status, count(*), min(fare) FROM f GROUP BY city_id, status"},
	{"varchar key", "SELECT driver, count(*), sum(fare) FROM f GROUP BY driver"},
	{"pushed filter on a dictionary column", "SELECT status, driver, count(*) FROM f WHERE status IN ('completed', 'none') GROUP BY status, driver"},
	{"pushed filter on a dictionary key", "SELECT count(*), sum(fare), count(status) FROM f WHERE city_id = 17"},
	{"join", "SELECT name, count(*), sum(fare) FROM f JOIN d ON f.city_id = d.id GROUP BY name"},
	{"join rows", "SELECT f.driver, d.name, f.fare FROM f JOIN d ON f.city_id = d.id WHERE f.status = 'cancelled'"},
}

// dictionaryWarehouse writes fact f (three files of 1,500 rows in row
// groups of 500) and dimension d into a hive catalog. f.driver has ~350
// long distinct values per row group, which only the writer's size rule
// dictionary-encodes; city_id, status and the keys hold NULLs.
func dictionaryWarehouse(t *testing.T, seed int64, opts parquet.WriterOptions) (connector.Connector, fsys.FileSystem) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	fs, ms := hdfs.New(hdfs.Config{}), metastore.New()
	opts.RowGroupRows = 500
	loader := &hive.Loader{MS: ms, FS: fs, WriterOptions: opts}
	null := func(v any) any {
		if r.Intn(12) == 0 {
			return nil
		}
		return v
	}
	table := func(name string, cols []metastore.Column, files, rows int, row func(i int) []any) {
		typs := make([]*types.Type, len(cols))
		for i, c := range cols {
			typs[i] = c.Type
		}
		var pages []*block.Page
		for f := 0; f < files; f++ {
			pb := block.NewPageBuilder(typs)
			for i := 0; i < rows; i++ {
				pb.AppendRow(row(i))
			}
			pages = append(pages, pb.Build())
		}
		if err := loader.CreateTable("s", name, cols, pages); err != nil {
			t.Fatal(err)
		}
	}
	col := func(name string, typ *types.Type) metastore.Column { return metastore.Column{Name: name, Type: typ} }
	statuses := []string{"completed", "cancelled", "driver_canceled"}
	table("f", []metastore.Column{col("city_id", types.Bigint), col("driver", types.Varchar),
		col("status", types.Varchar), col("fare", types.Double)}, 3, 1500,
		func(int) []any {
			return []any{null(int64(r.Intn(60))), fmt.Sprintf("%08x-4e1f-9c3a-%012d", r.Intn(350), r.Intn(4)),
				null(statuses[r.Intn(3)]), float64(r.Intn(80)) / 2}
		})
	table("d", []metastore.Column{col("id", types.Bigint), col("name", types.Varchar)}, 1, 70,
		func(i int) []any { return []any{null(int64(i)), fmt.Sprintf("city-%d", i%25)} })
	return hive.New("hive", ms, fs, hive.Options{}), fs
}

// dictionaryChunks counts the chunks of f's files that are
// dictionary-encoded, per column.
func dictionaryChunks(t *testing.T, fs fsys.FileSystem) map[string]int {
	t.Helper()
	files, err := fs.ListFiles("/warehouse/s/f")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, fi := range files {
		f, err := fs.Open(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		meta, schema, err := parquet.ReadFooter(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, rg := range meta.RowGroups {
			for _, cm := range rg.Chunks {
				if cm.Dictionary {
					out[schema.Leaves[cm.LeafIndex].Node.Path]++
				}
			}
		}
	}
	return out
}

func TestDictionaryEncodingEquivalence(t *testing.T) {
	for _, seed := range joinAggSeeds(t) {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			encoded, encodedFS := dictionaryWarehouse(t, seed, parquet.WriterOptions{})
			plain, plainFS := dictionaryWarehouse(t, seed, parquet.WriterOptions{DisableDictionary: true})
			if got := dictionaryChunks(t, encodedFS); got["city_id"] != 9 || got["driver"] != 9 || got["status"] != 9 {
				t.Fatalf("dictionary chunks of the default copy = %v, want every city_id, driver and status chunk", got)
			}
			if got := dictionaryChunks(t, plainFS); len(got) != 0 {
				t.Fatalf("dictionary chunks of the plain copy = %v", got)
			}
			answers := func(conn connector.Connector) map[string][][]string {
				e := New()
				e.Register("hive", conn)
				reg := connector.NewRegistry()
				reg.Register("hive", conn)
				coord := cluster.NewCoordinator(reg)
				for i := 0; i < 2; i++ {
					w := cluster.NewWorker(reg)
					w.GracePeriod = 20 * time.Millisecond
					if err := w.Start("127.0.0.1:0"); err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { w.Close() })
					coord.AddWorker(w.Addr())
				}
				out := map[string][][]string{}
				for _, st := range dictionaryStatements {
					for _, drivers := range []int{1, 8} {
						s := DefaultSession("hive", "s")
						s.Properties["task_concurrency"] = fmt.Sprint(drivers)
						res, err := e.Query(s, st.sql)
						if err != nil {
							t.Fatalf("drivers=%d %s: %v", drivers, st.sql, err)
						}
						out[st.name] = append(out[st.name], joinAggRows(res.Rows()))
					}
					res, err := coord.Query(&planner.Session{Catalog: "hive", Schema: "s", User: "test", Properties: map[string]string{}}, st.sql)
					if err != nil {
						t.Fatalf("cluster %s: %v", st.sql, err)
					}
					rows, err := res.Rows()
					if err != nil {
						t.Fatal(err)
					}
					out[st.name] = append(out[st.name], joinAggRows(rows))
				}
				return out
			}
			want, got := answers(plain), answers(encoded)
			for _, st := range dictionaryStatements {
				if len(want[st.name][0]) == 0 {
					t.Errorf("%s: no rows, so nothing is compared", st.name)
				}
				for i, mode := range []string{"1 driver", "8 drivers", "cluster"} {
					if !reflect.DeepEqual(got[st.name][i], want[st.name][0]) || !reflect.DeepEqual(want[st.name][i], want[st.name][0]) {
						t.Errorf("%s, %s: dictionary-encoded\n got  %v\n plain %v", st.name, mode, got[st.name][i], want[st.name][i])
					}
				}
			}
		})
	}
}
