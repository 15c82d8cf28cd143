package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	druidconn "prestolite/internal/connectors/druid"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/druid"
	"prestolite/internal/execution"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/parquet"
	"prestolite/internal/planner"
	"prestolite/internal/types"
)

// Partials per immutable unit: a grouped or global count, sum, min or max a
// hive scan absorbs is answered file by file, from the connector's memo once
// a statement of the same shape has read the file. Every answer must be
// row-exact against the engine aggregating every raw row (`bare`) and
// against a cold memo (a new connector over the same files). Replay a
// failure with
// EQUIV_SEED=<seed> go test -run TestGroupedPartialsEquivalence ./internal/core/.

// partialsGauges returns the <catalog>.partials.* gauges of e, without the
// prefix.
func partialsGauges(e *Engine, catalog string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range e.Obs.Snapshot().Gauges {
		if name, ok := strings.CutPrefix(k, catalog+".partials."); ok {
			out[name] = v
		}
	}
	return out
}

// TestGroupedPartialsEquivalence runs grouped statements over footerStats
// files — NULL keys; varchar keys dictionary-coded and plain; files written
// before the table gained e, whose keys read NULL there; predicates that
// prune every row group of a file — through the engine, twice (the second
// from the memo), through a cold connector and through a cluster.
func TestGroupedPartialsEquivalence(t *testing.T) {
	seeds := []int64{1, 7, 42}
	if env := os.Getenv("EQUIV_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad EQUIV_SEED %q: %v", env, err)
		}
		seeds = []int64{seed}
	}
	keys := []string{"s", "flag", "dt", "n", "e", "s, flag", "n, e, s", "k"}
	const aggs = "count(*), count(n), sum(n), min(s), max(s), min(dt), max(k), sum(e), count(e), min(flag)"
	for _, seed := range seeds {
		for _, plain := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/plain=%v", seed, plain), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				// Row groups of 96 rows and more: a file folds its varchar
				// keys, when dictionary-coded, into few enough groups that
				// the scan absorbs them.
				ms, fs := footerStatsFiles(t, r, parquet.WriterOptions{RowGroupRows: 96, DisableDictionary: plain})
				conn := hive.New("hive", ms, fs, hive.Options{})
				hot, ref := New(), New()
				hot.Register("hive", conn)
				ref.Register("hive", bare{conn})
				coord := partialsCluster(t, conn)
				session := DefaultSession("hive", "s")

				// Every key under predicates that keep every row, prune every
				// row group of a file, and prune whole partitions; then one
				// key per random predicate.
				type shape struct{ key, where string }
				var shapes []shape
				for _, k := range keys {
					for _, where := range []string{"k >= 0", "k < -1", "p <> '1'"} {
						shapes = append(shapes, shape{k, where})
					}
				}
				for i, where := range footerStatsPredicates(r)[:12] {
					shapes = append(shapes, shape{keys[i%len(keys)], where})
				}
				for i, sh := range shapes {
					k, where := sh.key, sh.where
					for _, stmt := range []string{
						fmt.Sprintf("SELECT %s, %s FROM t WHERE %s GROUP BY %s", k, aggs, where, k),
						"SELECT " + aggs + " FROM t WHERE " + where,
					} {
						want := partialsRows(t, ref, session, stmt)
						for run := 0; run < 2; run++ { // the second from the memo
							if got := partialsRows(t, hot, session, stmt); !reflect.DeepEqual(got, want) {
								t.Errorf("run %d %s\n got  %v\n want %v", run, stmt, got, want)
							}
						}
						cold := New()
						cold.Register("hive", hive.New("hive", ms, fs, hive.Options{}))
						if got := partialsRows(t, cold, session, stmt); !reflect.DeepEqual(got, want) {
							t.Errorf("cold memo %s\n got  %v\n want %v", stmt, got, want)
						}
						if i%4 == 0 { // through workers: the handle crosses the wire
							res, err := coord.Query(&planner.Session{Catalog: "hive", Schema: "s", User: "test", Properties: map[string]string{}}, stmt)
							if err != nil {
								t.Fatalf("cluster %s: %v", stmt, err)
							}
							rows, err := res.Rows()
							if err != nil {
								t.Fatalf("cluster %s: %v", stmt, err)
							}
							if got := joinAggRows(rows); !reflect.DeepEqual(got, want) {
								t.Errorf("cluster %s\n got  %v\n want %v", stmt, got, want)
							}
						}
					}
				}
				if g := partialsGauges(hot, "hive"); g["hits"] == 0 || g["misses"] == 0 {
					t.Errorf("the memo saw hits %v and misses %v: the equivalence compares nothing", g["hits"], g["misses"])
				}
				// Plain varchar chunks bound no key to fewer values than rows:
				// their aggregation stays the engine's.
				plan, err := hot.Explain(session, "SELECT s, "+aggs+" FROM t GROUP BY s")
				if err != nil {
					t.Fatal(err)
				}
				if absorbed := strings.Contains(plan, "groupBy=[3]") && strings.Contains(plan, "Aggregate(FINAL)"); absorbed == plain {
					t.Errorf("GROUP BY s, plain=%v: absorbed=%v:\n%s", plain, absorbed, plan)
				}
			})
		}
	}
}

func partialsRows(t *testing.T, e *Engine, s *planner.Session, stmt string) []string {
	t.Helper()
	res, err := e.Query(s, stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return joinAggRows(res.Rows())
}

func partialsCluster(t *testing.T, conn connector.Connector) *cluster.Coordinator {
	t.Helper()
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
	return coord
}

// TestPartialsFollowTableEvolution: an EvolveTable that swaps two columns
// between two statements gives the second statement's handle the very
// ordinals — and so the very split wire form — the first statement's had,
// over the other column. The memo key carries each column's resolved name
// and type, so the second statement misses and answers its own column.
func TestPartialsFollowTableEvolution(t *testing.T) {
	fs, ms := hdfs.New(hdfs.Config{}), metastore.New()
	loader := &hive.Loader{MS: ms, FS: fs}
	cols := []metastore.Column{{Name: "a", Type: types.Bigint}, {Name: "b", Type: types.Bigint}}
	var pages []*block.Page
	for f := 0; f < 3; f++ {
		pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Bigint})
		for i := 0; i < 80; i++ { // both columns fold 10 rows into a group or more
			pb.AppendRow([]any{int64(i % 4), int64(f*100 + i%7)})
		}
		pages = append(pages, pb.Build())
	}
	if err := loader.CreateTable("s", "t", cols, pages); err != nil {
		t.Fatal(err)
	}
	conn := hive.New("hive", ms, fs, hive.Options{})
	hot, ref := New(), New()
	hot.Register("hive", conn)
	ref.Register("hive", bare{conn})
	session := DefaultSession("hive", "s")
	check := func(stmt string) {
		t.Helper()
		want := partialsRows(t, ref, session, stmt)
		if got := partialsRows(t, hot, session, stmt); !reflect.DeepEqual(got, want) {
			t.Errorf("%s\n got  %v\n want %v", stmt, got, want)
		}
	}
	handle := func(stmt string) string {
		plan, err := hot.Explain(session, stmt)
		if err != nil {
			t.Fatal(err)
		}
		desc := plan[strings.Index(plan, "hive:s.t"):]
		return desc[:strings.Index(desc, ", aggregation=")]
	}
	const before, after = "SELECT a, count(*), sum(b), max(b) FROM t GROUP BY a", "SELECT b, count(*), sum(a), max(a) FROM t GROUP BY b"
	check(before)
	wire := handle(before)
	if err := ms.EvolveTable("s", "t", []metastore.Column{cols[1], cols[0]}); err != nil {
		t.Fatal(err)
	}
	if got := handle(after); got != wire {
		t.Fatalf("fixture: after the swap the handle reads\n%s\nnot\n%s", got, wire)
	}
	check(after)
	check(before)
}

// TestPartialsUnderConcurrentStatements runs H2's shape from several
// goroutines on one connector while a cold memo fills (run it under -race):
// every answer is the one answer.
func TestPartialsUnderConcurrentStatements(t *testing.T) {
	e, _ := hybridEngine(t)
	const h2 = "SELECT country, sum(clicks) AS s, count(*) AS n, max(ts) AS m FROM events GROUP BY country"
	want := joinAggRows(hybridQuery(t, e, h2).Rows())
	cold, rt := hybridEngine(t)
	rt.Maintain(time.Now().Add(time.Hour)) // seal the open segment: age
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := cold.Query(DefaultSession("hybrid", "default"), h2)
				if err != nil {
					errs <- err.Error()
					return
				}
				if got := joinAggRows(res.Rows()); !reflect.DeepEqual(got, want) {
					errs <- fmt.Sprintf("got %v, want %v", got, want)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// H2 through the hybrid table twice: the hive side absorbs the grouped
// aggregation, the druid side's sealed segment is memoised, and both memos'
// hits move on the second run (the engine's registry, which /v1/stats
// serves on a coordinator or worker).
func TestPartialsMemoHitsOnRepeatedH2(t *testing.T) {
	e, rt := hybridEngine(t)
	rt.Maintain(time.Now().Add(time.Hour)) // seal the open segment: age
	if st := rt.Stats(); st.Sealed != 1 || st.Open != 0 {
		t.Fatalf("fixture: segments %+v, want one sealed", st)
	}
	const h2 = "SELECT country, sum(clicks) AS s, count(*) AS n, max(ts) AS m FROM events GROUP BY country"
	plan, err := e.Explain(DefaultSession("hybrid", "default"), h2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hive:web.events_hist") || !strings.Contains(plan, "groupBy=[1]") || !strings.Contains(plan, "aggregationPushdown=") {
		t.Errorf("H2 pushes its aggregation into neither side:\n%s", plan)
	}
	want := joinAggRows(hybridQuery(t, e, h2).Rows())
	hive0, druid0 := partialsGauges(e, "hive"), partialsGauges(e, "druid")
	if hive0["misses"] == 0 || druid0["misses"] == 0 {
		t.Fatalf("the first H2 missed neither memo: hive %v, druid %v", hive0, druid0)
	}
	if got := joinAggRows(hybridQuery(t, e, h2).Rows()); !reflect.DeepEqual(got, want) {
		t.Errorf("second H2 = %v, want %v", got, want)
	}
	hive1, druid1 := partialsGauges(e, "hive"), partialsGauges(e, "druid")
	if hive1["hits"] <= hive0["hits"] || hive1["misses"] != hive0["misses"] {
		t.Errorf("hive.partials: %v, then %v; want hits to move and misses to stay", hive0, hive1)
	}
	if druid1["hits"] <= druid0["hits"] || druid1["misses"] != druid0["misses"] {
		t.Errorf("druid.partials: %v, then %v; want hits to move and misses to stay", druid0, druid1)
	}
	if hive1["bytes"] == 0 || druid1["bytes"] == 0 {
		t.Errorf("resident bytes: hive %v, druid %v", hive1["bytes"], druid1["bytes"])
	}
}

// TestPartialsChargeQueryMemory: the groups a hive split folds from its
// file count against query_max_memory, from a cold memo and from a warm one
// alike, while a global aggregate's one group charges nothing.
func TestPartialsChargeQueryMemory(t *testing.T) {
	ms, fs := footerStatsFiles(t, rand.New(rand.NewSource(1)), parquet.WriterOptions{RowGroupRows: 96})
	conn := hive.New("hive", ms, fs, hive.Options{})
	e := New()
	e.Register("hive", conn)
	capped := DefaultSession("hive", "s")
	capped.Properties["query_max_memory"] = "16"
	const grouped = "SELECT s, count(*), max(n) FROM t GROUP BY s"
	refused := func(memo string) {
		t.Helper()
		var insufficient execution.ErrInsufficientResources
		_, err := e.Query(capped, grouped)
		if !errors.As(err, &insufficient) || !strings.Contains(insufficient.Operator, "connector") {
			t.Errorf("%s memo: %s under query_max_memory=16: err = %v, want the scan's split refused", memo, grouped, err)
		}
	}
	refused("cold")
	if _, err := e.Query(capped, "SELECT count(*), max(s) FROM t"); err != nil {
		t.Errorf("global aggregate under query_max_memory=16: %v", err)
	}
	partialsRows(t, e, DefaultSession("hive", "s"), grouped) // fills the memo
	warm := partialsGauges(e, "hive")
	if warm["bytes"] == 0 {
		t.Fatalf("fixture: the uncapped run memoised nothing: %v", warm)
	}
	refused("warm")
	if g := partialsGauges(e, "hive"); g["hits"] <= warm["hits"] {
		t.Errorf("the warm run hit no memoised partial: %v, then %v", warm, g)
	}
	// On a worker, too: the coordinator ships the cap with the task.
	_, err := partialsCluster(t, conn).Query(&planner.Session{Catalog: "hive", Schema: "s", User: "test", Properties: map[string]string{"query_max_memory": "16"}}, grouped)
	if err == nil || !strings.Contains(err.Error(), "failed on") || !strings.Contains(err.Error(), "Insufficient Resources") {
		t.Errorf("cluster: %s under query_max_memory=16: err = %v, want a worker task refused for memory", grouped, err)
	}
}

// A pushed druid GROUP BY comes back from the store whole: its groups count
// against the query's memory before the scan hands a page on, so a cap
// refuses one over a unique column, while a global aggregate's one row and
// the same GROUP BY uncapped pass.
func TestDruidAggregateChargesQueryMemory(t *testing.T) {
	store := druid.NewStore()
	tab, err := store.CreateTable("events", []druid.Column{{Name: "id", Type: types.Bigint}, {Name: "clicks", Type: types.Bigint}})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for i := 0; i < 200; i++ {
		rows = append(rows, []any{int64(i), int64(i % 7)})
	}
	if err := tab.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Register("druid", druidconn.New("druid", &druid.EmbeddedClient{Store: store}))
	capped := DefaultSession("druid", "default")
	capped.Properties["query_max_memory"] = "16"
	const grouped = "SELECT id, count(*), sum(clicks) FROM events GROUP BY id"
	var insufficient execution.ErrInsufficientResources
	if _, err := e.Query(capped, grouped); !errors.As(err, &insufficient) || !strings.Contains(insufficient.Operator, "connector") {
		t.Errorf("%s under query_max_memory=16: err = %v, want the scan's split refused", grouped, err)
	}
	if _, err := e.Query(capped, "SELECT count(*), max(clicks) FROM events"); err != nil {
		t.Errorf("global aggregate under query_max_memory=16: %v", err)
	}
	if got := partialsRows(t, e, DefaultSession("druid", "default"), grouped); len(got) != len(rows) {
		t.Errorf("uncapped: %d groups, want %d", len(got), len(rows))
	}
}
