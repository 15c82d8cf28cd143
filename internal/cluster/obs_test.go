package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestQueryInfoAggregation: a multi-worker query leaves behind a QueryInfo
// with ordered lifecycle timestamps and per-stage operator statistics merged
// across both workers' tasks.
func TestQueryInfoAggregation(t *testing.T) {
	coord, _ := newCluster(t, newCatalogs(t), 2)
	q := "SELECT city_id, count(*) AS n FROM trips GROUP BY city_id"
	res, err := coord.Query(session(), q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}

	infos := coord.QueryInfos()
	if len(infos) != 1 {
		t.Fatalf("QueryInfos = %d entries", len(infos))
	}
	qi := infos[0]
	if qi.State != QueryFinished {
		t.Fatalf("state = %s (err %q)", qi.State, qi.Error)
	}
	if qi.Query != q || qi.User != "test" || qi.Rows != 5 {
		t.Errorf("qi = %+v", qi)
	}
	if qi.Queued.IsZero() || qi.Planning.Before(qi.Queued) ||
		qi.Running.Before(qi.Planning) || qi.Finished.Before(qi.Running) {
		t.Errorf("timestamps out of order: %v %v %v %v", qi.Queued, qi.Planning, qi.Running, qi.Finished)
	}

	if len(qi.Stages) != 2 {
		t.Fatalf("stages = %+v", qi.Stages)
	}
	root, src := qi.Stages[0], qi.Stages[1]
	if root.FragmentID != 0 || root.Tasks != 1 || len(root.Operators) == 0 {
		t.Errorf("root stage = %+v", root)
	}
	if src.Tasks != 2 || len(src.Workers) != 2 || src.TableKey == "" {
		t.Errorf("source stage = %+v", src)
	}
	// The scan read all 80 rows, merged across the two workers' tasks.
	var sawScan bool
	for _, op := range src.Operators {
		if strings.HasPrefix(op.Name, "TableScan") {
			sawScan = true
			if op.RowsOut != 80 || op.Tasks != 2 {
				t.Errorf("scan stats = %+v", op)
			}
		}
		if op.RowsOut == 0 {
			t.Errorf("operator %s recorded no rows", op.Name)
		}
	}
	if !sawScan {
		t.Errorf("no TableScan operator in %+v", src.Operators)
	}

	// Cluster metrics moved with the query.
	snap := coord.Obs().Snapshot()
	if snap.Counters["queries_submitted"] != 1 || snap.Counters["queries_finished"] != 1 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Gauges["queries_outstanding"] != 0 {
		t.Errorf("outstanding = %v", snap.Gauges["queries_outstanding"])
	}
	if snap.Histograms["query_wall"].Count != 1 {
		t.Errorf("query_wall = %+v", snap.Histograms["query_wall"])
	}
}

// TestQueryInfoFailedQuery: a failing query lands in the ring as FAILED with
// its error, and the failure counter moves.
func TestQueryInfoFailedQuery(t *testing.T) {
	coord, _ := newCluster(t, newCatalogs(t), 1)
	if _, err := coord.Query(session(), "SELECT nope FROM trips"); err == nil {
		t.Fatal("expected error")
	}
	infos := coord.QueryInfos()
	if len(infos) != 1 || infos[0].State != QueryFailed || infos[0].Error == "" {
		t.Fatalf("infos = %+v", infos)
	}
	if n := coord.Obs().Snapshot().Counters["queries_failed"]; n != 1 {
		t.Errorf("queries_failed = %d", n)
	}
}

// TestRemoveWorkerAbortsInflight: removing a worker aborts its in-flight
// tasks so readers fail immediately with a descriptive error instead of
// hanging until the HTTP timeout against a vanished node.
func TestRemoveWorkerAbortsInflight(t *testing.T) {
	coord := NewCoordinator(newCatalogs(t))
	w := &workerClient{addr: "10.255.255.1:8080", http: http.DefaultClient} // unreachable on purpose
	coord.mu.Lock()
	coord.workers[w.addr] = w
	coord.mu.Unlock()

	th := &taskHandle{worker: w, taskID: "q1.f1.t0", req: TaskRequest{TaskID: "q1.f1.t0"}}
	coord.trackTask(th)
	coord.RemoveWorker(w.addr)

	op := &remoteSourceOperator{c: coord, qs: newQueryState(&coord.cfg), tasks: []*taskHandle{th}}
	_, err := op.Next()
	if err == nil {
		t.Fatal("expected abort error")
	}
	want := "worker 10.255.255.1:8080 was removed from the cluster with task q1.f1.t0 in flight"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v", err)
	}

	coord.mu.Lock()
	defer coord.mu.Unlock()
	if len(coord.inflight) != 0 {
		t.Errorf("inflight not cleaned: %v", coord.inflight)
	}
}

// TestDistributedExplainAnalyze is the acceptance check: EXPLAIN ANALYZE over
// a 2-worker cluster returns every fragment's plan annotated with nonzero
// actual row counts and timings, and GET /v1/query/{id} serves the same
// statistics as JSON.
func TestDistributedExplainAnalyze(t *testing.T) {
	coord, workers := newCluster(t, newCatalogs(t), 2)
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	res, err := coord.Query(session(),
		"EXPLAIN ANALYZE SELECT city_id, count(*) AS n FROM trips GROUP BY city_id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "Query Plan" {
		t.Fatalf("columns = %v", res.Columns)
	}
	rows, err := res.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	text := rows[0][0].(string)

	if !strings.Contains(text, "Fragment 0 (coordinator):") {
		t.Errorf("missing coordinator fragment:\n%s", text)
	}
	if !strings.Contains(text, "2 tasks):") {
		t.Errorf("missing source fragment task count:\n%s", text)
	}
	// Every operator line is annotated, with nonzero rows and timings.
	planLines, statLines := 0, 0
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "- ") {
			planLines++
		}
		if strings.HasPrefix(trimmed, "rows: ") {
			statLines++
		}
	}
	if planLines == 0 || planLines != statLines {
		t.Fatalf("plan lines = %d, stat lines = %d:\n%s", planLines, statLines, text)
	}
	if strings.Contains(text, "rows: 0 in, 0 out") {
		t.Errorf("operator with no recorded rows:\n%s", text)
	}
	if !strings.Contains(text, "rows: 80 in, 80 out") {
		t.Errorf("merged scan row count missing:\n%s", text)
	}
	if !strings.Contains(text, "tasks: 2") {
		t.Errorf("merged task count missing:\n%s", text)
	}
	if !regexp.MustCompile(`wall: [1-9][0-9.]*(ns|µs|ms|s)`).MatchString(text) {
		t.Errorf("no nonzero wall times:\n%s", text)
	}
	// Hive footer-cache gauges registered on the coordinator show up.
	if !strings.Contains(text, "Cache:") || !strings.Contains(text, "hive.cache.") {
		t.Errorf("cache footer missing:\n%s", text)
	}

	// So do the hive reader's work gauges, and a worker's /v1/stats serves
	// them: 80 rows scanned, one leaf (city_id) decoded per row group.
	if !strings.Contains(text, "Reader:") || !strings.Contains(text, "hive.reader.rows_scanned: 80\n") {
		t.Errorf("reader footer missing:\n%s", text)
	}
	wresp, err := http.Get("http://" + workers[0].Addr() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	var wsnap struct{ Gauges map[string]float64 }
	if err := json.NewDecoder(wresp.Body).Decode(&wsnap); err != nil {
		t.Fatal(err)
	}
	if rg := wsnap.Gauges["hive.reader.row_groups_read"]; rg == 0 || wsnap.Gauges["hive.reader.leaves_decoded"] != rg {
		t.Errorf("worker /v1/stats reader gauges = %v", wsnap.Gauges)
	}

	// Nothing was configured, and the query was accounted all the same: the
	// plan ends in the coordinator pool's footer, and each worker's pool held
	// its partial aggregation's groups and gave them back when the task
	// ended, keeping only its output frames until they are acknowledged.
	if !regexp.MustCompile(`\nMemory: peak [1-9]\d* B, spilled 0 B\n$`).MatchString(text) {
		t.Errorf("plan does not end in a memory footer with a nonzero peak:\n%s", text)
	}
	if reserved, ok := wsnap.Gauges["pool_reserved_bytes"]; !ok || reserved != float64(unacknowledged(workers[0])) {
		t.Errorf("worker pool_reserved_bytes = %v (present: %v) after its tasks ended, want the %d bytes of frames awaiting acknowledgement", reserved, ok, unacknowledged(workers[0]))
	}
	for _, w := range workers {
		if w.pool.Peak() == 0 {
			t.Errorf("worker %s ran a grouped task and its pool never moved", w.Addr())
		}
	}

	// /v1/query/{id} serves the same stats as JSON.
	local := coord.QueryInfos()[0]
	resp, err := http.Get("http://" + coord.Addr() + "/v1/query/" + local.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /v1/query/%s: %d %s", local.ID, resp.StatusCode, body)
	}
	var remote QueryInfo
	if err := json.NewDecoder(resp.Body).Decode(&remote); err != nil {
		t.Fatal(err)
	}
	if remote.ID != local.ID || remote.State != QueryFinished {
		t.Fatalf("remote = %+v", remote)
	}
	if !reflect.DeepEqual(remote.Stages, local.Stages) {
		t.Errorf("stage stats over HTTP differ:\nlocal  %+v\nremote %+v", local.Stages, remote.Stages)
	}
}

// TestCoordinatorQueryEndpoints: /v1/query lists recent queries most recent
// first and /v1/stats serves the cluster metrics snapshot.
func TestCoordinatorQueryEndpoints(t *testing.T) {
	coord, _ := newCluster(t, newCatalogs(t), 1)
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	for i := 0; i < 3; i++ {
		if _, err := coord.Query(session(), fmt.Sprintf("SELECT %d", i)); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get("http://" + coord.Addr() + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []QueryInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[0].Query != "SELECT 2" || list[2].Query != "SELECT 0" {
		t.Fatalf("list = %+v", list)
	}

	resp2, err := http.Get("http://" + coord.Addr() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var snap struct {
		Counters map[string]int64
		Gauges   map[string]float64
	}
	if err := json.NewDecoder(resp2.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["queries_finished"] != 3 {
		t.Errorf("stats = %+v", snap)
	}
	if _, ok := snap.Gauges["queries_outstanding"]; !ok {
		t.Errorf("no outstanding gauge: %+v", snap)
	}
}

// TestQueryLogEviction: the ring keeps only the newest entries.
func TestQueryLogEviction(t *testing.T) {
	l := newQueryLog(2)
	for i := 0; i < 5; i++ {
		l.add(&QueryInfo{ID: fmt.Sprintf("q%d", i)})
	}
	got := l.list()
	if len(got) != 2 || got[0].ID != "q4" || got[1].ID != "q3" {
		t.Fatalf("list = %+v", got)
	}
	if _, ok := l.get("q0"); ok {
		t.Error("q0 not evicted")
	}
}

// TestOperatorNamesRenderedOnRead: tasks record operator statistics by id
// alone, and the coordinator names them from the fragments' plans when they
// are read. For a distributed join under an aggregate, the EXPLAIN ANALYZE
// plan text and the QueryInfo operator names are those of the eager
// rendering this replaced, byte for byte (the statistics, which vary with
// the drivers and the split placement, and the footers are left out; each
// operator still has its statistics line).
func TestOperatorNamesRenderedOnRead(t *testing.T) {
	coord, _ := newCluster(t, newCatalogs(t), 2)
	const q = "SELECT c.name, count(*) AS n, sum(t.fare) AS f FROM trips t JOIN memory.meta.cities c ON t.city_id = c.city_id GROUP BY c.name ORDER BY c.name"
	res, err := coord.Query(session(), "EXPLAIN ANALYZE "+q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Rows()
	if err != nil {
		t.Fatal(err)
	}
	text := rows[0][0].(string)
	text = text[:strings.Index(text, "Cache:")]
	text = regexp.MustCompile(`(?m)^( *)rows: .*$`).ReplaceAllString(text, "${1}rows:")
	const wantText = `Fragment 0 (coordinator):
- Output[name, n, f]
  rows:
    - Sort[name]
      rows:
        - Project[name := $group0, n := $agg0, f := $agg1]
          rows:
            - Aggregate(FINAL)[keys=[name]; count(*) := count(count(*)), sum(t.fare) := sum(sum(t.fare))]
              rows:
                - Project[name := c.name, count(*) := count(*), sum(t.fare) := sum(t.fare)]
                  rows:
                    - INNERJoin[city_id = city_id]
                      rows:
                        - RemoteSource[fragment 1]
                          rows:
                        - RemoteSource[fragment 2]
                          rows:
Fragment 1 (source, table hive.rawdata.trips, 2 tasks):
- Aggregate(PARTIAL)[keys=[city_id]; count(*) := count(*), sum(t.fare) := sum(fare)]
  rows:
    - TableScan[hive.rawdata.trips, hive:rawdata.trips] => [city_id, fare]
      rows:
Fragment 2 (source, table memory.meta.cities, 1 tasks):
- TableScan[memory.meta.cities, memory:meta.cities] => [city_id, name]
  rows:
`
	if text != wantText {
		t.Errorf("EXPLAIN ANALYZE plan text:\n%s\nwant\n%s", text, wantText)
	}

	var names []string
	for _, st := range coord.QueryInfos()[0].Stages {
		for _, op := range st.Operators {
			names = append(names, fmt.Sprintf("%d %d %s", st.FragmentID, op.ID, op.Name))
		}
	}
	wantNames := []string{
		"0 0 Output[name, n, f]",
		"0 1 Sort[name]",
		"0 2 Project[name := $group0, n := $agg0, f := $agg1]",
		"0 3 Aggregate(FINAL)[keys=[name]; count(*) := count(count(*)), sum(t.fare) := sum(sum(t.fare))]",
		"0 4 Project[name := c.name, count(*) := count(*), sum(t.fare) := sum(t.fare)]",
		"0 5 INNERJoin[city_id = city_id]",
		"0 6 RemoteSource[fragment 1]",
		"0 7 RemoteSource[fragment 2]",
		"1 0 Aggregate(PARTIAL)[keys=[city_id]; count(*) := count(*), sum(t.fare) := sum(fare)]",
		"1 1 TableScan[hive.rawdata.trips, hive:rawdata.trips] => [city_id, fare]",
		"2 0 TableScan[memory.meta.cities, memory:meta.cities] => [city_id, name]",
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("QueryInfo operator names:\n%s\nwant\n%s", strings.Join(names, "\n"), strings.Join(wantNames, "\n"))
	}
}
