package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"prestolite/internal/core"
	"prestolite/internal/execution"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/sql"
)

// sessionWith builds a chaos session carrying extra session properties.
func sessionWith(props map[string]string) *planner.Session {
	s := chaosSession()
	for k, v := range props {
		s.Properties[k] = v
	}
	return s
}

// TestSpillTurnsFailureIntoCompletion is the PR's acceptance criterion in
// miniature: a query whose working set exceeds its per-query cap fails typed
// with spill disabled, and completes with identical rows — visibly spilling —
// once spill_enabled is on (the default).
func TestSpillTurnsFailureIntoCompletion(t *testing.T) {
	coordClean, _ := chaosCluster(t, chaosCatalogs(t, nil), 3, ClientConfig{})
	want := mustRows(t, coordClean, chaosMemQueries[0])

	coord, _ := chaosCluster(t, chaosCatalogs(t, nil), 3, ClientConfig{})
	if err := coord.ConfigureResources(ResourceConfig{
		MemoryLimit: 1 << 20,
		SpillDir:    t.TempDir(),
	}); err != nil {
		t.Fatal(err)
	}
	props := map[string]string{"query_max_memory": "32768"}

	// Spill off: the cap is a hard wall.
	props["spill_enabled"] = "false"
	_, err := coord.Query(sessionWith(props), chaosMemQueries[0])
	var insufficient execution.ErrInsufficientResources
	if !errors.As(err, &insufficient) {
		t.Fatalf("with spill disabled, err = %v, want ErrInsufficientResources", err)
	}
	if !errors.Is(err, resource.ErrPoolExhausted) {
		t.Fatalf("cause should be pool exhaustion, got %v", err)
	}

	// Spill on: the same query under the same cap completes identically.
	props["spill_enabled"] = "true"
	got := mustRows(t, coord, chaosMemQueries[0]) // sanity: default session also fine
	if got != want {
		t.Fatalf("uncapped rows diverged\ngot  %s\nwant %s", got, want)
	}
	res, err := coord.Query(sessionWith(props), chaosMemQueries[0])
	if err != nil {
		t.Fatalf("with spill enabled: %v", err)
	}
	rows, err := res.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rows); got != want {
		t.Fatalf("spilled rows diverged\ngot  %s\nwant %s", got, want)
	}

	// The round trip is visible in the query's observability record.
	infos := coord.QueryInfos()
	qi := infos[0] // most recent first
	if qi.SpilledBytes <= 0 {
		t.Errorf("SpilledBytes = %d, want > 0", qi.SpilledBytes)
	}
	if qi.PeakMemoryBytes <= 0 || qi.PeakMemoryBytes > 32768 {
		t.Errorf("PeakMemoryBytes = %d, want in (0, 32768]", qi.PeakMemoryBytes)
	}
	if n := counter(coord, "spills"); n < 1 {
		t.Errorf("spills counter = %d, want >= 1", n)
	}
	if runs := coord.res.spill.LiveRuns(); len(runs) != 0 {
		t.Errorf("leaked spill runs: %v", runs)
	}
}

// TestExplainAnalyzeMemoryFooter: EXPLAIN ANALYZE on a resource-configured
// coordinator reports the query's peak reservation and spilled bytes.
func TestExplainAnalyzeMemoryFooter(t *testing.T) {
	coord, _ := chaosCluster(t, chaosCatalogs(t, nil), 3, ClientConfig{})
	if err := coord.ConfigureResources(ResourceConfig{SpillDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	props := map[string]string{"query_max_memory": "32768"}
	res, err := coord.Query(sessionWith(props), "EXPLAIN ANALYZE "+chaosMemQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Rows()
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
	text := rows[0][0].(string)
	if !strings.Contains(text, "Memory: peak ") || !strings.Contains(text, "spilled ") {
		t.Fatalf("EXPLAIN ANALYZE missing memory footer:\n%s", text)
	}
	if strings.Contains(text, "spilled 0 B") {
		t.Fatalf("capped query reported no spill:\n%s", text)
	}
}

// TestStatementQueueFull429: the HTTP front end maps the typed queue-full
// rejection to 429 Too Many Requests with a Retry-After header — what the
// gateway (and well-behaved clients) key off.
func TestStatementQueueFull429(t *testing.T) {
	coord, _ := chaosCluster(t, chaosCatalogs(t, nil), 1, ClientConfig{})
	if err := coord.ConfigureResources(ResourceConfig{
		Groups: []resource.GroupConfig{{Name: "drained", MaxConcurrency: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	stmt := StatementRequest{Query: chaosQueries[1], Catalog: "hive", Schema: "tpch", User: "chaos"}
	resp, err := http.Post("http://"+coord.Addr()+"/v1/statement", "application/octet-stream", bytes.NewReader(stmt.encode()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if n := counter(coord, "admission_rejects"); n != 1 {
		t.Errorf("admission_rejects = %d, want 1", n)
	}
}

// TestQueryMaxMemoryValidation: a malformed query_max_memory fails the query
// up front with a clear error instead of being silently ignored.
func TestQueryMaxMemoryValidation(t *testing.T) {
	coord, _ := chaosCluster(t, chaosCatalogs(t, nil), 1, ClientConfig{})
	if err := coord.ConfigureResources(ResourceConfig{}); err != nil {
		t.Fatal(err)
	}
	_, err := coord.Query(sessionWith(map[string]string{"query_max_memory": "lots"}), chaosQueries[1])
	if err == nil || !strings.Contains(err.Error(), "query_max_memory") {
		t.Fatalf("err = %v, want query_max_memory parse error", err)
	}
}

// TestQueryMaxMemoryWithNothingConfigured: no ConfigureResources, no worker
// MemoryLimit, no Engine.Mem — and query_max_memory still bounds a join's build
// side, typed, wherever the join runs: every operator tree runs in a pool.
func TestQueryMaxMemoryWithNothingConfigured(t *testing.T) {
	const join = "SELECT count(*) FROM trips a JOIN trips b ON a.city_id = b.city_id"
	reg := newCatalogs(t)
	coord, workers := newCluster(t, reg, 2)
	engine := core.New()
	engine.Catalogs = reg

	// The worker row hands a worker the whole join as one task, the way the
	// coordinator hands it a source fragment.
	workerTask := func(s *planner.Session) error {
		stmt, err := sql.Parse(join)
		if err != nil {
			return err
		}
		plan, err := planner.PlanQuery(reg, s, stmt.(*sql.Query))
		if err != nil {
			return err
		}
		props, err := s.ExecProperties()
		if err != nil {
			return err
		}
		n := plan
		for len(n.Children()) > 0 {
			n = n.Children()[0]
		}
		scan := n.(*planner.TableScan)
		hive, err := reg.Get("hive")
		if err != nil {
			return err
		}
		splits, err := hive.SplitManager().Splits(scan.Handle)
		if err != nil {
			return err
		}
		task := newWorkerTask()
		workers[0].runTask(&TaskRequest{
			TaskID: "join", Fragment: plan, TableKey: "hive.rawdata.trips", Splits: splits, MaxMemory: props.MaxMemory,
		}, nil, task)
		task.free() // nobody fetches it: released at once
		return task.err
	}
	for _, tc := range []struct {
		name string
		run  func(*planner.Session) error
	}{
		{"engine", func(s *planner.Session) error { _, err := engine.Query(s, join); return err }},
		{"coordinator root", func(s *planner.Session) error { _, err := coord.Query(s, join); return err }},
		{"worker task", workerTask},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(session()); err != nil {
				t.Fatalf("uncapped: %v", err)
			}
			capped := session()
			capped.Properties["query_max_memory"] = "16"
			var insufficient execution.ErrInsufficientResources
			if err := tc.run(capped); !errors.As(err, &insufficient) || insufficient.Limit != 16 {
				t.Fatalf("query_max_memory=16: err = %v, want ErrInsufficientResources with limit 16", err)
			}
		})
	}

	// And the coordinator ships the cap with the tasks it schedules: a grouped
	// aggregation's partial step runs out inside a worker.
	capped := session()
	capped.Properties["query_max_memory"] = "16"
	_, err := coord.Query(capped, "SELECT city_id, count(*) FROM trips GROUP BY city_id")
	if err == nil || !strings.Contains(err.Error(), "failed on") || !strings.Contains(err.Error(), "Insufficient Resources") {
		t.Fatalf("grouped query under query_max_memory=16: err = %v, want a worker task refused for memory", err)
	}
	for _, w := range workers {
		if got, frames := w.pool.Reserved(), unacknowledged(w); got != frames {
			t.Errorf("worker %s still holds %d bytes, %d of them frames awaiting acknowledgement", w.Addr(), got, frames)
		}
	}
}

// TestRequestBodiesAreBounded: the two handlers that read a request document
// stop reading at their limit and answer 413; a short body that is no
// document is still a 400.
func TestRequestBodiesAreBounded(t *testing.T) {
	reg := newCatalogs(t)
	coord, workers := newCluster(t, reg, 1)
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	frag, splits := sourceFragment(t, reg, "SELECT city_id FROM hive.rawdata.trips")
	for _, tc := range []struct {
		url  string
		huge []byte
	}{
		{"http://" + coord.Addr() + "/v1/statement", (&StatementRequest{Query: strings.Repeat("x", maxStatementBytes)}).encode()},
		{"http://" + workers[0].Addr() + "/v1/task", (&TaskRequest{TaskID: strings.Repeat("x", maxTaskBytes), Fragment: frag.Root, TableKey: frag.TableKey, Splits: splits}).encode()},
	} {
		for body, want := range map[*bytes.Buffer]int{
			bytes.NewBuffer(tc.huge):      http.StatusRequestEntityTooLarge,
			bytes.NewBufferString("junk"): http.StatusBadRequest,
		} {
			size := body.Len()
			resp, err := http.Post(tc.url, "application/octet-stream", body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s: a %d-byte body answered %s, want %d", tc.url, size, resp.Status, want)
			}
		}
	}
	if n := workers[0].activeTaskCount(); n != 0 {
		t.Errorf("the refused task requests left %d tasks on the worker", n)
	}
}
