package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"prestolite/internal/execution"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
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

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&StatementRequest{
		Query: chaosQueries[1], Catalog: "hive", Schema: "tpch", User: "chaos",
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+coord.Addr()+"/v1/statement", "application/x-gob", &buf)
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
