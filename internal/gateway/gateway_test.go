package gateway

import (
	"net/http"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	"prestolite/internal/connectors/memory"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// startCluster creates a one-worker cluster whose memory catalog carries a
// marker value so tests can see which cluster served a query.
func startCluster(t *testing.T, marker string) *cluster.Coordinator {
	return startClusterWithWorkers(t, marker, 1)
}

func startClusterWithWorkers(t *testing.T, marker string, workers int) *cluster.Coordinator {
	t.Helper()
	mem := memory.New("memory")
	if err := mem.CreateTable("meta", "whoami", []connector.Column{
		{Name: "cluster", Type: types.Varchar},
	}, []*block.Page{block.NewPage(block.FromValues(types.Varchar, marker))}); err != nil {
		t.Fatal(err)
	}
	reg := connector.NewRegistry()
	reg.Register("memory", mem)
	coord := cluster.NewCoordinator(reg)
	for i := 0; i < workers; i++ {
		w := cluster.NewWorker(reg)
		w.GracePeriod = 10 * time.Millisecond
		if err := w.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		coord.AddWorker(w.Addr())
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

func askVia(t *testing.T, gw *Gateway, user, group string) string {
	t.Helper()
	client := cluster.NewClient(gw.Addr())
	res, err := client.QueryWithIdentity(cluster.StatementRequest{
		Query:   "SELECT cluster FROM whoami",
		Catalog: "memory",
		Schema:  "meta",
		User:    user,
	}, user, group)
	if err != nil {
		t.Fatalf("query via gateway as %s/%s: %v", user, group, err)
	}
	rows, err := res.Rows()
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
	return rows[0][0].(string)
}

func newGateway(t *testing.T) (*Gateway, *cluster.Coordinator, *cluster.Coordinator) {
	t.Helper()
	dedicated := startCluster(t, "dedicated")
	shared := startCluster(t, "shared")
	gw, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.AddCluster("dedicated", dedicated.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := gw.AddCluster("shared", shared.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := gw.SetRoute("user:alice", "dedicated"); err != nil {
		t.Fatal(err)
	}
	if err := gw.SetRoute("group:growth", "dedicated"); err != nil {
		t.Fatal(err)
	}
	if err := gw.SetRoute("default", "shared"); err != nil {
		t.Fatal(err)
	}
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return gw, dedicated, shared
}

func TestRoutingByUserAndGroup(t *testing.T) {
	gw, _, _ := newGateway(t)
	if got := askVia(t, gw, "alice", ""); got != "dedicated" {
		t.Errorf("alice routed to %s", got)
	}
	if got := askVia(t, gw, "bob", "growth"); got != "dedicated" {
		t.Errorf("growth group routed to %s", got)
	}
	if got := askVia(t, gw, "bob", "etl"); got != "shared" {
		t.Errorf("bob routed to %s", got)
	}
	if gw.Redirects.Load() != 3 {
		t.Errorf("redirects = %d", gw.Redirects.Load())
	}
}

func TestDynamicRerouting(t *testing.T) {
	gw, _, _ := newGateway(t)
	if got := askVia(t, gw, "alice", ""); got != "dedicated" {
		t.Fatalf("alice initially on %s", got)
	}
	// Administrator rewrites the MySQL mapping; traffic moves immediately.
	if err := gw.SetRoute("user:alice", "shared"); err != nil {
		t.Fatal(err)
	}
	if got := askVia(t, gw, "alice", ""); got != "shared" {
		t.Errorf("alice rerouted to %s", got)
	}
}

func TestDrainClusterForMaintenance(t *testing.T) {
	// §VIII: "when we are doing cluster maintenance or software upgrade, we
	// will redirect traffic ... to guarantee no downtime for end users."
	gw, _, _ := newGateway(t)
	if err := gw.SetClusterEnabled("dedicated", false); err != nil {
		t.Fatal(err)
	}
	// Alice's user rule points at the drained cluster; she falls through to
	// the default (shared) with zero failures.
	if got := askVia(t, gw, "alice", ""); got != "shared" {
		t.Errorf("alice during maintenance on %s", got)
	}
	// Maintenance over.
	if err := gw.SetClusterEnabled("dedicated", true); err != nil {
		t.Fatal(err)
	}
	if got := askVia(t, gw, "alice", ""); got != "dedicated" {
		t.Errorf("alice after maintenance on %s", got)
	}
}

func TestResolveErrors(t *testing.T) {
	gw, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.ResolveSession("nobody", "", ""); err == nil {
		t.Error("no routes should fail")
	}
	if err := gw.SetRoute("default", "ghost"); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.ResolveSession("nobody", "", ""); err == nil {
		t.Error("route to unknown cluster should fail")
	}
	if err := gw.SetClusterEnabled("ghost", true); err == nil {
		t.Error("enabling unknown cluster should fail")
	}
}

// TestLeastLoadedRouting: a route targeting the LeastLoaded sentinel spreads
// queries across clusters by their live outstanding-query counts, polled from
// each coordinator's /v1/stats.
func TestLeastLoadedRouting(t *testing.T) {
	dedicated := startCluster(t, "dedicated")
	shared := startCluster(t, "shared")
	gw, err := New()
	if err != nil {
		t.Fatal(err)
	}
	gw.LoadTTL = 0 // always poll live in the test
	if err := gw.AddCluster("dedicated", dedicated.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := gw.AddCluster("shared", shared.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := gw.SetRoute("default", LeastLoaded); err != nil {
		t.Fatal(err)
	}
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })

	// Both idle: the tie breaks deterministically by cluster name.
	if got := askVia(t, gw, "bob", ""); got != "dedicated" {
		t.Fatalf("idle tie routed to %s", got)
	}

	// Pile outstanding queries onto the dedicated cluster; traffic moves to
	// the other one.
	dedicated.Obs().Gauge("queries_outstanding").Add(5)
	if got := askVia(t, gw, "bob", ""); got != "shared" {
		t.Errorf("with dedicated loaded, routed to %s", got)
	}

	// Now the shared cluster is busier; traffic moves back.
	shared.Obs().Gauge("queries_outstanding").Add(9)
	if got := askVia(t, gw, "bob", ""); got != "dedicated" {
		t.Errorf("with shared loaded, routed to %s", got)
	}

	// A drained cluster is excluded even if it is the least loaded.
	if err := gw.SetClusterEnabled("dedicated", false); err != nil {
		t.Fatal(err)
	}
	if got := askVia(t, gw, "bob", ""); got != "shared" {
		t.Errorf("with dedicated drained, routed to %s", got)
	}
}

// TestFailoverToHealthyCluster: a route pointing at an enabled cluster whose
// coordinator is dead fails over to the next enabled reachable cluster
// instead of bouncing the client into a connection error, and the failover is
// visible in the gateway_failovers metric.
func TestFailoverToHealthyCluster(t *testing.T) {
	gw, dedicated, _ := newGateway(t)
	gw.LoadTTL = 0 // always poll live health in the test
	if got := askVia(t, gw, "alice", ""); got != "dedicated" {
		t.Fatalf("alice initially on %s", got)
	}
	if n := gw.Obs().Snapshot().Counters["gateway_failovers"]; n != 0 {
		t.Fatalf("gateway_failovers = %d before any failure", n)
	}

	// The dedicated coordinator dies without any route/enabled change.
	if err := dedicated.Close(); err != nil {
		t.Fatal(err)
	}
	if got := askVia(t, gw, "alice", ""); got != "shared" {
		t.Errorf("alice after coordinator death on %s, want shared", got)
	}
	if n := gw.Obs().Snapshot().Counters["gateway_failovers"]; n < 1 {
		t.Errorf("gateway_failovers = %d, want >= 1", n)
	}
}

// TestFailoverNoSurvivors: the routed cluster is dead and there is no other
// enabled cluster -> a clear error, not a hang or a redirect into the void.
func TestFailoverNoSurvivors(t *testing.T) {
	gw, dedicated, _ := newGateway(t)
	gw.LoadTTL = 0
	if err := gw.SetClusterEnabled("shared", false); err != nil {
		t.Fatal(err)
	}
	if err := dedicated.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.ResolveSession("alice", "", ""); err == nil {
		t.Error("expected error with the primary dead and no enabled survivor")
	}
}

// TestLeastLoadedNoReachableCluster: all clusters down -> a clear error, not
// a hang.
func TestLeastLoadedNoReachableCluster(t *testing.T) {
	gw, err := New()
	if err != nil {
		t.Fatal(err)
	}
	gw.LoadTTL = 0
	if err := gw.AddCluster("ghost", "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := gw.SetRoute("default", LeastLoaded); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.ResolveSession("bob", "", ""); err == nil {
		t.Error("expected error with no reachable clusters")
	}
}

// saturate installs a zero-concurrency admission group on a coordinator, so
// it publishes admission_saturated = 1 on /v1/stats.
func saturate(t *testing.T, coord *cluster.Coordinator) {
	t.Helper()
	if err := coord.ConfigureResources(cluster.ResourceConfig{
		Groups: []resource.GroupConfig{{Name: "drained", MaxConcurrency: 0}},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverSaturatedCluster: a cluster whose admission queues are full
// (admission_saturated on /v1/stats) is skipped like an unhealthy one — the
// query lands on the next enabled cluster instead of bouncing off a 429.
func TestFailoverSaturatedCluster(t *testing.T) {
	gw, dedicated, _ := newGateway(t)
	gw.LoadTTL = 0 // always poll live saturation in the test
	if got := askVia(t, gw, "alice", ""); got != "dedicated" {
		t.Fatalf("alice initially on %s", got)
	}
	saturate(t, dedicated)
	if got := askVia(t, gw, "alice", ""); got != "shared" {
		t.Errorf("alice with dedicated saturated on %s, want shared", got)
	}
}

// TestAllSaturated429: with every reachable cluster saturated the gateway
// answers 429 + Retry-After itself — the client backs off instead of being
// redirected into a guaranteed rejection.
func TestAllSaturated429(t *testing.T) {
	gw, dedicated, shared := newGateway(t)
	gw.LoadTTL = 0
	saturate(t, dedicated)
	saturate(t, shared)

	req, err := http.NewRequest(http.MethodPost, "http://"+gw.Addr()+"/v1/statement", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Presto-User", "alice")
	resp, err := http.DefaultTransport.RoundTrip(req) // no redirect following
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
}
