package gateway

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"prestolite/internal/cluster"
	"prestolite/internal/fault"
)

func TestBreakerTransitions(t *testing.T) {
	clock := fault.NewManualClock(time.Unix(1000, 0))
	b := NewBreaker(2, time.Second, clock)

	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("fresh breaker must be closed and allowing")
	}
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("one failure below threshold must not open")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("threshold failures must open the circuit")
	}
	if b.Allow() {
		t.Fatal("open breaker must refuse before the cooldown")
	}

	clock.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed: one probe must be admitted")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("only one probe may be in flight during half-open")
	}

	// Failed probe: re-open for another full cooldown.
	b.Failure()
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed probe must re-open the circuit")
	}
	clock.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("second cooldown elapsed: probe again")
	}
	// Successful probe closes it, and the failure count starts over.
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful probe must close the circuit")
	}
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("failure count must reset on close")
	}
}

func TestIsIdempotentStatement(t *testing.T) {
	for _, q := range []string{
		"SELECT 1",
		"  select cluster FROM whoami",
		"EXPLAIN SELECT 1",
		"WITH t AS (SELECT 1) SELECT * FROM t",
	} {
		if !IsIdempotentStatement(q) {
			t.Errorf("%q should be idempotent", q)
		}
	}
	for _, q := range []string{"INSERT INTO t VALUES (1)", "DROP TABLE t", ""} {
		if IsIdempotentStatement(q) {
			t.Errorf("%q should not be idempotent", q)
		}
	}
}

// TestExecuteResubmitsAcrossDrain: the routed cluster enters its graceful
// drain mid-window — after the gateway's health poll cached it as healthy —
// so the statement lands on the draining coordinator, bounces with the
// retryable 503, and /v1/execute replays it onto the other cluster. The
// client sees rows, not an error; gateway_resubmissions and the drained
// cluster's breaker record the event.
func TestExecuteResubmitsAcrossDrain(t *testing.T) {
	gw, dedicated, _ := newGateway(t)
	// Freeze the load cache: the drain below must stay invisible to the
	// health poll, forcing the resubmission path (rather than the routing
	// failover) to absorb it.
	gw.LoadTTL = time.Hour
	cl := NewClient(gw.Addr())
	prime := cluster.StatementRequest{Query: "SELECT cluster FROM whoami", Catalog: "memory", Schema: "meta", User: "alice"}
	if _, err := cl.Execute(prime, "alice", ""); err != nil {
		t.Fatalf("priming execute: %v", err)
	}

	// Drain alice's dedicated cluster. DrainGrace is irrelevant here (no
	// in-flight queries); the latch flips before GracefulDrain returns.
	dedicated.DrainGrace = 10 * time.Millisecond
	if err := dedicated.GracefulDrain(); err != nil {
		t.Fatal(err)
	}

	res, err := cl.Execute(cluster.StatementRequest{
		Query:   "SELECT cluster FROM whoami",
		Catalog: "memory",
		Schema:  "meta",
		User:    "alice",
	}, "alice", "")
	if err != nil {
		t.Fatalf("execute during drain: %v", err)
	}
	rows, err := res.Rows()
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
	if got := rows[0][0].(string); got != "shared" {
		t.Fatalf("served by %q, want the shared cluster", got)
	}
	snap := gw.Obs().Snapshot()
	if snap.Counters["gateway_resubmissions"] < 1 {
		t.Fatalf("gateway_resubmissions = %d, want >= 1", snap.Counters["gateway_resubmissions"])
	}
	if _, ok := snap.Gauges["breaker_state.dedicated"]; !ok {
		t.Fatal("breaker_state.dedicated gauge missing")
	}
}

// TestExecuteDoesNotResubmitNonIdempotent: a statement that could have side
// effects gets exactly one attempt — a draining target means an error, not
// a silent replay.
func TestExecuteDoesNotResubmitNonIdempotent(t *testing.T) {
	gw, dedicated, _ := newGateway(t)
	dedicated.DrainGrace = 10 * time.Millisecond
	if err := dedicated.GracefulDrain(); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(gw.Addr())
	_, err := cl.Execute(cluster.StatementRequest{
		Query:   "INSERT INTO whoami VALUES ('x')",
		Catalog: "memory",
		Schema:  "meta",
		User:    "alice",
	}, "alice", "")
	if err == nil {
		t.Fatal("non-idempotent statement against a draining cluster must fail")
	}
	if got := gw.Obs().Snapshot().Counters["gateway_resubmissions"]; got != 0 {
		t.Fatalf("gateway_resubmissions = %d, want 0", got)
	}
}

// TestExecuteRelaysStatementErrors: a planning error from the coordinator is
// the statement's own fault — relayed verbatim, never resubmitted, and it
// does not trip the breaker.
func TestExecuteRelaysStatementErrors(t *testing.T) {
	gw, dedicated, _ := newGateway(t)
	cl := NewClient(gw.Addr())
	_, err := cl.Execute(cluster.StatementRequest{
		Query:   "SELECT FROM FROM FROM",
		Catalog: "memory",
		Schema:  "meta",
		User:    "alice",
	}, "alice", "")
	if err == nil {
		t.Fatal("syntax error must surface")
	}
	if !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("error = %v, want the coordinator's 400 relayed", err)
	}
	if got := gw.Obs().Snapshot().Counters["gateway_resubmissions"]; got != 0 {
		t.Fatalf("gateway_resubmissions = %d, want 0", got)
	}
	if gw.breakerFor(dedicated.Addr()).State() != BreakerClosed {
		t.Fatal("a statement error must not trip the cluster's breaker")
	}
}

// TestExecuteRefusesOversizedStatement: /v1/execute reads the statement the
// way a coordinator does — a document past the bound is refused 413 whole
// (it used to be cut at the bound and then fail to decode, a 400), and a body
// that is no statement is a 400. Neither reaches a cluster.
func TestExecuteRefusesOversizedStatement(t *testing.T) {
	gw, _, _ := newGateway(t)
	_, err := NewClient(gw.Addr()).Execute(cluster.StatementRequest{
		Query:   "SELECT cluster FROM whoami WHERE cluster <> '" + strings.Repeat("x", 2<<20) + "'",
		Catalog: "memory",
		Schema:  "meta",
	}, "alice", "")
	if err == nil || !strings.Contains(err.Error(), "status 413") {
		t.Fatalf("a 2 MiB statement: %v, want status 413", err)
	}
	resp, err := http.Post("http://"+gw.Addr()+"/v1/execute", "application/octet-stream", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a body that is no statement: %s, want 400", resp.Status)
	}
	if got := gw.Obs().Snapshot().Counters["gateway_resubmissions"]; got != 0 {
		t.Fatalf("gateway_resubmissions = %d, want 0", got)
	}
}

// TestExecuteResubmitsOffWorkerlessCluster: the routed cluster's coordinator
// is up and plans the statement but has no worker to run it. That is the
// cluster's condition, not the statement's, so the coordinator answers the
// retryable 503 and /v1/execute replays the statement on the healthy cluster;
// a statement the gateway cannot prove idempotent still gets one attempt, and
// a planning error is still the statement's own 400.
func TestExecuteResubmitsOffWorkerlessCluster(t *testing.T) {
	c0 := startClusterWithWorkers(t, "c0", 0)
	c1 := startCluster(t, "c1")
	gw, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]string{{"c0", c0.Addr()}, {"c1", c1.Addr()}} {
		if err := gw.AddCluster(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.SetRoute("default", "c0"); err != nil {
		t.Fatal(err)
	}
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	resubmissions := func() int64 { return gw.Obs().Snapshot().Counters["gateway_resubmissions"] }

	cl := NewClient(gw.Addr())
	req := cluster.StatementRequest{Query: "SELECT cluster FROM whoami", Catalog: "memory", Schema: "meta", User: "bob"}
	res, err := cl.Execute(req, "bob", "")
	if err != nil {
		t.Fatalf("execute routed to a worker-less cluster: %v", err)
	}
	rows, err := res.Rows()
	if err != nil || len(rows) != 1 || rows[0][0] != "c1" {
		t.Fatalf("rows = %v, %v; want one row served by c1", rows, err)
	}
	if got := resubmissions(); got != 1 {
		t.Fatalf("gateway_resubmissions = %d, want 1", got)
	}

	// The leading comment hides the SELECT from IsIdempotentStatement.
	req.Query = "-- tile 7\nSELECT cluster FROM whoami"
	if _, err := cl.Execute(req, "bob", ""); err == nil || !strings.Contains(err.Error(), "no active workers") {
		t.Fatalf("statement not known to be idempotent: err = %v, want c0's refusal", err)
	}
	req.Query = "SELECT nope FROM whoami"
	if _, err := cl.Execute(req, "bob", ""); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("planning error: err = %v, want the coordinator's 400 relayed", err)
	}
	if got := resubmissions(); got != 1 {
		t.Fatalf("gateway_resubmissions = %d after two statements that must not resubmit, want 1", got)
	}
	if got := c1.Obs().Snapshot().Counters["queries_submitted"]; got != 1 {
		t.Fatalf("c1 queries_submitted = %d, want 1", got)
	}
}

// TestExecuteBreakerOpensOnDeadCluster: repeated transport failures against
// a killed coordinator open its circuit, and while it is open the gateway
// stops offering that cluster resubmission attempts.
func TestExecuteBreakerOpensOnDeadCluster(t *testing.T) {
	dedicated := startCluster(t, "dedicated")
	shared := startCluster(t, "shared")
	gw, err := New()
	if err != nil {
		t.Fatal(err)
	}
	// Breaker knobs must be set before AddCluster creates the breakers.
	gw.BreakerCooldown = time.Hour // stays open for the rest of the test
	gw.LoadTTL = time.Hour         // death below stays invisible to health polls
	for _, c := range [][2]string{{"dedicated", dedicated.Addr()}, {"shared", shared.Addr()}} {
		if err := gw.AddCluster(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.SetRoute("user:alice", "dedicated"); err != nil {
		t.Fatal(err)
	}
	if err := gw.SetRoute("default", "shared"); err != nil {
		t.Fatal(err)
	}
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })

	cl := NewClient(gw.Addr())
	req := cluster.StatementRequest{Query: "SELECT cluster FROM whoami", Catalog: "memory", Schema: "meta", User: "alice"}
	// Prime the health cache while the cluster is alive, then kill it.
	if _, err := cl.Execute(req, "alice", ""); err != nil {
		t.Fatalf("priming execute: %v", err)
	}
	deadAddr := dedicated.Addr()
	dedicated.Close() // simulated SIGKILL: connection refused from now on

	for i := 0; i < 3; i++ {
		if _, err := cl.Execute(req, "alice", ""); err != nil {
			t.Fatalf("execute %d: %v (the shared cluster should absorb it)", i, err)
		}
	}
	if st := gw.breakerFor(deadAddr).State(); st != BreakerOpen {
		t.Fatalf("dead cluster breaker = %v, want open", st)
	}
	// With the circuit open the routed target is skipped up front: the next
	// statement should not spend a resubmission on the corpse.
	before := gw.Obs().Snapshot().Counters["gateway_resubmissions"]
	if _, err := cl.Execute(req, "alice", ""); err != nil {
		t.Fatal(err)
	}
	after := gw.Obs().Snapshot().Counters["gateway_resubmissions"]
	if after != before {
		t.Fatalf("resubmissions grew %d -> %d: open breaker must preempt the doomed attempt", before, after)
	}
}
