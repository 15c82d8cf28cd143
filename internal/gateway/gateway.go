// Package gateway implements cluster federation (§VIII): a presto gateway
// that redirects incoming queries to specific clusters based on user and
// group, with the user/group → cluster mapping stored in MySQL (the
// mysqlite substrate) so administrators can dynamically re-route any traffic
// to any cluster — e.g. draining a cluster for maintenance or upgrade with
// no downtime.
//
// The gateway uses HTTP redirect (307) rather than proxying: the lesson of
// §XII.B is that a general proxying gateway becomes the bottleneck, while a
// redirecting gateway lets clients connect directly to each cluster.
//
// Routes may also target the LeastLoaded sentinel ("any") instead of a named
// cluster: the gateway then polls each enabled coordinator's /v1/stats and
// redirects to the cluster with the fewest outstanding queries, spreading
// interactive load across the fleet. The Sticky sentinel ("sticky") instead
// rendezvous-hashes the client's session key over the enabled clusters, so a
// dashboard's repeated statements keep landing on the cluster whose result
// and chunk caches they warmed, falling back deterministically when that
// cluster is unhealthy.
package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prestolite/internal/cluster"
	"prestolite/internal/fault"
	"prestolite/internal/mysqlite"
	"prestolite/internal/obs"
	"prestolite/internal/types"
)

// Rule kinds, matched in priority order: user rules beat group rules beat
// the default.
const (
	KindUser    = "user"
	KindGroup   = "group"
	KindDefault = "default"
)

// LeastLoaded is a sentinel route target: instead of naming one cluster, the
// route sends the principal to whichever enabled cluster currently has the
// fewest outstanding queries. The gateway learns the load by polling each
// coordinator's GET /v1/stats (the queries_outstanding gauge), cached for
// loadTTL so a burst of queries doesn't turn into a burst of stats polls.
const LeastLoaded = "any"

// Sticky is a sentinel route target for cache-affinity routing: the gateway
// rendezvous-hashes the client's session key (the X-Presto-Session header,
// falling back to the user) over the enabled clusters and redirects to the
// highest-ranked healthy one. A dashboard that reuses its session key thus
// keeps hitting the same cluster — whose coordinator result cache and worker
// chunk caches stay warm for exactly its queries — while an unhealthy,
// saturated or draining preferred cluster degrades deterministically to the
// next cluster in hash order (counted as gateway_sticky_fallbacks).
const Sticky = "sticky"

// defaultLoadTTL bounds how stale a cached cluster load may be.
const defaultLoadTTL = 250 * time.Millisecond

// resubmitBudget caps how many times /v1/execute resubmits one idempotent
// statement onto another cluster before giving up; everything else gets
// exactly one attempt.
const resubmitBudget = 3

// maxErrorBytes bounds what /v1/execute reads and relays of a coordinator's
// answer that is not a result: its error text.
const maxErrorBytes = 4096

// breakerThreshold is the consecutive-failure count that opens a cluster's
// circuit.
const breakerThreshold = 3

// Gateway routes query traffic.
type Gateway struct {
	db *mysqlite.DB

	http *http.Server
	ln   net.Listener
	addr string

	// Redirects counts issued redirects (for tests/monitoring).
	Redirects atomic.Int64

	// LoadTTL bounds how stale a cached cluster load may be.
	LoadTTL time.Duration

	// BreakerCooldown is how long a cluster's circuit stays open before
	// admitting a probe (0 = default 1s).
	BreakerCooldown time.Duration

	// loadMu guards the per-cluster outstanding-query cache.
	loadMu    sync.Mutex
	loads     map[string]clusterLoad // addr -> last polled load
	statsHTTP *http.Client
	stmtHTTP  *http.Client

	// breakMu guards the per-cluster circuit breakers (keyed by address).
	breakMu  sync.Mutex
	breakers map[string]*Breaker

	obs             *obs.Registry
	failovers       *obs.Counter
	resubmissions   *obs.Counter
	stickyRoutes    *obs.Counter
	stickyFallbacks *obs.Counter

	// clock drives the load-cache TTL checks; injected via ClientConfig so
	// chaos replay controls gateway staleness decisions too.
	clock fault.Clock
}

type clusterLoad struct {
	outstanding float64
	saturated   bool // admission queues full: a submission now gets a 429
	draining    bool // coordinator in graceful drain: refuses new statements
	fetched     time.Time
	ok          bool
}

// ErrAllSaturated: every reachable cluster's admission queues are full. The
// gateway answers 429 + Retry-After instead of bouncing the client between
// coordinators that would each reject it anyway.
var ErrAllSaturated = errors.New("gateway: all reachable clusters are saturated")

// New creates a gateway backed by a fresh routing database, with default
// client settings.
func New() (*Gateway, error) {
	return NewWithConfig(cluster.ClientConfig{})
}

// NewWithConfig creates a gateway whose health/load polls use cfg — the same
// ClientConfig the coordinator uses, so chaos tests inject one transport
// everywhere and timeouts are never inline literals.
func NewWithConfig(cfg cluster.ClientConfig) (*Gateway, error) {
	cfg = cfg.WithDefaults()
	db := mysqlite.New()
	if _, err := db.CreateTable("clusters", []mysqlite.Column{
		{Name: "name", Type: types.Varchar},
		{Name: "addr", Type: types.Varchar},
		{Name: "enabled", Type: types.Bigint},
	}, "name"); err != nil {
		return nil, err
	}
	if _, err := db.CreateTable("routes", []mysqlite.Column{
		{Name: "principal", Type: types.Varchar}, // "user:alice", "group:etl", "default"
		{Name: "cluster", Type: types.Varchar},
	}, "principal"); err != nil {
		return nil, err
	}
	g := &Gateway{
		db:        db,
		LoadTTL:   defaultLoadTTL,
		loads:     map[string]clusterLoad{},
		statsHTTP: cfg.StatsHTTPClient(),
		stmtHTTP:  cfg.StatementHTTPClient(),
		breakers:  map[string]*Breaker{},
		clock:     cfg.Clock,
		obs:       obs.NewRegistry(),
	}
	g.failovers = g.obs.Counter("gateway_failovers")
	g.resubmissions = g.obs.Counter("gateway_resubmissions")
	g.stickyRoutes = g.obs.Counter("gateway_sticky_routes")
	g.stickyFallbacks = g.obs.Counter("gateway_sticky_fallbacks")
	g.obs.GaugeFunc("redirects", func() float64 { return float64(g.Redirects.Load()) })
	return g, nil
}

// Obs exposes the gateway's metrics registry (gateway_failovers, redirects).
func (g *Gateway) Obs() *obs.Registry { return g.obs }

// AddCluster registers a cluster coordinator address, wiring up its circuit
// breaker and the breaker_state.<name> gauge (0 = closed, 1 = half-open,
// 2 = open). Re-registering a cluster overwrites the gauge in place.
func (g *Gateway) AddCluster(name, addr string) error {
	if err := g.db.Upsert("clusters", []any{name, addr, int64(1)}); err != nil {
		return err
	}
	b := g.breakerFor(addr)
	g.obs.GaugeFunc("breaker_state."+name, func() float64 { return float64(b.State()) })
	return nil
}

// breakerFor returns (lazily creating) the breaker guarding addr.
func (g *Gateway) breakerFor(addr string) *Breaker {
	g.breakMu.Lock()
	defer g.breakMu.Unlock()
	b, ok := g.breakers[addr]
	if !ok {
		b = NewBreaker(breakerThreshold, g.BreakerCooldown, g.clock)
		g.breakers[addr] = b
	}
	return b
}

// SetClusterEnabled marks a cluster in or out of rotation.
func (g *Gateway) SetClusterEnabled(name string, enabled bool) error {
	row, ok, err := g.db.GetByPK("clusters", name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("gateway: cluster %q is not registered", name)
	}
	e := int64(0)
	if enabled {
		e = 1
	}
	return g.db.Upsert("clusters", []any{row[0], row[1], e})
}

// SetRoute maps a principal ("user:alice", "group:growth", "default") to a
// cluster name.
func (g *Gateway) SetRoute(principal, cluster string) error {
	return g.db.Upsert("routes", []any{principal, cluster})
}

// ResolveSession resolves with an explicit session key for sticky routes; an
// empty key falls back to the user, so session-less clients still stick
// per-user instead of scattering.
func (g *Gateway) ResolveSession(user, group, session string) (string, error) {
	for _, principal := range []string{"user:" + user, "group:" + group, "default"} {
		row, ok, err := g.db.GetByPK("routes", principal)
		if err != nil {
			return "", err
		}
		if !ok {
			continue
		}
		cluster := row[1].(string)
		if cluster == LeastLoaded {
			return g.leastLoadedCluster()
		}
		if cluster == Sticky {
			key := session
			if key == "" {
				key = user
			}
			return g.stickyCluster(key)
		}
		crow, ok, err := g.db.GetByPK("clusters", cluster)
		if err != nil {
			return "", err
		}
		if !ok {
			return "", fmt.Errorf("gateway: route %s points at unknown cluster %q", principal, cluster)
		}
		if crow[2].(int64) == 0 {
			// Cluster drained: fall through to the next principal (group or
			// default), achieving no-downtime maintenance.
			continue
		}
		return g.healthyAddr(candidate{name: cluster, addr: crow[1].(string)})
	}
	return "", fmt.Errorf("gateway: no route for user %q group %q", user, group)
}

// candidate is one enabled cluster, at its place in the order a route wants
// the clusters tried.
type candidate struct{ name, addr string }

// candidates lists the enabled clusters by name — the order every route's
// own order starts from, so each choice is deterministic.
func (g *Gateway) candidates() ([]candidate, error) {
	rows, err := g.db.Scan("clusters", nil, nil, -1)
	if err != nil {
		return nil, err
	}
	var out []candidate
	for _, row := range rows {
		if row[2].(int64) != 0 {
			out = append(out, candidate{name: row[0].(string), addr: row[1].(string)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// walk is the one pass every routing decision makes: it polls the candidates
// in order and offers take each one that can be sent a statement now — its
// coordinator answers, its admission queues have room, it is not draining —
// until take accepts one. When none is accepted the error says whether any
// was reachable: ErrAllSaturated (handleStatement maps it to 429 +
// Retry-After) or plain unreachable.
func (g *Gateway) walk(order []candidate, take func(pos int, c candidate, load clusterLoad) bool) error {
	sawReachable := false
	for pos, c := range order {
		load := g.pollCluster(c.addr)
		if !load.ok {
			continue
		}
		sawReachable = true
		if load.saturated || load.draining {
			continue
		}
		if take(pos, c, load) {
			return nil
		}
	}
	if sawReachable {
		return ErrAllSaturated
	}
	return errors.New("gateway: no enabled cluster is reachable")
}

// healthyAddr returns the routed cluster's address when it can take the
// statement, and otherwise fails the principal over to the next enabled
// cluster that can (by name order, for determinism; counted in
// gateway_failovers). A routed cluster whose coordinator is down — or whose
// admission queues are full and would answer only 429 — thus costs one
// redirect elsewhere, not an error back to the client.
func (g *Gateway) healthyAddr(primary candidate) (string, error) {
	// The routed cluster alone first: the common case reads no cluster table.
	err := g.walk([]candidate{primary}, func(int, candidate, clusterLoad) bool { return true })
	if err == nil {
		return primary.addr, nil
	}
	rest, cerr := g.candidates()
	if cerr != nil {
		return "", cerr
	}
	rest = slices.DeleteFunc(rest, func(c candidate) bool { return c.name == primary.name })
	var addr string
	if rerr := g.walk(rest, func(_ int, c candidate, _ clusterLoad) bool { addr = c.addr; return true }); rerr == nil {
		g.failovers.Inc()
		return addr, nil
	} else if !errors.Is(err, ErrAllSaturated) {
		err = rerr // the routed cluster was not even reachable: the others decide
	}
	return "", fmt.Errorf("%w (routed to %q)", err, primary.name)
}

// leastLoadedCluster picks the cluster with the fewest outstanding queries
// among those that can take a statement; ties break by cluster name.
func (g *Gateway) leastLoadedCluster() (string, error) {
	order, err := g.candidates()
	if err != nil {
		return "", err
	}
	best, bestLoad := "", 0.0
	err = g.walk(order, func(_ int, c candidate, load clusterLoad) bool {
		if best == "" || load.outstanding < bestLoad {
			best, bestLoad = c.addr, load.outstanding
		}
		return false // look at every cluster
	})
	if best == "" {
		return "", err
	}
	return best, nil
}

// stickyScore rendezvous-hashes one session key against one cluster name —
// the same highest-random-weight scheme the coordinator uses for split
// affinity, so a cluster joining or leaving only remaps the sessions that
// hashed onto it.
func stickyScore(key, name string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))  // hash.Hash never errors
	_, _ = h.Write([]byte{0})    // separator: ("ab","c") must differ from ("a","bc")
	_, _ = h.Write([]byte(name)) // hash.Hash never errors
	return h.Sum64()
}

// stickyCluster redirects a session key to its highest-ranked enabled cluster
// that can take a statement. Hash rank — not load — decides, so the same key
// lands on the same cluster as long as that cluster stays healthy; only then
// does the session fall down its own deterministic preference list
// (gateway_sticky_fallbacks counts those degradations).
func (g *Gateway) stickyCluster(key string) (string, error) {
	order, err := g.candidates()
	if err != nil {
		return "", err
	}
	// Stable over the name order, so equal scores rank by name.
	sort.SliceStable(order, func(i, j int) bool { return stickyScore(key, order[i].name) > stickyScore(key, order[j].name) })
	var addr string
	err = g.walk(order, func(pos int, c candidate, _ clusterLoad) bool {
		if pos == 0 {
			g.stickyRoutes.Inc()
		} else {
			g.stickyFallbacks.Inc()
		}
		addr = c.addr
		return true
	})
	return addr, err
}

// pollCluster returns a cluster's load snapshot (outstanding queries and
// admission saturation), polling its /v1/stats endpoint at most once per
// LoadTTL.
func (g *Gateway) pollCluster(addr string) clusterLoad {
	g.loadMu.Lock()
	cached, ok := g.loads[addr]
	g.loadMu.Unlock()
	if ok && g.clock.Now().Sub(cached.fetched) < g.LoadTTL {
		return cached
	}
	load := clusterLoad{fetched: g.clock.Now()}
	if resp, err := g.statsHTTP.Get("http://" + addr + "/v1/stats"); err == nil {
		var snap struct {
			Gauges map[string]float64
		}
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&snap) == nil {
			load.outstanding = snap.Gauges["queries_outstanding"]
			load.saturated = snap.Gauges["admission_saturated"] > 0
			load.draining = snap.Gauges["coordinator_draining"] > 0
			load.ok = true
		}
		_ = resp.Body.Close() // best-effort: the load snapshot is already decoded
	}
	g.loadMu.Lock()
	g.loads[addr] = load
	g.loadMu.Unlock()
	return load
}

// Start serves the gateway on addr.
func (g *Gateway) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("gateway: listen: %w", err)
	}
	g.ln = ln
	g.addr = ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/statement", g.handleStatement)
	mux.HandleFunc("/v1/execute", g.handleExecute)
	mux.HandleFunc("/v1/stats", g.handleStats)
	g.http = &http.Server{Handler: mux}
	go g.http.Serve(ln)
	return nil
}

// Addr returns the gateway address.
func (g *Gateway) Addr() string { return g.addr }

// Close stops the server.
func (g *Gateway) Close() error {
	if g.http != nil {
		return g.http.Close()
	}
	return nil
}

// handleStats serves the gateway's metrics registry as JSON, mirroring the
// coordinator and worker /v1/stats endpoints.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(g.obs.Snapshot().JSON()) // best-effort: client hung up mid-snapshot
}

// handleStatement issues a 307 redirect to the resolved cluster. 307
// preserves the method and body, so the client's POST replays against the
// coordinator directly.
func (g *Gateway) handleStatement(w http.ResponseWriter, r *http.Request) {
	user := r.Header.Get("X-Presto-User")
	group := r.Header.Get("X-Presto-Group")
	target, err := g.ResolveSession(user, group, r.Header.Get("X-Presto-Session"))
	if err != nil {
		if errors.Is(err, ErrAllSaturated) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	g.Redirects.Add(1)
	http.Redirect(w, r, "http://"+target+"/v1/statement", http.StatusTemporaryRedirect)
}

// IsIdempotentStatement reports whether a statement may be replayed on
// another cluster without risking duplicate effects. Reads (SELECT, WITH)
// and plan renderings (EXPLAIN) qualify; anything else gets exactly one
// attempt.
func IsIdempotentStatement(query string) bool {
	q := strings.ToUpper(strings.TrimSpace(query))
	return strings.HasPrefix(q, "SELECT") ||
		strings.HasPrefix(q, "EXPLAIN") ||
		strings.HasPrefix(q, "WITH")
}

// handleExecute is the proxying front end with transparent resubmission:
// unlike /v1/statement's redirect, the gateway forwards the statement
// itself, and when the target cluster fails mid-flight for an availability
// reason — coordinator drain or no worker to run on (503 +
// X-Presto-Retryable), or abrupt process death (transport error) — it
// replays the identical statement onto the next healthy cluster, bounded by
// resubmitBudget. Only idempotent statements resubmit; failures trip the
// per-cluster circuit breaker so a down cluster stops consuming budget.
//
// A 200 answer is relayed as it arrives, not read whole first, so
// resubmission ends where the answer starts: a coordinator that dies in the
// middle of one aborts the client's connection (a transport error, never a
// shorter answer) and counts against its breaker.
//
// The §XII.B lesson that a proxying gateway becomes the bottleneck is why
// /v1/statement (redirect) stays the default path; /v1/execute is for
// clients that want the gateway to absorb rolling restarts for them.
func (g *Gateway) handleExecute(w http.ResponseWriter, r *http.Request) {
	req, body, ok := cluster.ReadStatement(w, r)
	if !ok {
		return
	}
	user := r.Header.Get("X-Presto-User")
	group := r.Header.Get("X-Presto-Group")
	session := r.Header.Get("X-Presto-Session")

	attempts := 1
	if IsIdempotentStatement(req.Query) {
		attempts = 1 + resubmitBudget
	}
	tried := map[string]bool{}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		addr, err := g.executeTarget(user, group, session, tried)
		if err != nil {
			lastErr = err
			break
		}
		tried[addr] = true
		if attempt > 0 {
			g.resubmissions.Inc()
		}
		br := g.breakerFor(addr)
		resp, err := g.forward(addr, body, user, group, session)
		if err != nil {
			// Transport failure: the coordinator process is gone or
			// unreachable. Trip the breaker and resubmit elsewhere.
			br.Failure()
			lastErr = fmt.Errorf("cluster %s: %w", addr, err)
			continue
		}
		if resp.StatusCode == http.StatusOK {
			err := relay(w, resp)
			_ = resp.Body.Close() // read to its end or to its error; relay decided
			if err != nil {
				// The answer's first bytes may have gone out: the client can
				// be given no other answer, and a short one must not read as
				// one. Abort the connection, so the client sees a transport
				// error, and blame the cluster.
				br.Failure()
				panic(http.ErrAbortHandler)
			}
			br.Success()
			return
		}
		detail, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBytes)) // best-effort error detail
		_ = resp.Body.Close()                                             // the rest of an error body is dropped
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("X-Presto-Retryable") == "true" {
			// The coordinator refused for availability reasons (drain, no
			// active worker): safe to replay verbatim on the next cluster.
			br.Failure()
			lastErr = fmt.Errorf("cluster %s: %s", addr, strings.TrimSpace(string(detail)))
			continue
		}
		// The coordinator answered with a verdict on the statement itself
		// (planning error, admission 429): relay it — resubmitting would not
		// change it, and it is not the cluster's fault.
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(detail) // best-effort error relay
		return
	}
	w.Header().Set("Retry-After", "1")
	msg := "gateway: statement could not be placed on any cluster"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// executeTarget picks the next cluster for one /v1/execute attempt: the
// routed target first, then the remaining enabled clusters in name order —
// skipping already-tried addresses, clusters that cannot take a statement and
// open circuit breakers.
func (g *Gateway) executeTarget(user, group, session string, tried map[string]bool) (string, error) {
	if addr, err := g.ResolveSession(user, group, session); err == nil && !tried[addr] && g.breakerFor(addr).Allow() {
		return addr, nil
	}
	all, err := g.candidates()
	if err != nil {
		return "", err
	}
	var order []candidate
	for _, c := range all {
		if !tried[c.addr] {
			order = append(order, c)
		}
	}
	var addr string
	err = g.walk(order, func(_ int, c candidate, _ clusterLoad) bool {
		// Asked last, of a cluster that already looks usable: Allow on an open
		// circuit consumes the half-open probe slot.
		addr = c.addr
		return g.breakerFor(c.addr).Allow()
	})
	return addr, err
}

// forward replays the statement document against one coordinator. The
// caller closes the response's body.
func (g *Gateway) forward(addr string, body []byte, user, group, session string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/statement", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Presto-User", user)
	req.Header.Set("X-Presto-Group", group)
	if session != "" {
		req.Header.Set("X-Presto-Session", session)
	}
	return g.stmtHTTP.Do(req)
}

// relay copies a coordinator's answer to the client as it arrives, with the
// length the coordinator announced, so the gateway holds a copy buffer of
// the answer and never all of it. It returns the error of reading the
// answer; a client that hangs up is not the cluster's fault.
func relay(w http.ResponseWriter, resp *http.Response) error {
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	src := &answerReader{r: resp.Body}
	_, _ = io.Copy(w, src) // a failed write is the client's; src keeps a failed read
	return src.err
}

// answerReader keeps the error of reading a coordinator's answer.
type answerReader struct {
	r   io.Reader
	err error
}

func (a *answerReader) Read(p []byte) (int, error) {
	n, err := a.r.Read(p)
	if err != nil && err != io.EOF {
		a.err = err
	}
	return n, err
}

// Client executes statements through the gateway's proxying /v1/execute
// endpoint, letting the gateway absorb coordinator drains and deaths via
// transparent resubmission. (cluster.Client against /v1/statement remains
// the redirect-following path.)
type Client struct {
	Addr string
	HTTP *http.Client
}

// NewClient targets a gateway with the default client configuration.
func NewClient(addr string) *Client {
	cfg := cluster.DefaultClientConfig()
	return &Client{Addr: addr, HTTP: cfg.StatementHTTPClient()}
}

// Execute runs one statement via the gateway, carrying the identity headers
// routing keys on.
func (cl *Client) Execute(req cluster.StatementRequest, user, group string) (*cluster.QueryResult, error) {
	return cl.ExecuteSession(req, user, group, "")
}

// ExecuteSession additionally carries a session key so sticky routes pin the
// statement to the cluster whose caches this session warmed.
func (cl *Client) ExecuteSession(req cluster.StatementRequest, user, group, session string) (*cluster.QueryResult, error) {
	return cluster.PostStatement(cl.HTTP, "http://"+cl.Addr+"/v1/execute", req, user, group, session)
}
