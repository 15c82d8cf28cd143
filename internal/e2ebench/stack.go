package e2ebench

import (
	"fmt"
	"net/http"
	"time"

	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/druid"
	"prestolite/internal/fsys"
	"prestolite/internal/gateway"
)

// node is one cluster: a coordinator and its workers, all in this process
// and all listening on loopback ports, so every hop is a real HTTP + gob
// round trip.
type node struct {
	coord   *cluster.Coordinator
	workers []*cluster.Worker
}

// stack is what a workload runs against: a gateway in front of one or more
// clusters, plus the handles the counter snapshots read.
type stack struct {
	gw    *gateway.Gateway
	nodes []*node
	// hives are every hive connector instance in the stack (one per
	// coordinator and worker, each with its own §VII caches).
	hives []*hive.Connector
	// fs is the hive warehouse's storage and druid the embedded real-time
	// store (nil without one); the traced pass calls into both directly.
	fs    fsys.FileSystem
	druid *druid.Store
	// closers run at teardown, after the servers stop.
	closers []func()
	// counters adds the workload's own sources (hdfs, druid, ingest) to the
	// snapshot taken by snapshot().
	counters func(c map[string]float64)
}

type clusterOptions struct {
	// workerPort is the first worker's loopback port; the others follow it.
	// The coordinator places splits by rendezvous-hashing worker addresses,
	// so ephemeral ports would deal every run a different split balance —
	// a whole-run noise source that has nothing to do with the code under
	// test — and scanChunkCacheSize was sized for this placement. A taken
	// port therefore fails the run. 0 asks for ephemeral ports (tests, where
	// no number is reported).
	workerPort    int
	workers       int
	resultCache   bool
	fragmentCache bool
}

// pinnedPort is the first worker port of a full-scale stack, and 0 (ephemeral
// ports) at test scale, where parallel test processes must not collide.
func pinnedPort(cfg Config, port int) int {
	if cfg.Tiny {
		return 0
	}
	return port
}

// startNode starts one cluster. registry is called once per process-to-be
// (the coordinator, then each worker), so a workload can hand every process
// its own connector instances — and with them its own caches, as separate
// machines would have.
func (s *stack) startNode(registry func() *connector.Registry, o clusterOptions) (*node, error) {
	n := &node{coord: cluster.NewCoordinator(registry())}
	s.nodes = append(s.nodes, n)
	// An unlimited pool: no admission control, but every query gets a memory
	// context, so QueryInfo carries its peak reservation.
	if err := n.coord.ConfigureResources(cluster.ResourceConfig{}); err != nil {
		return nil, err
	}
	if o.resultCache {
		n.coord.EnableResultCache(256, 64<<20, time.Hour)
	}
	if err := n.coord.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i := 0; i < o.workers; i++ {
		w := cluster.NewWorker(registry())
		w.EnableFragmentResultCache = o.fragmentCache
		addr := "127.0.0.1:0"
		if o.workerPort != 0 {
			addr = fmt.Sprintf("127.0.0.1:%d", o.workerPort+i)
		}
		if err := w.Start(addr); err != nil {
			return nil, fmt.Errorf("worker %d of cluster %d: %w", i, len(s.nodes)-1, err)
		}
		n.workers = append(n.workers, w)
		n.coord.AddWorker(w.Addr())
	}
	return n, nil
}

// startGateway fronts the started clusters with a gateway whose default
// route is the given target (a cluster name, or gateway.Sticky).
func (s *stack) startGateway(route string) error {
	gw, err := gateway.New()
	if err != nil {
		return err
	}
	s.gw = gw
	for i, n := range s.nodes {
		if err := gw.AddCluster(clusterName(i), n.coord.Addr()); err != nil {
			return err
		}
	}
	if err := gw.SetRoute("default", route); err != nil {
		return err
	}
	return gw.Start("127.0.0.1:0")
}

func clusterName(i int) string { return fmt.Sprintf("c%d", i) }

// close stops every server and then runs the workload's closers. The HTTP
// servers' Close waits for their listeners; nothing outlives it.
func (s *stack) close() {
	if s.gw != nil {
		_ = s.gw.Close() // teardown: nothing left to report a close error to
	}
	for _, n := range s.nodes {
		_ = n.coord.Close() // teardown
		for _, w := range n.workers {
			_ = w.Close() // teardown
		}
	}
	for _, fn := range s.closers {
		fn()
	}
}

// newClient returns a gateway client with a connection pool of its own, so
// each load-generator goroutine keeps exactly one HTTP connection.
func (s *stack) newClient() *gateway.Client {
	return &gateway.Client{
		Addr: s.gw.Addr(),
		HTTP: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
	}
}

// snapshot reads every public counter the per-layer "W" metrics are deltas
// of. It is called twice, around the untraced measured window, and touches
// nothing but atomics and registry snapshots.
func (s *stack) snapshot() map[string]float64 {
	c := map[string]float64{}
	gw := s.gw.Obs().Snapshot()
	c["gw.sticky_fallbacks"] = float64(gw.Counters["gateway_sticky_fallbacks"])
	c["gw.resubmissions"] = float64(gw.Counters["gateway_resubmissions"])
	c["gw.failovers"] = float64(gw.Counters["gateway_failovers"])
	for _, n := range s.nodes {
		snap := n.coord.Obs().Snapshot()
		c["coord.submitted"] += float64(snap.Counters["queries_submitted"])
		c["coord.task_retries"] += float64(snap.Counters["task_retries"])
		c["coord.rpc_retries"] += float64(snap.Counters["rpc_retries"])
		c["coord.hedged_fetches"] += float64(snap.Counters["hedged_fetches"])
		c["coord.affinity_placed"] += float64(snap.Counters["splits_affinity_placed"])
		c["coord.affinity_overflow"] += float64(snap.Counters["splits_affinity_overflow"])
		if hits, ok := snap.Gauges["coordinator.cache.result.hits"]; ok { // registered by EnableResultCache
			c["result.hits"] += hits
			c["result.misses"] += snap.Gauges["coordinator.cache.result.misses"]
			c["result.uncacheable"] += float64(snap.Counters["coordinator.cache.result.uncacheable"])
		}
		for _, w := range n.workers {
			c["worker.tasks_started"] += float64(w.Obs.Snapshot().Counters["tasks_started"])
			if w.EnableFragmentResultCache {
				c["fragment.hits"] += float64(w.FragmentCacheHits.Load())
			}
		}
	}
	for _, h := range s.hives {
		chunk, footer, list := h.ChunkCacheMetrics(), h.FooterCacheMetrics(), h.FileListCacheMetrics()
		c["chunk.hits"] += float64(chunk.Hits.Load())
		c["chunk.misses"] += float64(chunk.Misses.Load())
		c["chunk.evictions"] += float64(chunk.Evictions.Load())
		c["footer.hits"] += float64(footer.Hits.Load())
		c["footer.misses"] += float64(footer.Misses.Load())
		c["filelist.hits"] += float64(list.Hits.Load())
		c["filelist.misses"] += float64(list.Misses.Load())
	}
	if s.counters != nil {
		s.counters(c)
	}
	return c
}
