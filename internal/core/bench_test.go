package core

import (
	"fmt"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/connector"
)

// Intra-task parallelism: driver pipelines over a shared split queue.
//
// The container running CI may have a single CPU, so the headline workload
// models what the paper's §III actually parallelizes on real clusters:
// overlapping *storage waits*. latencySource charges a disaggregated-storage
// read RTT per page, and N drivers overlap N reads — speedup there is
// wait-overlap, not core count. The in-memory variants are CPU-bound and
// reported alongside for honesty: on a single-core host they hover near 1x
// (measuring exchange overhead); on multi-core hosts they scale with cores.

// latencyConnector wraps a connector so every page read costs rtt, modeling
// a remote disaggregated-storage round trip.
type latencyConnector struct {
	connector.Connector
	rtt time.Duration
}

func (c *latencyConnector) RecordSetProvider() connector.RecordSetProvider {
	return &latencyProvider{base: c.Connector.RecordSetProvider(), rtt: c.rtt}
}

type latencyProvider struct {
	base connector.RecordSetProvider
	rtt  time.Duration
}

func (p *latencyProvider) CreatePageSource(h connector.TableHandle, s connector.Split, cols []int) (connector.PageSource, error) {
	src, err := p.base.CreatePageSource(h, s, cols)
	if err != nil {
		return nil, err
	}
	return &latencySource{PageSource: src, rtt: p.rtt}, nil
}

type latencySource struct {
	connector.PageSource
	rtt time.Duration
}

func (s *latencySource) Next() (*block.Page, error) {
	time.Sleep(s.rtt)
	return s.PageSource.Next()
}

func BenchmarkIntraTaskParallelism(b *testing.B) {
	const storageRTT = 400 * time.Microsecond
	workloads := []struct {
		name string
		rtt  time.Duration
		sql  string
	}{
		{name: "storage_scan_agg", rtt: storageRTT, sql: `SELECT l_returnflag, l_linestatus, count(*) AS n, sum(l_quantity) AS q
			FROM lineitem GROUP BY l_returnflag, l_linestatus`},
		{name: "inmem_scan_filter", sql: `SELECT count(*) AS n FROM lineitem WHERE l_quantity < 25.0`},
		{name: "inmem_groupby", sql: `SELECT l_orderkey, l_partkey, count(*) AS n FROM lineitem GROUP BY l_orderkey, l_partkey`},
		{name: "inmem_join", sql: `SELECT count(*) AS n FROM lineitem a JOIN lineitem b ON a.l_orderkey = b.l_orderkey`},
	}
	for _, w := range workloads {
		e := equivEngine(b, 32)
		if w.rtt > 0 {
			hive, err := e.Catalogs.Get("hive")
			if err != nil {
				b.Fatal(err)
			}
			e.Catalogs.Register("hive", &latencyConnector{Connector: hive, rtt: w.rtt})
		}
		for _, drivers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/drivers=%d", w.name, drivers), func(b *testing.B) {
				session := equivSession(drivers)
				for i := 0; i < b.N; i++ {
					if _, err := e.Query(session, w.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
