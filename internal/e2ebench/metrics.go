// Package e2ebench is the repository's single end-to-end benchmark: stack
// builders, statement generators, a closed-loop load generator, oracles and a
// span recorder for four workloads that all enter the system through
// gateway.Client.Execute* (/v1/execute -> coordinator -> workers -> connector
// -> storage). Every end-to-end number is a client-side measurement with raw
// latency samples sorted here; every per-layer number is taken from outside
// the program, as a delta of public counters around the measured window or
// by timing calls into a layer's public functions in a separate traced pass.
// README.md in this directory is the metric catalogue.
package e2ebench

import (
	"fmt"
	"math"
	"sort"
)

// MetricDef names one metric and its unit. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json repeats them for the driver and a
// test keeps the two in step.
type MetricDef struct {
	Name string
	Unit string
	// Bound is the share by which a per-layer metric that is a client-side
	// measurement may differ between two runs of one commit before -selfcheck
	// objects (0 = no bound). BENCHMARK.json has no place for it — the driver
	// bounds end-to-end metrics only, and every workload must emit each of
	// those — so the benchmark enforces it itself.
	Bound float64
}

// EndToEnd lists the metrics a user of the system sees. Every workload
// emits every one of them, and none is ever 0.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "qps", Unit: "1/s"},
	{Name: "query_p50_ms", Unit: "ms"},
	{Name: "query_p95_ms", Unit: "ms"},
}

// PerLayer lists the metrics of single layers (the repo's packages). A
// workload that does not exercise a layer leaves its metrics out of the
// Report; only the driver's result line, which must carry every name, shows
// them as 0.
var PerLayer = []MetricDef{
	// Client-side numbers that only some workloads support, so they cannot
	// be end-to-end metrics (those are emitted by every workload, never 0).
	// Their bounds are the issue's, checked by -selfcheck. failed_share has
	// none here because any failure at all already fails a run.
	{Name: "query_p99_ms", Unit: "ms", Bound: 0.15},
	{Name: "failed_share", Unit: "ratio"},
	{Name: "freshness_p50_ms", Unit: "ms", Bound: 0.10},
	{Name: "freshness_p95_ms", Unit: "ms", Bound: 0.15},
	{Name: "ingest_rows_per_s", Unit: "rows/s", Bound: 0.10},

	{Name: "gateway.execute_ms", Unit: "ms"},
	{Name: "gateway.hop_delta_ms", Unit: "ms"},
	{Name: "gateway.resolve_us", Unit: "us"},
	{Name: "gateway.sticky_fallbacks", Unit: "count"},
	{Name: "gateway.resubmissions", Unit: "count"},
	{Name: "gateway.failovers", Unit: "count"},

	{Name: "cluster.coordinator_http_ms", Unit: "ms"},
	{Name: "cluster.coordinator_direct_ms", Unit: "ms"},
	{Name: "cluster.http_delta_ms", Unit: "ms"},
	{Name: "cluster.distributed_delta_ms", Unit: "ms"},
	{Name: "cluster.queued_ms", Unit: "ms"},
	{Name: "cluster.planning_ms", Unit: "ms"},
	{Name: "cluster.running_ms", Unit: "ms"},
	{Name: "cluster.tasks_per_query", Unit: "count"},
	{Name: "cluster.result_bytes_per_query", Unit: "bytes"},
	{Name: "cluster.task_retries", Unit: "count"},
	{Name: "cluster.rpc_retries", Unit: "count"},
	{Name: "cluster.hedged_fetches", Unit: "count"},
	{Name: "cluster.affinity_first_choice_share", Unit: "ratio"},

	{Name: "sql.parse_us", Unit: "us"},
	{Name: "planner.analyze_us", Unit: "us"},
	{Name: "planner.optimize_us", Unit: "us"},
	{Name: "planner.fragment_us", Unit: "us"},
	{Name: "planner.fragments_per_query", Unit: "count"},

	{Name: "core.embedded_ms", Unit: "ms"},
	{Name: "execution.kernel_ms", Unit: "ms"},

	{Name: "hive.splits_us", Unit: "us"},
	{Name: "hive.splits_per_query", Unit: "count"},
	{Name: "hive.scan_ms", Unit: "ms"},
	{Name: "hive.scan_rows_per_query", Unit: "rows"},
	{Name: "hive.scan_mb_per_s", Unit: "MB/s"},
	{Name: "parquet.decode_mb_per_s", Unit: "MB/s"},

	{Name: "hdfs.list_calls_per_query", Unit: "count"},
	{Name: "hdfs.fileinfo_calls_per_query", Unit: "count"},
	{Name: "hdfs.open_calls_per_query", Unit: "count"},
	{Name: "hdfs.read_bytes_per_query", Unit: "bytes"},

	{Name: "cache.result_hit_share", Unit: "ratio"},
	{Name: "cache.result_uncacheable", Unit: "count"},
	{Name: "cache.fragment_hit_share", Unit: "ratio"},
	{Name: "cache.chunk_hit_share", Unit: "ratio"},
	{Name: "cache.chunk_evictions", Unit: "count"},
	{Name: "cache.footer_hit_share", Unit: "ratio"},
	{Name: "cache.filelist_hit_share", Unit: "ratio"},

	{Name: "block.encode_us_per_page", Unit: "us"},
	{Name: "block.decode_us_per_page", Unit: "us"},
	{Name: "block.encoded_bytes_per_row", Unit: "bytes"},

	{Name: "druid.native_ms", Unit: "ms"},
	{Name: "druid.connector_delta_ms", Unit: "ms"},
	{Name: "druid.segments_open", Unit: "count"},
	{Name: "druid.segments_sealed", Unit: "count"},
	{Name: "druid.seals", Unit: "count"},
	{Name: "druid.compactions", Unit: "count"},

	{Name: "ingest.send_us", Unit: "us"},
	{Name: "ingest.lag_max_rows", Unit: "rows"},
	{Name: "ingest.writer_freshness_p50_ms", Unit: "ms"},
	{Name: "ingest.wal_fsyncs", Unit: "count"},
	{Name: "ingest.wal_bytes_per_event", Unit: "bytes"},
	{Name: "ingest.burst_query_p50_ms", Unit: "ms"},
	{Name: "loadgen.late_p95_ms", Unit: "ms"},

	{Name: "resource.peak_query_mem_mb", Unit: "MB"},
	{Name: "resource.spilled_bytes", Unit: "bytes"},

	{Name: "process.cpu_ms_per_query", Unit: "ms"},
	{Name: "process.alloc_mb_per_query", Unit: "MB"},
	{Name: "process.allocs_per_query", Unit: "count"},
	{Name: "process.gc_pause_ms", Unit: "ms"},
	{Name: "process.heap_peak_mb", Unit: "MB"},

	{Name: "trace.overhead_share", Unit: "ratio"},
	{Name: "trace.unattributed_share", Unit: "ratio"},
}

// Metric is one reported value. Samples is how many measurements stand
// behind it where that is a meaningful count (0 otherwise); it is printed for
// people and left out of the result line.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// metricSet collects values against one of the two catalogues, so a
// misspelt or unlisted name is a bug found on first run, not a silent extra.
type metricSet struct {
	units  map[string]string
	values map[string]Metric
}

func newMetricSet(defs []MetricDef) *metricSet {
	s := &metricSet{units: map[string]string{}, values: map[string]Metric{}}
	for _, d := range defs {
		s.units[d.Name] = d.Unit
	}
	return s
}

func (s *metricSet) set(name string, v float64) { s.setN(name, v, 0) }

// setN records a value that summarizes n measurements.
func (s *metricSet) setN(name string, v float64, n int) {
	unit, ok := s.units[name]
	if !ok {
		panic(fmt.Sprintf("e2ebench: metric %q is not in the catalogue", name))
	}
	if math.IsNaN(v) { // nothing was measured: the metric does not apply to this run
		return
	}
	s.values[name] = Metric{Value: v, Unit: unit, Samples: n}
}

// percentile returns the nearest-rank q-quantile of ascending samples: the
// value below which at least q of the samples fall. No samples give NaN, which
// a metricSet takes as "does not apply".
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts a copy of xs and returns its 0.5-quantile.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// ratio is a/b, or NaN (does not apply) when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
