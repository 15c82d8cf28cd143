// Package obs is the query observability subsystem: lock-cheap metric
// primitives (atomic counters, gauges, fixed-bucket latency histograms) in a
// named registry, snapshottable to JSON, plus per-task operator statistics
// (stats.go). The paper runs Presto "at scale" by watching it — the §VIII
// coordinator tracks task state and the gateway routes on live cluster
// statistics — so every layer of prestolite publishes into this package:
// operators record rows/bytes/wall time, workers and coordinators serve
// GET /v1/stats, and the gateway polls those snapshots to route queries to
// the least-loaded cluster.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load reads the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move in both directions (e.g.
// outstanding queries, active tasks).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load reads the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count: bucket i counts observations with
// ceil(log2(µs)) == i, i.e. exponential microsecond buckets 1µs, 2µs, 4µs,
// ... ~34s, with the last bucket absorbing everything larger.
const histBuckets = 26

// Histogram is a fixed-bucket latency histogram. Observe is wait-free: one
// atomic add per bucket plus sum/count, no allocation.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

func bucketIndex(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	i := bits.Len64(us) // 0 for <1µs, 1 for 1µs, ...
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketUpperBound returns the inclusive upper bound of bucket i in
// nanoseconds (the last bucket is unbounded, reported as -1).
func bucketUpperBound(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return int64(time.Microsecond) << i
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// HistogramSnapshot is the JSON-friendly view of a histogram.
type HistogramSnapshot struct {
	Count    int64
	SumNanos int64
	// Buckets maps each bucket's upper bound in nanoseconds (-1 = +inf) to
	// its observation count; empty buckets are omitted.
	Buckets []HistogramBucket
	// P50/P95/P99 are bucket-upper-bound estimates in nanoseconds.
	P50 int64
	P95 int64
	P99 int64
}

// HistogramBucket is one (upper bound, count) pair.
type HistogramBucket struct {
	LENanos int64 // upper bound, -1 for the overflow bucket
	Count   int64
}

// Snapshot reads a consistent-enough view (each field individually atomic).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), SumNanos: h.sum.Load()}
	var counts [histBuckets]int64
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			counts[i] = n
			s.Buckets = append(s.Buckets, HistogramBucket{LENanos: bucketUpperBound(i), Count: n})
		}
	}
	s.P50 = quantile(counts[:], s.Count, 0.50)
	s.P95 = quantile(counts[:], s.Count, 0.95)
	s.P99 = quantile(counts[:], s.Count, 0.99)
	return s
}

// quantile estimates a quantile as the upper bound of the bucket containing
// the q-th observation.
func quantile(counts []int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range counts {
		seen += n
		if seen >= rank {
			if ub := bucketUpperBound(i); ub >= 0 {
				return ub
			}
			return int64(time.Microsecond) << (histBuckets - 1)
		}
	}
	return 0
}

// Registry is a named collection of metrics. Lookup (Counter, Gauge, ...)
// takes a lock and should be done once at setup; the returned handles are
// then lock-free on the hot path.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	hists      map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() float64{},
		hists:      map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a computed gauge (e.g. a cache hit rate derived from
// existing atomics); fn is called at snapshot time.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is the JSON document served at /v1/stats.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot captures every metric. Values move while the snapshot is taken
// (writers never block), but each metric is individually consistent.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.gaugeFuncs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = float64(g.Load())
	}
	for name, fn := range r.gaugeFuncs {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// CacheSection renders the cache-related gauges of the snapshot as an
// indented "Cache:" block ("" when there are none) — appended to EXPLAIN
// ANALYZE output so cache effectiveness shows up next to the operators it
// accelerates.
func (s Snapshot) CacheSection() string { return s.gaugeSection("Cache", "cache") }

// ReaderSection renders the file readers' work gauges (names containing
// ".reader.") as a "Reader:" block — the EXPLAIN ANALYZE footer's answer to
// "how much did the scans really read": row groups read and skipped, leaf
// chunks decoded, rows scanned and matched. Like the cache gauges above them
// they are process-wide running totals.
func (s Snapshot) ReaderSection() string { return s.gaugeSection("Reader", ".reader.") }

// gaugeSection renders the gauges whose name contains fragment under a title
// line ("" when there are none).
func (s Snapshot) gaugeSection(title, fragment string) string {
	var keys []string
	for k := range s.Gauges {
		if strings.Contains(k, fragment) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(title + ":\n")
	for _, k := range keys {
		v := s.Gauges[k]
		if strings.HasSuffix(k, "hit_rate") {
			fmt.Fprintf(&sb, "    %s: %.2f\n", k, v)
		} else {
			fmt.Fprintf(&sb, "    %s: %.0f\n", k, v)
		}
	}
	return sb.String()
}

// JSON marshals the snapshot (indented, stable key order via encoding/json).
func (s Snapshot) JSON() []byte {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Snapshot contains only maps of numbers; this cannot happen.
		return []byte("{}")
	}
	return data
}
