package e2ebench

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// processStats is the process-wide cost census. The load generator shares
// the process with the system under test, so its own CPU and allocations are
// included — equally on every commit.
type processStats struct {
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	gcPause time.Duration
}

func readProcess() processStats {
	var ru syscall.Rusage
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := processStats{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcPause: time.Duration(ms.PauseTotalNs)}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

// heapSampler polls the live-object heap size without stopping the world.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	max    uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.max {
				h.max = s[0].Value.Uint64()
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and waits for it, after which peak is safe to read.
func (h *heapSampler) stop() {
	close(h.stopCh)
	h.wg.Wait()
}

func (h *heapSampler) peak() uint64 { return h.max }

const mb = 1 << 20

// windowMetrics turns the two counter snapshots around the measured window
// into the per-layer "W" metrics. Everything is normalized per query the
// coordinators accepted in the window, so a faster host does not read as a
// busier layer.
func windowMetrics(ms *metricSet, s *stack, before, after map[string]float64, pb, pa processStats, heapPeak uint64) {
	// A counter the stack does not have (a cache that is off, no druid store)
	// is absent from the snapshots and its metrics do not apply.
	d := func(key string) float64 {
		a, ok := after[key]
		if !ok {
			return math.NaN()
		}
		return a - before[key]
	}
	share := func(hits, misses string) float64 { return ratio(d(hits), d(hits)+d(misses)) }
	queries := d("coord.submitted")

	ms.set("gateway.sticky_fallbacks", d("gw.sticky_fallbacks"))
	ms.set("gateway.resubmissions", d("gw.resubmissions"))
	ms.set("gateway.failovers", d("gw.failovers"))

	ms.set("cluster.tasks_per_query", ratio(d("worker.tasks_started"), queries))
	ms.set("cluster.task_retries", d("coord.task_retries"))
	ms.set("cluster.rpc_retries", d("coord.rpc_retries"))
	ms.set("cluster.hedged_fetches", d("coord.hedged_fetches"))
	ms.set("cluster.affinity_first_choice_share", share("coord.affinity_placed", "coord.affinity_overflow"))

	ms.set("hdfs.list_calls_per_query", ratio(d("hdfs.list"), queries))
	ms.set("hdfs.fileinfo_calls_per_query", ratio(d("hdfs.fileinfo"), queries))
	ms.set("hdfs.open_calls_per_query", ratio(d("hdfs.open"), queries))
	ms.set("hdfs.read_bytes_per_query", ratio(d("hdfs.bytes_read"), queries))

	ms.set("cache.result_hit_share", share("result.hits", "result.misses"))
	ms.set("cache.result_uncacheable", d("result.uncacheable"))
	ms.set("cache.fragment_hit_share", ratio(d("fragment.hits"), d("worker.tasks_started")))
	ms.set("cache.chunk_hit_share", share("chunk.hits", "chunk.misses"))
	ms.set("cache.chunk_evictions", d("chunk.evictions"))
	ms.set("cache.footer_hit_share", share("footer.hits", "footer.misses"))
	ms.set("cache.filelist_hit_share", share("filelist.hits", "filelist.misses"))

	ms.set("druid.seals", d("druid.seals"))
	ms.set("druid.compactions", d("druid.compactions"))
	if open, ok := after["druid.open"]; ok {
		ms.set("druid.segments_open", open)
		ms.set("druid.segments_sealed", after["druid.sealed"])
	}
	ms.set("ingest.wal_fsyncs", d("wal.fsyncs"))
	ms.set("ingest.wal_bytes_per_event", ratio(d("wal.bytes"), d("ingest.sent")))

	ms.set("process.cpu_ms_per_query", ratio(float64(pa.cpu-pb.cpu)/1e6, queries))
	ms.set("process.alloc_mb_per_query", ratio(float64(pa.alloc-pb.alloc)/mb, queries))
	ms.set("process.allocs_per_query", ratio(float64(pa.mallocs-pb.mallocs), queries))
	ms.set("process.gc_pause_ms", float64(pa.gcPause-pb.gcPause)/1e6)
	ms.set("process.heap_peak_mb", float64(heapPeak)/mb)

	// QueryInfo lifecycle: the coordinators retain their last 128 queries, so
	// these are medians over the tail of the window.
	var queued, planning, running, peak, spilled []float64
	for _, n := range s.nodes {
		for _, qi := range n.coord.QueryInfos() {
			if qi.Finished.IsZero() || qi.Planning.IsZero() {
				continue
			}
			queued = append(queued, qi.Planning.Sub(qi.Queued).Seconds()*1e3)
			if qi.Running.IsZero() { // served whole from the result cache
				planning = append(planning, qi.Finished.Sub(qi.Planning).Seconds()*1e3)
				continue
			}
			planning = append(planning, qi.Running.Sub(qi.Planning).Seconds()*1e3)
			running = append(running, qi.Finished.Sub(qi.Running).Seconds()*1e3)
			peak = append(peak, float64(qi.PeakMemoryBytes)/mb)
			spilled = append(spilled, float64(qi.SpilledBytes))
		}
	}
	ms.set("cluster.queued_ms", median(queued))
	ms.set("cluster.planning_ms", median(planning))
	ms.set("cluster.running_ms", median(running))
	ms.set("resource.peak_query_mem_mb", median(peak))
	ms.set("resource.spilled_bytes", median(spilled))
}
