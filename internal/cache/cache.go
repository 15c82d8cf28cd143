// Package cache implements the caching layer of §VII: one generic LRU
// (count cap, TTL, shareable byte budget, hit/miss metrics) and the tiers
// that are thin instances of it here — the coordinator-side file list cache
// (sealed directories only, §VII.A), the worker-side file handle + footer
// cache (§VII.B) and the sharded chunk cache.
package cache

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prestolite/internal/fault"
	"prestolite/internal/fsys"
	"prestolite/internal/obs"
)

// Metrics counts cache effectiveness; experiments read these to reproduce
// the "listFile calls reduced to less than 40%" and "90% of getFileInfo
// calls reduced" results. Every LRU built on the same Metrics (NewSizedLRU)
// shares its counters and its byte budget.
type Metrics struct {
	Hits      atomic.Int64
	Misses    atomic.Int64
	Bypasses  atomic.Int64 // open partitions and oversized bodies skip the cache entirely
	Evictions atomic.Int64 // capacity- or byte-pressure evictions, not TTL expiry
	Bytes     atomic.Int64 // resident bytes, summing the sizes given to PutSized

	maxBytes int64 // byte budget over Bytes; 0 = none. Fixed before first use.
}

// NewBudget returns metrics carrying a byte budget: the LRUs built on them
// evict while their combined resident Bytes exceed maxBytes (<= 0 = no byte
// bound).
func NewBudget(maxBytes int64) *Metrics { return &Metrics{maxBytes: maxBytes} }

// HitRate returns hits / (hits + misses), 0 when empty.
func (m *Metrics) HitRate() float64 {
	h, mi := m.Hits.Load(), m.Misses.Load()
	if h+mi == 0 {
		return 0
	}
	return float64(h) / float64(h+mi)
}

// RegisterObs publishes the cache counters and hit rate into an observability
// registry under prefix (e.g. "hive.cache.footer"), so they show up in
// /v1/stats snapshots and EXPLAIN ANALYZE cache footers; byte-budgeted caches
// also publish their resident bytes. The existing atomics stay the source of
// truth; the registry reads them at snapshot time.
func (m *Metrics) RegisterObs(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+".hits", func() float64 { return float64(m.Hits.Load()) })
	reg.GaugeFunc(prefix+".misses", func() float64 { return float64(m.Misses.Load()) })
	reg.GaugeFunc(prefix+".bypasses", func() float64 { return float64(m.Bypasses.Load()) })
	reg.GaugeFunc(prefix+".evictions", func() float64 { return float64(m.Evictions.Load()) })
	reg.GaugeFunc(prefix+".hit_rate", m.HitRate)
	if m.maxBytes > 0 {
		reg.GaugeFunc(prefix+".bytes", func() float64 { return float64(m.Bytes.Load()) })
	}
}

// LRU is the module's one thread-safe LRU: bounded by entry count, optionally
// by a byte budget (possibly shared with other LRUs) and a TTL. Every cache
// tier of §VII is an instance. Time flows through a fault.Clock so TTL expiry
// is deterministic under CHAOS_SEED replay.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration
	items    map[K]*list.Element
	order    *list.List // front = most recent

	Metrics *Metrics
	clock   fault.Clock
}

type lruEntry[K comparable, V any] struct {
	key     K
	value   V
	size    int64
	expires time.Time
}

// NewLRU creates a cache bounded by entry count only; ttl <= 0 disables
// expiry.
func NewLRU[K comparable, V any](capacity int, ttl time.Duration) *LRU[K, V] {
	return NewSizedLRU[K, V](capacity, ttl, &Metrics{})
}

// NewSizedLRU creates a cache that counts into m and is additionally bounded
// by m's byte budget (NewBudget), with per-entry sizes supplied at PutSized.
// Eviction takes this cache's least recently used entries while the budget's
// combined resident bytes are over, always leaving the newest entry in place.
func NewSizedLRU[K comparable, V any](capacity int, ttl time.Duration, m *Metrics) *LRU[K, V] {
	if capacity <= 0 {
		capacity = 1024
	}
	return &LRU[K, V]{
		capacity: capacity,
		ttl:      ttl,
		items:    map[K]*list.Element{},
		order:    list.New(),
		Metrics:  m,
		clock:    fault.RealClock{},
	}
}

// Get returns the cached value, if present and fresh.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero V
	el, ok := c.items[key]
	if !ok {
		c.Metrics.Misses.Add(1)
		return zero, false
	}
	entry := el.Value.(*lruEntry[K, V])
	if c.ttl > 0 && c.clock.Now().After(entry.expires) {
		c.removeLocked(el)
		c.Metrics.Misses.Add(1)
		return zero, false
	}
	c.order.MoveToFront(el)
	c.Metrics.Hits.Add(1)
	return entry.value, true
}

// Put inserts or refreshes a value that does not count against a byte budget.
func (c *LRU[K, V]) Put(key K, value V) { c.PutSized(key, value, 0) }

// PutSized inserts or refreshes a value of the given size in bytes, then
// evicts from the back while over the count cap, or over the byte budget with
// more than one entry left.
func (c *LRU[K, V]) PutSized(key K, value V, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var expires time.Time
	if c.ttl > 0 {
		expires = c.clock.Now().Add(c.ttl)
	}
	if el, ok := c.items[key]; ok {
		entry := el.Value.(*lruEntry[K, V])
		c.Metrics.Bytes.Add(size - entry.size)
		entry.value, entry.size, entry.expires = value, size, expires
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, value: value, size: size, expires: expires})
		c.Metrics.Bytes.Add(size)
	}
	max := c.Metrics.maxBytes
	for c.order.Len() > c.capacity || (max > 0 && c.Metrics.Bytes.Load() > max && c.order.Len() > 1) {
		c.removeLocked(c.order.Back())
		c.Metrics.Evictions.Add(1)
	}
}

func (c *LRU[K, V]) removeLocked(el *list.Element) {
	entry := el.Value.(*lruEntry[K, V])
	c.order.Remove(el)
	delete(c.items, entry.key)
	c.Metrics.Bytes.Add(-entry.size)
}

// Invalidate drops a key.
func (c *LRU[K, V]) Invalidate(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
}

// InvalidateFunc drops every entry whose key matches pred and returns the
// number dropped. Used for prefix invalidation when an ingest or seal event
// touches a directory: every path-derived key under it must go.
func (c *LRU[K, V]) InvalidateFunc(pred func(K) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for key, el := range c.items {
		if pred(key) {
			c.removeLocked(el)
			dropped++
		}
	}
	return dropped
}

// Len returns the current entry count.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// SetClock overrides the TTL time source for tests and chaos replay.
func (c *LRU[K, V]) SetClock(clk fault.Clock) { c.clock = clk }

// ---------------------------------------------------------------------------
// File list cache (§VII.A): the coordinator caches directory listings to
// avoid listFile RPCs against the NameNode. Only sealed directories are
// cached; open partitions (near-real-time ingestion keeps writing files)
// bypass the cache to guarantee data freshness.

// FileListCache fronts FileSystem.ListFiles.
type FileListCache struct {
	fs  fsys.FileSystem
	lru *LRU[string, []fsys.FileInfo]

	// Metrics includes bypasses for open partitions.
	Metrics *Metrics
}

// NewFileListCache wraps fs.
func NewFileListCache(fs fsys.FileSystem, capacity int, ttl time.Duration) *FileListCache {
	lru := NewLRU[string, []fsys.FileInfo](capacity, ttl)
	return &FileListCache{fs: fs, lru: lru, Metrics: lru.Metrics}
}

// List lists dir. sealed=false (open partition) always goes to the
// filesystem and is never cached.
func (c *FileListCache) List(dir string, sealed bool) ([]fsys.FileInfo, error) {
	if !sealed {
		c.Metrics.Bypasses.Add(1)
		return c.fs.ListFiles(dir)
	}
	if files, ok := c.lru.Get(dir); ok {
		return files, nil
	}
	files, err := c.fs.ListFiles(dir)
	if err != nil {
		return nil, err
	}
	c.lru.Put(dir, files)
	return files, nil
}

// Invalidate drops a directory (called when a partition is rewritten).
func (c *FileListCache) Invalidate(dir string) { c.lru.Invalidate(dir) }

// InvalidatePrefix drops every cached listing under prefix. Seal and ingest
// events fire this so a just-sealed partition's listing is re-read instead of
// served stale until TTL.
func (c *FileListCache) InvalidatePrefix(prefix string) int {
	return c.lru.InvalidateFunc(func(dir string) bool { return strings.HasPrefix(dir, prefix) })
}

// ---------------------------------------------------------------------------
// File handle + footer cache (§VII.B): workers cache file descriptors
// (avoiding getFileInfo calls) and the decoded footers, which have a very
// high hit rate "as they are the indexes to the data itself".

// FooterCache caches per-path file metadata and footer payloads.
type FooterCache[F any] struct {
	infos   *LRU[string, fsys.FileInfo]
	footers *LRU[string, F]

	// InfoMetrics and FooterMetrics expose the two hit rates separately.
	InfoMetrics   *Metrics
	FooterMetrics *Metrics
}

// NewFooterCache creates a worker-side cache.
func NewFooterCache[F any](capacity int, ttl time.Duration) *FooterCache[F] {
	infos, footers := NewLRU[string, fsys.FileInfo](capacity, ttl), NewLRU[string, F](capacity, ttl)
	return &FooterCache[F]{infos: infos, footers: footers, InfoMetrics: infos.Metrics, FooterMetrics: footers.Metrics}
}

// GetFileInfo stats through the cache.
func (c *FooterCache[F]) GetFileInfo(fs fsys.FileSystem, path string) (fsys.FileInfo, error) {
	if info, ok := c.infos.Get(path); ok {
		return info, nil
	}
	info, err := fs.GetFileInfo(path)
	if err != nil {
		return fsys.FileInfo{}, err
	}
	c.infos.Put(path, info)
	return info, nil
}

// GetFooter loads a footer through the cache.
func (c *FooterCache[F]) GetFooter(path string, load func() (F, error)) (F, error) {
	if f, ok := c.footers.Get(path); ok {
		return f, nil
	}
	f, err := load()
	if err != nil {
		var zero F
		return zero, err
	}
	c.footers.Put(path, f)
	return f, nil
}

// InvalidatePrefix drops every info and footer entry whose path starts with
// prefix (a table or partition directory being rewritten or sealed).
func (c *FooterCache[F]) InvalidatePrefix(prefix string) int {
	pred := func(path string) bool { return strings.HasPrefix(path, prefix) }
	return c.infos.InvalidateFunc(pred) + c.footers.InvalidateFunc(pred)
}
