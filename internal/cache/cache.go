// Package cache implements the caching layer of §VII: one generic LRU
// (count cap, TTL, shareable byte budget, hit/miss metrics) and the tiers
// that are thin instances of it here — the coordinator-side file list cache
// (sealed directories only, §VII.A), the worker-side footer cache (§VII.B)
// and the sharded chunk cache. The three storage tiers key by identity, not
// by name: a listing by its partition's metastore version, a footer and a
// chunk by the stamp their file was listed with. What changes gets a new key,
// so nothing here is ever invalidated; capacity bounds evict what is no
// longer addressed.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"prestolite/internal/fault"
	"prestolite/internal/fsys"
	"prestolite/internal/obs"
)

// Metrics counts cache effectiveness; experiments read these to reproduce
// the "listFile calls reduced to less than 40%" result and the footer reads
// the footer cache saves. Every LRU built on the same Metrics (NewSizedLRU)
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
// cached, each under the metastore version its partition was registered at:
// a partition registered again is listed again. Open partitions
// (near-real-time ingestion keeps writing files) bypass the cache to
// guarantee data freshness.

// FileListCache fronts FileSystem.ListFiles.
type FileListCache struct {
	fs  fsys.FileSystem
	lru *LRU[listingKey, []fsys.FileInfo]

	// Metrics includes bypasses for open partitions.
	Metrics *Metrics
}

type listingKey struct {
	dir     string
	version int64
}

// NewFileListCache wraps fs.
func NewFileListCache(fs fsys.FileSystem, capacity int) *FileListCache {
	lru := NewLRU[listingKey, []fsys.FileInfo](capacity, 0)
	return &FileListCache{fs: fs, lru: lru, Metrics: lru.Metrics}
}

// List lists dir, a partition registered at version. sealed=false (open
// partition) always goes to the filesystem and is never cached.
func (c *FileListCache) List(dir string, version int64, sealed bool) ([]fsys.FileInfo, error) {
	if !sealed {
		c.Metrics.Bypasses.Add(1)
		return c.fs.ListFiles(dir)
	}
	k := listingKey{dir, version}
	if files, ok := c.lru.Get(k); ok {
		return files, nil
	}
	files, err := c.fs.ListFiles(dir)
	if err != nil {
		return nil, err
	}
	c.lru.Put(k, files)
	return files, nil
}

// ---------------------------------------------------------------------------
// Footer cache (§VII.B): workers cache the decoded footers, which have a very
// high hit rate "as they are the indexes to the data itself". A footer is
// keyed by its file's path and the stamp the file was listed with, so a file
// written again is a miss, never the old footer.

// FooterCache caches footer payloads by (path, stamp).
type FooterCache[F any] struct {
	footers *LRU[FileID, F]

	Metrics *Metrics
}

// FileID is one version of one file: its path and the stamp a listing gave
// it (fsys.FileInfo).
type FileID struct {
	Path  string
	Stamp int64
}

// NewFooterCache creates a worker-side cache of at most capacity footers.
func NewFooterCache[F any](capacity int) *FooterCache[F] {
	footers := NewLRU[FileID, F](capacity, 0)
	return &FooterCache[F]{footers: footers, Metrics: footers.Metrics}
}

// GetFooter loads a footer through the cache.
func (c *FooterCache[F]) GetFooter(id FileID, load func() (F, error)) (F, error) {
	if f, ok := c.footers.Get(id); ok {
		return f, nil
	}
	f, err := load()
	if err != nil {
		var zero F
		return zero, err
	}
	c.footers.Put(id, f)
	return f, nil
}
