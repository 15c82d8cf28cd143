// Package cache implements the caching layer of §VII: one generic LRU
// (count cap, TTL, shareable byte budget, hit/miss metrics) and the tiers
// that are thin instances of it here — the coordinator-side file list cache
// (sealed directories only, §VII.A), the worker-side footer cache (§VII.B),
// the sharded chunk cache and the page memo of write-once units' partial
// aggregates. The storage tiers and the memo key by identity, not
// by name: a listing by its partition's metastore version, a footer and a
// chunk by the stamp their file was listed with. What changes gets a new key,
// so nothing here is ever invalidated; capacity bounds evict what is no
// longer addressed.
package cache

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"prestolite/internal/block"
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
	// onEvict, when set, sees each entry count or byte pressure evicts,
	// under the lock.
	onEvict func(K, V)
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
func (c *LRU[K, V]) Get(key K) (V, bool) { return c.GetFresh(key, nil) }

// GetFresh is Get for values that go stale by more than age: a lookup whose
// entry fresh (when not nil) rejects counts as a miss. fresh runs without
// the cache's lock held, so it may take locks of its own. The stale entry
// stays, to be replaced by the caller's next Put under the key or aged out.
func (c *LRU[K, V]) GetFresh(key K, fresh func(V) bool) (V, bool) {
	value, ok := c.get(key)
	if ok && (fresh == nil || fresh(value)) {
		c.Metrics.Hits.Add(1)
		return value, true
	}
	c.Metrics.Misses.Add(1)
	var zero V
	return zero, false
}

// get looks key up, dropping its entry if it has expired, and counts
// nothing.
func (c *LRU[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero V
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	entry := el.Value.(*lruEntry[K, V])
	if c.ttl > 0 && c.clock.Now().After(entry.expires) {
		c.removeLocked(el)
		return zero, false
	}
	c.order.MoveToFront(el)
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
		el := c.order.Back()
		c.removeLocked(el)
		c.Metrics.Evictions.Add(1)
		if c.onEvict != nil {
			entry := el.Value.(*lruEntry[K, V])
			c.onEvict(entry.key, entry.value)
		}
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

// ---------------------------------------------------------------------------
// Page memo: partial aggregates of write-once units (§VII's fragment result
// cache, one unit at a time). A sealed druid segment and a Parquet file never
// change, so the partial a statement computes over one is good for every
// later statement of the same shape; the key names the unit (a segment id, a
// file's path and stamp) and the shape, so nothing is invalidated.

// PageMemo is an LRU of read-only pages under its own byte budget. An entry
// is charged its page's SizeBytes, its key's bytes and a fixed overhead, so
// empty pages count too. An entry over an eighth of the budget is not kept
// (a bypass): it would evict most of the memo.
type PageMemo[K comparable] struct {
	lru *LRU[K, *block.Page]

	Metrics *Metrics
}

// PartialsBudget is the byte budget of each connector's memo of partials.
// At the end of a 20 s run of each e2ebench workload, the fullest memo held
// 259 KB (a hive connector of dashboard_repeat; realtime_hybrid's stayed
// under 16 KB) and none had evicted: 4 MiB is some 16 times that.
const PartialsBudget = 4 << 20

// NewPageMemo creates a memo bounded at maxBytes of page SizeBytes.
func NewPageMemo[K comparable](maxBytes int64) *PageMemo[K] {
	m := NewBudget(maxBytes)
	return &PageMemo[K]{lru: NewSizedLRU[K, *block.Page](math.MaxInt, 0, m), Metrics: m}
}

// Get returns the page memoised under k. The caller must not modify it.
func (m *PageMemo[K]) Get(k K) (*block.Page, bool) { return m.lru.Get(k) }

// pageMemoEntryBytes is what an entry costs besides its key and page: the
// LRU's map slot, list element and entry header.
const pageMemoEntryBytes = 128

// Put memoises p under k, whose encoding takes keyBytes; p must not be
// modified afterwards.
func (m *PageMemo[K]) Put(k K, keyBytes int, p *block.Page) {
	size := int64(p.SizeBytes() + keyBytes + pageMemoEntryBytes)
	if size > m.Metrics.maxBytes/8 {
		m.Metrics.Bypasses.Add(1)
		return
	}
	m.lru.PutSized(k, p, size)
}
