package cache

import (
	"fmt"
	"math"
)

// ChunkKey identifies one decoded parquet column chunk: the file (its path
// and the stamp it was listed with), the leaf column, the row group within
// the file, and whether the entry is the chunk's dictionary or its data
// pages. This mirrors the Alluxio local cache's page keys, one step further
// up: caching above the decoder, so a hit skips the ReadAt, the
// decompression and the decode. A file written again has a new stamp and so
// new keys; its old chunks age out.
type ChunkKey struct {
	Path     string
	Stamp    int64
	Column   string
	RowGroup int
	Dict     bool
}

// ChunkCache is the worker-local data cache for hot column chunks (tier 1 of
// the hierarchy). It is sharded to keep lock hold times short under the many
// concurrent driver goroutines of a scan, and bounded by total bytes rather
// than entry count because chunk sizes vary by orders of magnitude. The
// shards are LRUs sharing one byte budget and one Metrics; eviction is LRU
// within the shard being inserted into.
//
// Entries are what the parquet reader decoded (a dictionary, or a chunk's
// values or ids with its levels), each charged at the decoded size its Put
// gives. An entry is complete when it is put and never written afterwards:
// every query that hits it, and every block built over it, shares the one
// copy.
type ChunkCache[V any] struct {
	shards [chunkShards]*LRU[ChunkKey, chunkEntry[V]]

	Metrics Metrics
}

// chunkEntry is a cached value with the sum CheckChunks took when it was
// put.
type chunkEntry[V any] struct {
	v      V
	sum    uint64
	summed bool
}

// CheckChunks is a test hook that no binary sets. While it is true, the chunk
// cache sums each entry that has a Checksum method when the entry is put, and
// sums it again on every Get and when the entry is evicted: a different sum
// panics, naming the key. Something wrote into a chunk that queries share.
var CheckChunks bool

// checksummer is what CheckChunks asks of an entry: a sum over everything a
// reader of it can see.
type checksummer interface{ Checksum() uint64 }

const chunkShards = 16

// NewChunkCache creates a chunk cache bounded at maxBytes total (across all
// shards). maxBytes <= 0 selects a 64 MiB default.
func NewChunkCache[V any](maxBytes int64) *ChunkCache[V] {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	c := &ChunkCache[V]{}
	c.Metrics.maxBytes = maxBytes
	for i := range c.shards {
		// No count cap and no TTL: bytes are the only bound.
		c.shards[i] = NewSizedLRU[ChunkKey, chunkEntry[V]](math.MaxInt, 0, &c.Metrics)
		c.shards[i].onEvict = verify[V]
	}
	return c
}

// shard picks k's shard by everything but the stamp: every version of a
// chunk lands in the same shard. The hash is FNV-1a, computed inline so
// that a lookup allocates nothing.
func (c *ChunkCache[V]) shard(k ChunkKey) *LRU[ChunkKey, chunkEntry[V]] {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	add := func(b byte) { h = (h ^ uint64(b)) * prime }
	for i := 0; i < len(k.Path); i++ {
		add(k.Path[i])
	}
	add(0)
	for i := 0; i < len(k.Column); i++ {
		add(k.Column[i])
	}
	add(0)
	add(byte(k.RowGroup))
	add(byte(k.RowGroup >> 8))
	if k.Dict {
		add(1)
	}
	return c.shards[h%chunkShards]
}

// Get returns the entry cached under k. It is shared: callers must treat it
// as read-only.
func (c *ChunkCache[V]) Get(k ChunkKey) (V, bool) {
	e, ok := c.shard(k).Get(k)
	if ok {
		verify(k, e)
	}
	return e.v, ok
}

// Put stores v, of the given size in bytes, under k, evicting
// least-recently-used chunks from k's shard while the cache as a whole is
// over its byte budget. Entries larger than one shard's share of the budget
// are not cached at all (they would evict everything for one entry that
// cannot stay resident anyway). v must not be written after Put.
func (c *ChunkCache[V]) Put(k ChunkKey, v V, size int64) {
	if size > c.Metrics.maxBytes/chunkShards {
		c.Metrics.Bypasses.Add(1)
		return
	}
	e := chunkEntry[V]{v: v}
	if CheckChunks {
		if s, ok := any(v).(checksummer); ok {
			e.sum, e.summed = s.Checksum(), true
		}
	}
	c.shard(k).PutSized(k, e, size)
}

// verify panics when e was summed at Put and no longer has that sum.
func verify[V any](k ChunkKey, e chunkEntry[V]) {
	if !e.summed || !CheckChunks {
		return
	}
	if got := any(e.v).(checksummer).Checksum(); got != e.sum {
		panic(fmt.Sprintf("cache: chunk %+v was written after it was cached (sum %x, now %x)", k, e.sum, got))
	}
}

// GetChunk and PutChunk adapt the cache to the parquet reader's ChunkCache
// interface without parquet importing this package.

// GetChunk implements parquet.ChunkCache.
func (c *ChunkCache[V]) GetChunk(path string, stamp int64, column string, rowGroup int, dict bool) (V, bool) {
	return c.Get(ChunkKey{Path: path, Stamp: stamp, Column: column, RowGroup: rowGroup, Dict: dict})
}

// PutChunk implements parquet.ChunkCache.
func (c *ChunkCache[V]) PutChunk(path string, stamp int64, column string, rowGroup int, dict bool, v V, size int64) {
	c.Put(ChunkKey{Path: path, Stamp: stamp, Column: column, RowGroup: rowGroup, Dict: dict}, v, size)
}

// Len returns the total entry count across shards.
func (c *ChunkCache[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		n += s.Len()
	}
	return n
}
