package cache

import (
	"hash/fnv"
	"math"
	"strings"
)

// ChunkKey identifies one decompressed parquet column chunk: the file, the
// leaf column, the row group within the file, and whether the bytes are the
// chunk's dictionary page or its data pages. This mirrors the Alluxio local
// cache's page keys: caching below the decoder but above the filesystem, so
// a hit skips both the ReadAt and the decompression.
type ChunkKey struct {
	Path     string
	Column   string
	RowGroup int
	Dict     bool
}

// ChunkCache is the worker-local data cache for hot column-chunk reads
// (tier 1 of the hierarchy). It is sharded to keep lock hold times short
// under the many concurrent driver goroutines of a scan, and bounded by
// total bytes rather than entry count because chunk sizes vary by orders of
// magnitude. The shards are LRUs sharing one byte budget and one Metrics;
// eviction is LRU within the shard being inserted into.
//
// Cached values are the decompressed chunk bodies. Decoders slice into them
// without mutating, so a single copy is safely shared across queries.
type ChunkCache struct {
	shards [chunkShards]*LRU[ChunkKey, []byte]

	Metrics Metrics
}

const chunkShards = 16

// NewChunkCache creates a chunk cache bounded at maxBytes total (across all
// shards). maxBytes <= 0 selects a 64 MiB default.
func NewChunkCache(maxBytes int64) *ChunkCache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	c := &ChunkCache{}
	c.Metrics.maxBytes = maxBytes
	for i := range c.shards {
		// No count cap and no TTL: bytes are the only bound.
		c.shards[i] = NewSizedLRU[ChunkKey, []byte](math.MaxInt, 0, &c.Metrics)
	}
	return c
}

func (c *ChunkCache) shard(k ChunkKey) *LRU[ChunkKey, []byte] {
	h := fnv.New64a()
	h.Write([]byte(k.Path))
	h.Write([]byte{0})
	h.Write([]byte(k.Column))
	h.Write([]byte{0, byte(k.RowGroup), byte(k.RowGroup >> 8)})
	if k.Dict {
		h.Write([]byte{1})
	}
	return c.shards[h.Sum64()%chunkShards]
}

// Get returns the cached decompressed body for k. The returned slice is
// shared: callers must treat it as read-only.
func (c *ChunkCache) Get(k ChunkKey) ([]byte, bool) { return c.shard(k).Get(k) }

// Put stores body under k, evicting least-recently-used chunks from k's
// shard while the cache as a whole is over its byte budget. Bodies larger
// than one shard's share of the budget are not cached at all (they would
// evict everything for one entry that cannot stay resident anyway).
func (c *ChunkCache) Put(k ChunkKey, body []byte) {
	if int64(len(body)) > c.Metrics.maxBytes/chunkShards {
		c.Metrics.Bypasses.Add(1)
		return
	}
	c.shard(k).PutSized(k, body, int64(len(body)))
}

// GetChunk and PutChunk adapt the cache to the parquet reader's ChunkCache
// interface without parquet importing this package.

// GetChunk implements parquet.ChunkCache.
func (c *ChunkCache) GetChunk(path, column string, rowGroup int, dict bool) ([]byte, bool) {
	return c.Get(ChunkKey{Path: path, Column: column, RowGroup: rowGroup, Dict: dict})
}

// PutChunk implements parquet.ChunkCache.
func (c *ChunkCache) PutChunk(path, column string, rowGroup int, dict bool, body []byte) {
	c.Put(ChunkKey{Path: path, Column: column, RowGroup: rowGroup, Dict: dict}, body)
}

// InvalidatePrefix drops every chunk whose path starts with prefix and
// returns the count. Fired when ingest/seal/compaction rewrites files under
// a table or partition directory.
func (c *ChunkCache) InvalidatePrefix(prefix string) int {
	dropped := 0
	for _, s := range c.shards {
		dropped += s.InvalidateFunc(func(k ChunkKey) bool { return strings.HasPrefix(k.Path, prefix) })
	}
	return dropped
}

// Len returns the total entry count across shards.
func (c *ChunkCache) Len() int {
	n := 0
	for _, s := range c.shards {
		n += s.Len()
	}
	return n
}
