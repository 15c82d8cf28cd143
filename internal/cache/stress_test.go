package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"prestolite/internal/fault"
)

// TestLRUConcurrentStress hammers one LRU from parallel readers, writers and
// invalidators. Run under -race this is the memory-safety proof for the
// shared coordinator/worker caches; the final Len bound proves capacity is
// never exceeded regardless of interleaving.
func TestLRUConcurrentStress(t *testing.T) {
	const (
		workers = 8
		ops     = 2000
		keys    = 64
		cap     = 32
	)
	c := NewLRU[string, int](cap, time.Minute)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("k%d", (w*31+i)%keys)
				switch i % 4 {
				case 0, 1:
					c.Get(k)
				case 2:
					c.Put(k, i)
				case 3:
					if i%64 == 3 {
						c.Invalidate(k)
					} else if i%512 == 7 {
						c.InvalidateFunc(func(key string) bool { return key < "k2" })
					} else {
						c.Get(k)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > cap {
		t.Errorf("len %d exceeds capacity %d", c.Len(), cap)
	}
	total := c.Metrics.Hits.Load() + c.Metrics.Misses.Load()
	if total == 0 {
		t.Error("no gets recorded")
	}
}

// TestChunkCacheConcurrentStress runs parallel GetChunk/PutChunk/Invalidate
// against the sharded chunk cache, then checks the byte accounting is exact:
// after a full InvalidatePrefix sweep the resident byte counter must return
// to zero — any drift means an eviction or invalidation leaked its size.
func TestChunkCacheConcurrentStress(t *testing.T) {
	const (
		workers = 8
		ops     = 2000
	)
	c := NewChunkCache(1 << 20) // 1 MiB, small enough to force evictions
	body := make([]byte, 2048)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				path := fmt.Sprintf("/warehouse/t%d/part-%d.parquet", w%2, i%40)
				col := fmt.Sprintf("c%d", i%4)
				switch i % 3 {
				case 0:
					if b, ok := c.GetChunk(path, col, i%8, false); ok && len(b) != len(body) {
						t.Errorf("corrupt body length %d", len(b))
						return
					}
				case 1:
					c.PutChunk(path, col, i%8, i%16 == 1, body)
				case 2:
					if i%128 == 2 {
						c.InvalidatePrefix(fmt.Sprintf("/warehouse/t%d/", w%2))
					} else {
						c.GetChunk(path, col, i%8, false)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Metrics.Bytes.Load() < 0 {
		t.Errorf("negative resident bytes %d", c.Metrics.Bytes.Load())
	}
	c.InvalidatePrefix("/")
	if c.Len() != 0 {
		t.Errorf("len %d after full invalidation", c.Len())
	}
	if c.Metrics.Bytes.Load() != 0 {
		t.Errorf("resident bytes %d after full invalidation, want 0", c.Metrics.Bytes.Load())
	}
}

// TestChunkCacheBasics covers the single-threaded contract: hit after put,
// dict and data pages are distinct keys, oversized bodies bypass, and byte
// pressure evicts the least recently used chunk.
func TestChunkCacheBasics(t *testing.T) {
	c := NewChunkCache(16 * 4096)
	body := []byte("decompressed-bytes")
	c.PutChunk("/t/f1", "col", 0, false, body)
	if got, ok := c.GetChunk("/t/f1", "col", 0, false); !ok || string(got) != string(body) {
		t.Fatalf("miss after put: %q %v", got, ok)
	}
	if _, ok := c.GetChunk("/t/f1", "col", 0, true); ok {
		t.Error("dict page must not alias data page")
	}
	if _, ok := c.GetChunk("/t/f1", "col", 1, false); ok {
		t.Error("row groups must not alias")
	}
	// A body larger than a whole shard's budget is refused, not cached.
	huge := make([]byte, 16*4096)
	c.PutChunk("/t/huge", "col", 0, false, huge)
	if _, ok := c.GetChunk("/t/huge", "col", 0, false); ok {
		t.Error("oversized body should bypass the cache")
	}
	if c.Metrics.Bypasses.Load() == 0 {
		t.Error("bypass not counted")
	}
	if n := c.InvalidatePrefix("/t/"); n != 1 {
		t.Errorf("invalidated %d, want 1", n)
	}
}

// TestChunkCacheEviction fills past the byte budget and checks eviction both
// happens and is counted.
func TestChunkCacheEviction(t *testing.T) {
	c := NewChunkCache(32 * 1024)
	body := make([]byte, 1024)
	for i := 0; i < 256; i++ {
		c.PutChunk("/t/f", fmt.Sprintf("c%d", i), 0, false, body)
	}
	if c.Metrics.Bytes.Load() > 32*1024 {
		t.Errorf("resident %d bytes exceeds budget", c.Metrics.Bytes.Load())
	}
	if c.Metrics.Evictions.Load() == 0 {
		t.Error("expected evictions under byte pressure")
	}
}

func everyKey(string) bool { return true }

// TestResultCache covers the version-stamped result cache: TTL expiry on the
// injected clock, byte-bound eviction, and explicit full invalidation.
func TestResultCache(t *testing.T) {
	c := NewSizedLRU[string, string](8, time.Minute, NewBudget(100))
	clk := fault.NewManualClock(time.Unix(5000, 0))
	c.SetClock(clk)

	c.PutSized("q1@v1", "rows", 10)
	if v, ok := c.Get("q1@v1"); !ok || v != "rows" {
		t.Fatalf("miss after put: %q %v", v, ok)
	}
	// A version bump is a different key — the stale entry is simply never hit.
	if _, ok := c.Get("q1@v2"); ok {
		t.Error("bumped version must miss")
	}
	clk.Advance(2 * time.Minute)
	if _, ok := c.Get("q1@v1"); ok {
		t.Error("expired entry served")
	}
	// Byte bound: 3 entries of 40 bytes exceed 100; oldest goes.
	c.PutSized("a", "x", 40)
	c.PutSized("b", "y", 40)
	c.PutSized("c", "z", 40)
	if _, ok := c.Get("a"); ok {
		t.Error("oldest entry should be evicted by byte pressure")
	}
	if c.Metrics.Evictions.Load() == 0 {
		t.Error("eviction not counted")
	}
	if n := c.InvalidateFunc(everyKey); n == 0 {
		t.Error("invalidate-all dropped nothing")
	}
	if c.Len() != 0 || c.Metrics.Bytes.Load() != 0 {
		t.Errorf("len=%d bytes=%d after invalidate-all", c.Len(), c.Metrics.Bytes.Load())
	}
}

// TestResultCacheConcurrentStress runs parallel Get/Put/invalidate-all under
// -race.
func TestResultCacheConcurrentStress(t *testing.T) {
	c := NewSizedLRU[string, int](64, time.Minute, NewBudget(1<<20))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("q%d", (w+i)%128)
				switch i % 3 {
				case 0:
					c.Get(k)
				case 1:
					c.PutSized(k, i, 256)
				case 2:
					if i%512 == 2 {
						c.InvalidateFunc(everyKey)
					} else {
						c.Get(k)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if b := c.Metrics.Bytes.Load(); b < 0 || b > 1<<20 {
		t.Errorf("resident bytes %d outside [0, budget]", b)
	}
	c.InvalidateFunc(everyKey)
	if b := c.Metrics.Bytes.Load(); b != 0 {
		t.Errorf("resident bytes %d after invalidate-all, want 0", b)
	}
}
